"""Bit-parallel logic simulation over fan-in adjacency circuits.

Evaluates every gate on a packed :class:`~repro.sim.vectors.VectorSet` in
topological order; 64 Monte-Carlo vectors advance per word operation.
This is the workhorse behind error estimation (the paper's VECBEE role)
and output-similarity tables.

Values live in the structure-of-arrays :class:`~repro.sim.store.ValueStore`
(one dense uint64 matrix laid out by the shared timing row index).
:func:`simulate` evaluates every gate of any DAG; :func:`resimulate_cone`
is the incremental, event-driven walk: it re-evaluates only the rows a
change actually changes, and requires a gid-topological circuit (see
:meth:`Circuit.gid_order_topo`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable

import numpy as np

from ..analysis.sanitize import publish_array
from ..cells import FUNCTIONS, split_cell_name
from ..netlist import CONST0, CONST1, PI_CELL, PO_CELL, Circuit
from ..sta.store import timing_index
from .store import ValueStore, value_rows
from .vectors import VectorSet

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Cell name -> its function's name, so each cell name is parsed once;
#: a name that fails to parse is not stored.  The function itself is
#: looked up in ``FUNCTIONS`` per call.
_FUNCTION_OF: Dict[str, str] = {}


def _gate_words(cell: str, fis, matrix: np.ndarray, rows) -> np.ndarray:
    """One PO or logic gate's output words from its fan-in rows.

    The one gate evaluation behind :func:`simulate` and
    :func:`resimulate_cone`: a PO mirrors its single fan-in, a logic
    gate applies its cell function to the packed fan-in words.  A cell
    name that does not parse raises ``ValueError``.
    """
    if cell == PO_CELL:
        return matrix[rows[fis[0]]]
    function = _FUNCTION_OF.get(cell)
    if function is None:
        function = _FUNCTION_OF[cell] = split_cell_name(cell)[0]
    return FUNCTIONS[function].word_eval([matrix[rows[fi]] for fi in fis])


def simulate(circuit: Circuit, vectors: VectorSet) -> ValueStore:
    """Simulate all gates; returns the packed value store.

    PIs take rows of ``vectors`` in ``circuit.pi_ids`` order; POs mirror
    their single fan-in.  Constants live in the store's two sentinel
    rows so downstream code can treat them uniformly
    (``values[CONST0]`` / ``values[CONST1]``).  Any DAG is accepted.
    """
    if vectors.num_inputs != len(circuit.pi_ids):
        raise ValueError(
            f"vector set has {vectors.num_inputs} inputs, circuit has "
            f"{len(circuit.pi_ids)} PIs"
        )
    index = timing_index(circuit)
    matrix = np.empty((index.n + 2, vectors.num_words), dtype=np.uint64)
    matrix[index.n] = 0
    matrix[index.n + 1] = _ALL_ONES
    rows = value_rows(index)
    for i, pi in enumerate(circuit.pi_ids):
        matrix[rows[pi]] = vectors.words[i]
    # Local bindings: this loop visits every gate of every fully
    # evaluated candidate, so attribute/property lookups are hoisted.
    fanins = circuit.fanins
    cells = circuit.cells
    for gid in circuit.topological_order():
        cell = cells[gid]
        if cell != PI_CELL:
            matrix[rows[gid]] = _gate_words(cell, fanins[gid], matrix, rows)
    return ValueStore(index, publish_array(matrix))


def resimulate_cone(
    circuit: Circuit,
    vectors: VectorSet,
    base_values: ValueStore,
    changed: Iterable[int],
) -> ValueStore:
    """Re-evaluate the ``changed`` gates and only the rows they change.

    ``base_values`` must come from a simulation, on ``vectors``, of a
    parent that differs from ``circuit`` only in the fan-in tuples or
    cells of the ``changed`` gates.  The walk is event-driven: it seeds
    the changed gates and pops rows in ascending gate ID, which is a
    topological order because ``circuit`` must be gid-topological
    (every population member is).  A popped row whose re-evaluated
    words equal the parent's stops there; any other row queues its
    consumers from ``circuit.fanouts()``, which a copy-then-mutate
    child derives from its parent's map and
    :func:`repro.sta.update_timing` then reuses.  Every row left alone
    has unchanged fan-in rows and an unchanged gate, so the result
    equals :func:`simulate` bit for bit, padding bits included.

    Returns a fresh :class:`ValueStore` on the base store's row index
    (one matrix ``memcpy`` plus the changed rows); ``base_values`` is
    not mutated.  A base that does not cover this circuit's gate-ID set
    (gates added or removed since the base simulation) has no rows to
    reuse: the circuit is simulated in full.
    """
    if not base_values.covers(circuit):
        return simulate(circuit, vectors)
    fanouts = circuit.fanouts()
    index = base_values.index
    base = base_values.matrix
    matrix = base_values.fork_matrix()
    rows = value_rows(index)
    fanins = circuit.fanins
    cells = circuit.cells
    # Constants are the only negative IDs (R5): `gid >= 0` is
    # is_const() without a call per changed gate.
    heap = [gid for gid in set(changed) if gid >= 0]
    heapify(heap)
    queued = set(heap)
    while heap:
        gid = heappop(heap)
        cell = cells[gid]
        if cell == PI_CELL:
            continue
        words = _gate_words(cell, fanins[gid], matrix, rows)
        r = rows[gid]
        if words.tobytes() == base[r].tobytes():
            continue
        matrix[r] = words
        for fo in fanouts.get(gid, ()):
            if fo not in queued:
                queued.add(fo)
                heappush(heap, fo)
    return ValueStore(index, publish_array(matrix))


def po_words(circuit: Circuit, values: ValueStore) -> np.ndarray:
    """Stack PO rows into an ``(num_pos, num_words)`` array, PO order."""
    row = values.index.row
    return values.matrix[[row[po] for po in circuit.po_ids]]


def evaluate_single(circuit: Circuit, bits: Dict[int, int]) -> Dict[int, int]:
    """Reference scalar simulation of one input vector (test oracle).

    ``bits`` maps PI gate IDs to 0/1.  Returns 0/1 per gate ID.
    """
    out: Dict[int, int] = {CONST0: 0, CONST1: 1}
    for pi in circuit.pi_ids:
        out[pi] = int(bits[pi]) & 1
    for gid in circuit.topological_order():
        if circuit.is_pi(gid):
            continue
        fis = circuit.fanins[gid]
        if circuit.is_po(gid):
            out[gid] = out[fis[0]]
            continue
        function, _ = split_cell_name(circuit.cells[gid])
        out[gid] = FUNCTIONS[function].bit_eval([out[fi] for fi in fis])
    return out
