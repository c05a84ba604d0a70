"""Bit-parallel logic simulation over fan-in adjacency circuits.

A gate's value row is one Python int whose bit ``k`` is vector ``k``,
so a gate is one or two big-int ``&``, ``|`` or ``^`` operations over
its fan-in rows, every vector at once: the workhorse behind error
estimation (the paper's VECBEE role) and output-similarity tables.
:func:`simulate` evaluates every gate of any DAG into a
:class:`~repro.sim.store.ValueStore`; :func:`resimulate_cone`, the
incremental walk, re-evaluates only the rows a change changes and needs
a gid-topological circuit (:meth:`Circuit.gid_order_topo`).
:func:`po_words` packs PO rows into the uint64 words the metrics read.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List

import numpy as np

from ..cells import FUNCTIONS, split_cell_name
from ..netlist import CONST0, CONST1, PI_CELL, PO_CELL, Circuit
from ..sta.store import timing_index
from .store import ValueStore, value_rows
from .vectors import VectorSet

#: Cell name -> its function's name, so each cell name is parsed once;
#: a name that fails to parse is not stored.  The function itself is
#: looked up in ``FUNCTIONS`` per call.
_FUNCTION_OF: Dict[str, str] = {}


def _gate_words(cell: str, fis, values: List[int], rows, ones: int) -> int:
    """One PO or logic gate's value row, the one gate evaluation of
    :func:`simulate` and :func:`resimulate_cone`: a PO mirrors its
    fan-in, a logic gate applies its cell function to the fan-in rows
    (``ones`` is the CONST1 row).  An unparsable cell name raises
    ``ValueError``."""
    if cell == PO_CELL:
        return values[rows[fis[0]]]
    function = _FUNCTION_OF.get(cell)
    if function is None:
        function = _FUNCTION_OF[cell] = split_cell_name(cell)[0]
    return FUNCTIONS[function].word_eval(
        [values[rows[fi]] for fi in fis], ones
    )


def simulate(circuit: Circuit, vectors: VectorSet) -> ValueStore:
    """Simulate all gates; returns the value store.

    PIs take rows of ``vectors`` in ``circuit.pi_ids`` order, each
    packed into one int of ``vectors.num_vectors`` bits; POs mirror
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
    ones = (1 << vectors.num_vectors) - 1
    values = [0] * (index.n + 2)
    values[index.n + 1] = ones
    rows = value_rows(index)
    for pi, words in zip(circuit.pi_ids, vectors.words):
        row = int.from_bytes(
            words.astype("<u8", copy=False).tobytes(), "little"
        )
        values[rows[pi]] = row & ones
    # Local bindings: this loop visits every gate of every fully
    # evaluated candidate, so attribute/property lookups are hoisted.
    fanins = circuit.fanins
    cells = circuit.cells
    for gid in circuit.topological_order():
        cell = cells[gid]
        if cell != PI_CELL:
            values[rows[gid]] = _gate_words(
                cell, fanins[gid], values, rows, ones
            )
    return ValueStore(index, tuple(values))


def resimulate_cone(
    circuit: Circuit,
    vectors: VectorSet,
    base_values: ValueStore,
    changed: Iterable[int],
) -> ValueStore:
    """Re-evaluate the ``changed`` gates and only the rows they change.

    ``base_values`` must come from a simulation, on ``vectors``, of a
    parent that differs from ``circuit`` only in the fan-in tuples or
    cells of the ``changed`` gates.  The walk seeds the changed gates
    and pops rows in ascending gate ID, a topological order because
    ``circuit`` must be gid-topological (every population member is).
    A popped row whose new int equals the parent's stops there; any
    other row queues its consumers from ``circuit.fanouts()`` (a
    copy-then-mutate child derives that map from its parent's, and
    :func:`repro.sta.update_timing` reuses it).  The result equals
    :func:`simulate` bit for bit.

    The returned store is on the base store's row index and shares
    every row object whose value did not change; ``base_values`` is not
    mutated.  A base that does not cover this circuit's gate-ID set
    (gates added or removed) has no rows to reuse: the circuit is
    simulated in full.
    """
    if not base_values.covers(circuit):
        return simulate(circuit, vectors)
    fanouts = circuit.fanouts()
    base = base_values.rows
    values = list(base)
    ones = base[-1]
    rows = value_rows(base_values.index)
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
        row = _gate_words(cell, fanins[gid], values, rows, ones)
        r = rows[gid]
        if row == base[r]:
            continue
        values[r] = row
        for fo in fanouts.get(gid, ()):
            if fo not in queued:
                queued.add(fo)
                heappush(heap, fo)
    return ValueStore(base_values.index, tuple(values))


def po_words(circuit: Circuit, values: ValueStore) -> np.ndarray:
    """The PO rows as an ``(num_pos, num_words)`` uint64 matrix, PO order.

    Bit ``k % 64`` of word ``k // 64`` of a PO's row is vector ``k``,
    the :class:`~repro.sim.vectors.VectorSet` packing; the padding bits
    past ``num_vectors`` are 0.  Each row is laid out little-endian, so
    the matrix does not depend on the host's byte order.
    """
    row, rows = values.index.row, values.rows
    num_words = (values.num_vectors + 63) // 64
    width = 8 * num_words
    packed = b"".join(
        [rows[row[po]].to_bytes(width, "little") for po in circuit.po_ids]
    )
    return np.frombuffer(packed, dtype="<u8").reshape(-1, num_words)


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
