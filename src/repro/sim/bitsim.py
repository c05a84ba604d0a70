"""Bit-parallel logic simulation over fan-in adjacency circuits.

Evaluates every gate on a packed :class:`~repro.sim.vectors.VectorSet` in
topological order; 64 Monte-Carlo vectors advance per word operation.
This is the workhorse behind error estimation (the paper's VECBEE role)
and output-similarity tables.

Values live in the structure-of-arrays :class:`~repro.sim.store.ValueStore`
(one dense uint64 matrix laid out by the shared timing row index).
:func:`simulate` accepts any DAG; :func:`resimulate_cone` requires a
gid-topological circuit (see :meth:`Circuit.gid_order_topo`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import numpy as np

from ..analysis.sanitize import publish_array
from ..cells import FUNCTIONS, split_cell_name
from ..netlist import CONST0, CONST1, PI_CELL, PO_CELL, Circuit
from .store import ValueStore, value_rows, value_store_index
from .vectors import VectorSet

def _eval_schedule(
    circuit: Circuit,
    vectors: VectorSet,
    matrix: np.ndarray,
    rows: Dict[int, int],
    schedule: Iterable[int],
) -> None:
    """Fill the PI rows from ``vectors``, then evaluate ``schedule``.

    The one gate loop behind :func:`simulate` (every gate, topological
    order) and :func:`resimulate_cone` (the dirty cone).  PIs take rows
    of ``vectors`` in ``circuit.pi_ids`` order; POs mirror their single
    fan-in.  ``schedule`` must list every gate after its fan-ins.
    """
    for i, pi in enumerate(circuit.pi_ids):
        matrix[rows[pi]] = vectors.words[i]
    # Local bindings: this loop visits every gate of every evaluated
    # candidate, so attribute/property lookups are hoisted out.
    fanins = circuit.fanins
    cells = circuit.cells
    for gid in schedule:
        cell = cells[gid]
        if cell == PI_CELL:
            continue
        fis = fanins[gid]
        if cell == PO_CELL:
            matrix[rows[gid]] = matrix[rows[fis[0]]]
            continue
        function, _ = split_cell_name(cell)
        matrix[rows[gid]] = FUNCTIONS[function].word_eval(
            [matrix[rows[fi]] for fi in fis]
        )


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
    store = ValueStore.allocate(
        value_store_index(circuit), vectors.num_words
    )
    _eval_schedule(
        circuit,
        vectors,
        store.matrix,
        value_rows(store.index),
        circuit.topological_order(),
    )
    publish_array(store.matrix)
    return store


def resimulate_cone(
    circuit: Circuit,
    vectors: VectorSet,
    base_values: ValueStore,
    changed: Iterable[int],
    dirty: Optional[Set[int]] = None,
) -> ValueStore:
    """Incrementally re-evaluate only the TFO of ``changed`` gates.

    ``base_values`` must come from a simulation of a circuit identical to
    ``circuit`` outside the fan-out cones of ``changed``.  This is the
    incremental trick VECBEE uses to make batch LAC evaluation cheap: an
    approximate change only perturbs its transitive fan-out.

    Returns a fresh :class:`ValueStore`; ``base_values`` is not mutated.
    The result shares the base store's row index — one matrix
    ``memcpy`` plus the dirty rows — and the dirty rows evaluate in
    sorted-gid order, so ``circuit`` must be gid-topological (every
    population member is).  A base that does not cover this circuit's
    gate-ID set (gates added or removed since the base simulation) has
    no rows to reuse: the circuit is simulated in full.

    ``dirty`` optionally supplies the precomputed TFO of ``changed``
    (callers holding the parent's memoized cones pass it; see
    :func:`repro.core.fitness._evaluate_cones`).
    """
    if not base_values.covers(circuit):
        return simulate(circuit, vectors)
    if dirty is None:
        dirty = set()
        for gid in changed:
            # Constants are the only negative IDs (R5): `gid >= 0` is
            # is_const() without a call per changed gate.
            if gid >= 0:
                dirty |= circuit.transitive_fanout(gid, include_self=True)
    index = base_values.index
    matrix = base_values.fork_matrix()
    matrix[index.n] = 0
    matrix[index.n + 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
    _eval_schedule(circuit, vectors, matrix, value_rows(index), sorted(dirty))
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
