"""Incremental timing update after local netlist edits.

A LAC or a resize perturbs timing only from a few seeds: the gates whose
fan-in tuples or cells changed and every gate whose capacitive load
changed (the old and new switch drivers, or a resized gate's fan-ins).
:func:`update_timing` copies the parent report's arrays and seeds exactly
those rows into :func:`~repro.sta.store.walk_frontier`, which pops gates
in ascending gate ID (a topological order on the gid-topological
circuits the optimizers evaluate) and evaluates each with
:func:`~repro.sta.store.gate_timing`, the per-gate evaluation a full
:meth:`STAEngine.analyze` runs over every gate.  The walk goes on past a
gate only when its timing changed — the trick PrimeTime's incremental
mode uses to make optimization loops affordable, without ever touching
the untouched rows.

Results are **bit-identical** to a fresh :meth:`STAEngine.analyze`; the
equivalence is pinned by tests on randomly mutated circuits.  The walk's
changed-predicate is exact (no tolerance) and covers all four per-gate
outputs, which is what keeps that contract airtight.

The evaluator runs :func:`update_timing` once per child, on the first
read of the child's timing (see :class:`repro.core.fitness.CircuitEval`),
so a child whose timing is never read is never walked.
:func:`update_timing_batch`, a loop over it, has no caller in the
package; perfbench's tracer still binds it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..netlist import Circuit
from .analyzer import STAEngine, TimingReport
from .store import TimingIndex, walk_frontier


def _incremental_loads(
    engine: STAEngine,
    circuit: Circuit,
    previous: TimingReport,
    changed: Iterable[int],
    index: TimingIndex,
    fanouts: Dict[int, List[int]],
) -> np.ndarray:
    """Load array of ``circuit``, rederiving only perturbed drivers.

    A fan-in rewrite or cell swap at gate ``g`` perturbs the loads of
    ``g``'s old and new fan-ins only; every other row keeps the load
    ``previous`` recorded.  Runs under :func:`update_timing`'s
    precondition, so the parent's old fan-in tuples are readable as
    they were analyzed.  Accumulation order per driver matches
    :meth:`STAEngine._loads_array` exactly, so the resulting floats are
    bit-identical to a full recompute.
    """
    parent = previous.circuit
    loads = previous.load_a.copy()
    row = index.row
    parent_fanins = parent.fanins
    child_fanins = circuit.fanins
    drivers = set()
    for g in changed:
        drivers.update(parent_fanins.get(g, ()))
        drivers.update(child_fanins.get(g, ()))
    cells = circuit.cells
    lib_cell = engine.library.cell
    wire = engine.wire_cap_per_fanout
    po_load = engine.po_load
    is_po = circuit.is_po
    for d in drivers:
        if d < 0:
            continue
        total = 0.0
        for consumer in fanouts.get(d, ()):
            if is_po(consumer):
                pin_cap = po_load
            else:
                pin_cap = lib_cell(cells[consumer]).input_cap
            total += pin_cap + wire
        loads[row[d]] = total
    return loads


def update_timing(
    engine: STAEngine,
    circuit: Circuit,
    previous: TimingReport,
    changed_gates: Iterable[int],
) -> TimingReport:
    """Recompute timing after edits to ``changed_gates``' fan-ins/cells.

    Serves a copy-then-mutate child of the circuit ``previous``
    analyzed: a distinct object, the parent unmutated since the report,
    the same gate-ID set and the same PO list.  Any other input (an
    in-place edit, a parent mutated after its report, gates added or
    removed) returns :meth:`STAEngine.analyze`.  Callers list only gates
    whose fan-in tuple or library cell was rewritten; load changes are
    rederived around them.

    The child shares the parent's dense index and starts from copies of
    its five arrays; the changed rows and every row whose load changed
    seed :func:`~repro.sta.store.walk_frontier`, which takes consumers
    from the child's fan-out map (:meth:`Circuit.fanouts`, derived from
    the parent's and already memoized by the value walk).  The child
    must be gid-topological (every population member is): the walk pops
    gates in ascending gate ID, so the child builds no schedule of its
    own.
    """
    parent = previous.circuit
    if not (
        parent is not circuit
        and parent.version == previous.circuit_version
        and circuit.same_gid_set(parent)
        and circuit.po_ids == parent.po_ids
    ):
        return engine.analyze(circuit)
    changed: List[int] = list(changed_gates)
    index = circuit._cached("timing_index")
    if index is None:
        # The dense index depends only on the sorted gate-ID set and the
        # PO list, so the parent's is the child's: no per-child sort and
        # row-dict build in the hottest path of the optimizer.
        index = circuit._store("timing_index", previous.index)
    n = index.n
    fanouts = circuit.fanouts()
    loads = _incremental_loads(
        engine, circuit, previous, changed, index, fanouts
    )
    arr = previous.arrival_a.copy()
    slew = previous.slew_a.copy()
    depth = previous.unit_depth_a.copy()
    cf = previous.critical_fanin_a.copy()

    # Exact comparison: any load delta, however tiny, dirties the gate.
    dirty = loads[:n] != previous.load_a[:n]
    row_of = index.row
    for g in changed:
        r = row_of.get(g)
        if r is not None:
            dirty[r] = True
    walk_frontier(
        engine, circuit, index, fanouts, np.flatnonzero(dirty), loads,
        arr, slew, depth, cf,
    )
    return TimingReport(
        circuit, index, arr, slew, loads, depth, cf, circuit.version
    )


def update_timing_batch(
    engine: STAEngine,
    previous: TimingReport,
    children: Sequence[Tuple[Circuit, Iterable[int]]],
) -> List[TimingReport]:
    """Incremental timing for a group of children of one parent.

    ``children`` pairs each child circuit with its changed-gate set;
    each is retimed by its own :func:`update_timing` walk against the
    shared ``previous`` report.  Returns one report per child, in order.
    """
    return [
        update_timing(engine, circuit, previous, changed)
        for circuit, changed in children
    ]
