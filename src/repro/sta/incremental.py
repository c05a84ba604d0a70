"""Incremental timing update after local netlist edits.

A LAC or a resize perturbs timing only from a few seeds: the gates whose
fan-in tuples or cells changed and every gate whose capacitive load
changed (the old and new switch drivers, or a resized gate's fan-ins).
:func:`update_timing` copies the parent report's arrays and seeds exactly
those rows into :func:`~repro.sta.store.walk_frontier`, the timing loop
a full :meth:`STAEngine.analyze` runs over every gate.  Seeded, it pops
gates in ascending gate ID and goes on past a gate only when its timing
changed — the trick PrimeTime's incremental mode uses to make
optimization loops affordable.  Results are **bit-identical** to a fresh
:meth:`STAEngine.analyze` (pinned by tests on randomly mutated circuits).

The evaluator runs :func:`update_timing` once per child, on the first
read of the child's timing (see :class:`repro.core.fitness.CircuitEval`),
and post-optimization once per trial resize
(:func:`repro.postopt.resize_for_timing`).
:func:`update_timing_batch`, a loop over it, has no caller in the
package; perfbench's tracer still binds it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..netlist import Circuit
from .analyzer import STAEngine, TimingReport
from .store import walk_frontier


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
    from the child's fan-out map (:meth:`Circuit.fanouts`).  The child
    must be gid-topological (every population member is).
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
    # Only the changed gates' old and new fan-ins see a new load; the
    # parent is unmutated since its report, so its tuples are the old.
    drivers = set()
    for g in changed:
        drivers.update(parent.fanins.get(g, ()))
        drivers.update(circuit.fanins.get(g, ()))
    loads = previous.load_a.copy()
    engine._write_loads(circuit, drivers, loads, index.row)
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
        engine, circuit, index, loads, arr, slew, depth, cf,
        np.flatnonzero(dirty), circuit.fanouts(),
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
