"""Incremental timing update after local netlist edits.

A LAC or a resize perturbs timing only from a few seeds: the gates whose
fan-in tuples or cells changed and every gate whose capacitive load
changed (the old and new switch drivers, or a resized gate's fan-ins).
:func:`update_timing` starts from ``list()`` copies of the parent
report's tuples and seeds exactly those gates into
:func:`~repro.sta.store.walk_frontier`, the timing loop a full
:meth:`STAEngine.analyze` runs over every gate.  Seeded, it pops
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

    The child shares the parent's dense index and starts from ``list()``
    copies of its five tuples; the changed gates and every driver whose
    load changed seed :func:`~repro.sta.store.walk_frontier`, which
    takes consumers from the child's fan-out map
    (:meth:`Circuit.fanouts`), and the lists are published as tuples.
    The child shares every row object the walk did not rewrite with the
    parent, and every load outside the rederived drivers.  The child
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
    row_of = index.row
    # Only the changed gates' old and new fan-ins see a new load; the
    # parent is unmutated since its report, so its tuples are the old.
    drivers = set()
    for g in changed:
        drivers.update(parent.fanins.get(g, ()))
        drivers.update(circuit.fanins.get(g, ()))
    loads = list(previous.load_a)
    engine._write_loads(circuit, drivers, loads, row_of)
    # Exact comparison: any load delta, however tiny, seeds the driver.
    # ``_write_loads`` wrote only the drivers' rows (constants have
    # none), so no other load can differ from the parent's.
    old = previous.load_a
    seeds = {g for g in changed if g in row_of}
    seeds.update(
        d for d in drivers if d >= 0 and loads[row_of[d]] != old[row_of[d]]
    )
    arr = list(previous.arrival_a)
    slew = list(previous.slew_a)
    depth = list(previous.unit_depth_a)
    cf = list(previous.critical_fanin_a)
    walk_frontier(
        engine, circuit, index, loads, arr, slew, depth, cf,
        sorted(seeds), circuit.fanouts(),
    )
    return TimingReport(
        circuit, index, tuple(arr), tuple(slew), tuple(loads),
        tuple(depth), tuple(cf), circuit.version,
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
