"""Incremental timing update after local netlist edits.

A LAC or a resize perturbs timing only in a cone: the gates whose fan-in
tuples changed, every gate whose capacitive load changed (the old and new
switch drivers, or a resized gate's fan-ins), and their transitive
fan-out.  :func:`update_timing` copies the parent report's arrays and
seeds exactly those rows into :func:`~repro.sta.store.walk_frontier`, the
same level-ordered walk a full :meth:`STAEngine.analyze` runs with every
row seeded — the trick PrimeTime's incremental mode uses to make
optimization loops affordable, without ever touching the untouched rows.

Results are **bit-identical** to a fresh :meth:`STAEngine.analyze`; the
equivalence is pinned by tests on randomly mutated circuits.  The walk's
changed-predicate is exact (no tolerance) and covers all four per-gate
outputs, which is what keeps that contract airtight.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..netlist import Circuit
from .analyzer import STAEngine, TimingReport
from .store import TimingIndex, TimingLevels, walk_frontier


class _PatchedFanouts:
    """The parent's memoized fan-out map with per-driver overrides.

    A copy-then-mutate child's fan-out lists differ from its parent's
    only for drivers touched by the changed gates' fan-in rewrites;
    rebuilding the whole O(V+E) map per child was the last per-child
    schedule build in the incremental hot path.  Only ``get`` is
    exposed — exactly what the load rederivation and the frontier walk
    consume.
    """

    __slots__ = ("base", "overrides")

    def __init__(self, base, overrides):
        self.base = base
        self.overrides = overrides

    def get(self, key, default=()):
        hit = self.overrides.get(key)
        if hit is not None:
            return hit
        return self.base.get(key, default)


def _shared_fanouts(
    circuit: Circuit,
    previous: TimingReport,
    changed: Iterable[int],
):
    """The child's fan-out map, patched from the parent's.

    Runs under :func:`update_timing`'s precondition (the parent object
    is distinct, unmutated since its report, and shares the gate-ID
    set).  Consumer lists are reconstructed in the child's fan-in dict
    order (copies preserve the parent's insertion order, and a stable
    sort on the parent's position map restores it after membership
    edits), so the float accumulation order in the load rederivation —
    and therefore every load bit — matches a from-scratch
    :meth:`Circuit.fanouts` build.
    """
    parent = previous.circuit
    cached = circuit._cached("fanouts")
    if cached is not None:
        return cached
    parent_fo = parent.fanouts()
    parent_fanins = parent.fanins
    child_fanins = circuit.fanins
    changed_set = set()
    affected = set()
    for g in changed:
        if g < 0:
            continue
        changed_set.add(g)
        pf = parent_fanins.get(g, ())
        cf = child_fanins.get(g, ())
        if pf != cf:
            affected.update(pf)
            affected.update(cf)
    if not affected:
        return parent_fo
    pos = parent._cached("fanins_pos")
    if pos is None:
        pos = parent._store(
            "fanins_pos", {g: i for i, g in enumerate(parent_fanins)}
        )
    overrides = {}
    for d in affected:
        if d < 0:
            continue  # constant sources carry no load row
        base = parent_fo.get(d, ())
        # Multiplicity matters: a driver feeding two pins of one gate
        # appears twice in the consumer list (two pin loads).
        cons = [c for c in base if c not in changed_set]
        for g in changed_set:
            occ = child_fanins[g].count(d)
            if occ:
                cons.extend([g] * occ)
        cons.sort(key=pos.__getitem__)
        overrides[d] = cons
    return _PatchedFanouts(parent_fo, overrides)


def _incremental_loads(
    engine: STAEngine,
    circuit: Circuit,
    previous: TimingReport,
    changed: Iterable[int],
    index: TimingIndex,
    fanouts,
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
    removed) returns :meth:`STAEngine.analyze` — the same walk with
    every row seeded.  Callers list only gates whose fan-in tuple or
    library cell was rewritten; load changes are rederived around them.

    The child shares the parent's dense index and starts from copies of
    its five arrays; the changed rows and every row whose load changed
    seed :func:`~repro.sta.store.walk_frontier`.  The child must be
    gid-topological (every population member is): the walk runs on the
    parent's memoized levels when the child's rewired fan-ins respect
    them (every LAC does — switches come from the TFI), else on the
    sorted-gid rows, so the child never pays an O(V+E) schedule build
    of its own.
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
    fanouts = _shared_fanouts(circuit, previous, changed)
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
    seeds = np.flatnonzero(dirty)
    if len(seeds):
        walk_frontier(
            engine,
            circuit,
            index,
            _schedule(previous, circuit, index, changed),
            fanouts,
            seeds,
            loads,
            arr,
            slew,
            depth,
            cf,
        )
    return TimingReport(
        circuit, index, arr, slew, loads, depth, cf, circuit.version
    )


def _schedule(
    previous: TimingReport,
    circuit: Circuit,
    index: TimingIndex,
    changed: List[int],
) -> TimingLevels:
    """The level schedule a child's walk runs on.

    The parent's *already-memoized* level assignment when it is still a
    valid stratification of the child (every *rewired* fan-in sits at a
    strictly lower parent level — LACs always qualify: switches come
    from the target's TFI); otherwise one row per level over the
    sorted-gid rows, which the gid-topological child makes a valid
    stratification with no O(V+E) build at all.  The walk's results
    are schedule-independent: every gate is evaluated after its
    fan-ins either way.
    """
    plevels = previous.circuit._cached("timing_levels")
    if plevels is not None and _shared_levels_valid(
        plevels.level_of, index.row, circuit, changed
    ):
        return plevels
    n = index.n
    return TimingLevels(index, np.arange(n, dtype=np.int32), n)


def _shared_levels_valid(
    level_of: np.ndarray,
    row_of: Dict[int, int],
    circuit: Circuit,
    changed: Iterable[int],
) -> bool:
    """Can the parent's level schedule drive this child's dirty cone?

    Only the *changed* gates can have rewired fan-ins; every one of
    them (and each of its non-constant fan-ins) must exist in the
    parent index with the fan-in at a strictly lower level.  Unchanged
    gates carry the parent's edges and are valid by construction, and
    every LAC passes (switches come from the target's TFI).
    """
    fanins = circuit.fanins
    for gid in changed:
        if gid < 0:
            continue
        rg = row_of.get(gid)
        fis = fanins.get(gid)
        if rg is None or fis is None:
            return False
        lg = level_of[rg]
        for fi in fis:
            if fi < 0:
                continue
            rf = row_of.get(fi)
            if rf is None or level_of[rf] >= lg:
                return False
    return True


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
