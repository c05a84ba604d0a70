"""Structure-of-arrays timing store shared by all STA paths.

Timing results used to live in five per-gate Python dicts; copying them
per evaluation and pickling them across shard-worker pipes was the last
un-packed transport cost in the evaluation hot path.  This module is the
dense array replacement:

* :class:`TimingIndex` — a dense gate-id → row mapping (rows are the
  *sorted* gate IDs, so any two circuits over the same ID set agree on
  row numbering regardless of dict insertion order).  Memoized per
  circuit structure version alongside ``topological_order()``.
* :class:`TimingLevels` — the topological level of every row, the
  schedule :func:`walk_frontier` buckets its rows by.  Also memoized per
  structure version.
* :func:`walk_frontier` — the one arrival propagation: a level-ordered
  frontier walk over the arrays.  Full analysis seeds every row;
  incremental update seeds the rows an edit touched.
* :func:`lookup_many` — batched NLDM bilinear interpolation that is
  **bit-identical** to :meth:`NLDMTable.lookup` (same index selection,
  same IEEE-754 operation order), so vectorized and scalar propagation
  may be mixed freely without perturbing a single float.

Array layout contract: every timing array has ``index.n + 1`` rows; row
``index.row[gid]`` holds gate ``gid`` and the final row is the constant
source sentinel (arrival 0.0, slew = engine input slew, depth 0).  The
arrays are treated as read-only once a report is published — consumers
that need to mutate must copy (``update_timing`` does).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..netlist import Circuit, PI_CELL, PO_CELL

#: Cell groups at or above this size take the vectorized NLDM kernel;
#: smaller groups run the scalar lookup loop.  Both kernels are
#: bit-identical (pinned by tests), so this is a pure perf knob: thin
#: levels (ripple carry chains) stay scalar, wide levels vectorize.
VECTOR_MIN_GROUP = 8


class TimingIndex:
    """Dense gate-id → row index over one circuit structure.

    Attributes:
        gids: sorted gate IDs, one per row (``int64``).
        row: ``gid -> row`` lookup dict.
        po_rows: rows of the circuit's POs, in ``po_ids`` order.
        n: number of real rows (timing arrays carry ``n + 1`` — the
            extra row is the constant-source sentinel; value matrices
            carry ``n + 2``, one sentinel row per constant).
        vrow: lazily-built ``gid -> row`` map extended with the two
            constant value rows (see :func:`repro.sim.store.value_rows`;
            cached here because indices are shared parent → child).
    """

    __slots__ = ("gids", "row", "po_rows", "n", "vrow")

    def __init__(self, gids: np.ndarray, row: Dict[int, int], po_rows: np.ndarray):
        self.gids = gids
        self.row = row
        self.po_rows = po_rows
        self.n = int(len(gids))
        self.vrow: Optional[Dict[int, int]] = None


def timing_index(circuit: Circuit) -> TimingIndex:
    """The circuit's :class:`TimingIndex`, memoized per structure version."""
    cached = circuit._cached("timing_index")
    if cached is not None:
        return cached
    fanins = circuit.fanins
    gids = np.fromiter(fanins.keys(), dtype=np.int64, count=len(fanins))
    gids.sort()
    row = {int(g): i for i, g in enumerate(gids)}
    po_rows = np.fromiter(
        (row[p] for p in circuit.po_ids),
        dtype=np.int64,
        count=len(circuit.po_ids),
    )
    return circuit._store("timing_index", TimingIndex(gids, row, po_rows))


class TimingLevels:
    """Topological level assignment over one circuit structure.

    ``level_of[row]`` is one past the gate's deepest non-constant
    fan-in, so the gates of one level are independent of each other and
    :func:`walk_frontier` may evaluate them as one batch.
    """

    __slots__ = ("index", "level_of", "num_levels")

    def __init__(self, index: TimingIndex, level_of: np.ndarray, num_levels: int):
        self.index = index
        self.level_of = level_of
        self.num_levels = num_levels


def timing_levels(circuit: Circuit) -> TimingLevels:
    """The circuit's :class:`TimingLevels`, memoized per structure version."""
    cached = circuit._cached("timing_levels")
    if cached is not None:
        return cached
    index = timing_index(circuit)
    row = index.row
    fanins = circuit.fanins
    level = np.zeros(index.n, dtype=np.int32)
    for gid in circuit.topological_order():
        lv = 0
        for fi in fanins[gid]:
            if fi >= 0:
                cand = level[row[fi]] + 1
                if cand > lv:
                    lv = cand
        level[row[gid]] = lv
    num_levels = int(level.max()) + 1 if index.n else 0
    return circuit._store(
        "timing_levels", TimingLevels(index, level, num_levels)
    )


# ----------------------------------------------------------------------
# batched NLDM lookup
# ----------------------------------------------------------------------
#: Per-table float64 array cache, keyed by object id with a weakref
#: guard: id-keying avoids re-hashing the whole frozen table (its
#: generated __hash__ walks every float) on each hot-path call, the
#: stored weakref both detects id reuse and evicts entries when a table
#: is garbage-collected.
_TABLE_ARRAYS: Dict[int, Tuple[Any, Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


def _table_arrays(table) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table's axes/values as float64 arrays (tables are frozen)."""
    key = id(table)
    entry = _TABLE_ARRAYS.get(key)
    if entry is not None and entry[0]() is table:
        return entry[1]
    arrays = (
        np.asarray(table.slew_axis, dtype=np.float64),
        np.asarray(table.load_axis, dtype=np.float64),
        np.asarray(table.values, dtype=np.float64),
    )
    _TABLE_ARRAYS[key] = (
        weakref.ref(table, lambda _r, _k=key: _TABLE_ARRAYS.pop(_k, None)),
        arrays,
    )
    return arrays


def _locate(axis: np.ndarray, value: np.ndarray):
    """Vectorized :func:`_interp_index`: ``(lo_index, fraction)`` arrays.

    Matches the scalar implementation exactly, clamping included: an
    on-breakpoint value lands on the segment *below* it with fraction
    1.0, and out-of-range values clamp to fraction exactly 0.0 / 1.0.
    """
    idx = axis.searchsorted(value, side="left") - 1
    # minimum(maximum(...)) == clip for ints, without np.clip's per-call
    # dtype-limit setup — this runs once per frontier bucket.
    idx = np.minimum(np.maximum(idx, 0), axis.shape[0] - 2)
    frac = (value - axis[idx]) / (axis[idx + 1] - axis[idx])
    frac = np.where(value <= axis[0], 0.0, frac)
    frac = np.where(value >= axis[-1], 1.0, frac)
    return idx, frac


def lookup_many(table, slew: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Batched :meth:`NLDMTable.lookup`, bit-identical to the scalar path.

    ``slew`` and ``load`` broadcast against each other; the result takes
    the broadcast shape.  Every arithmetic step mirrors the scalar
    bilinear interpolation operation for operation, so mixing this with
    per-gate scalar lookups never changes a single bit.
    """
    s_ax, l_ax, vals = _table_arrays(table)
    i, fs = _locate(s_ax, np.asarray(slew))
    j, fl = _locate(l_ax, np.asarray(load))
    v00 = vals[i, j]
    v01 = vals[i, j + 1]
    v10 = vals[i + 1, j]
    v11 = vals[i + 1, j + 1]
    top = v00 * (1.0 - fl) + v01 * fl
    bot = v10 * (1.0 - fl) + v11 * fl
    return top * (1.0 - fs) + bot * fs


def eval_gates_vector(
    cell,
    a: np.ndarray,
    s: np.ndarray,
    d: np.ndarray,
    fg: np.ndarray,
    load: np.ndarray,
):
    """Vectorized first-wins max over many same-cell gates at once.

    ``a``/``s``/``d``/``fg`` are ``(P, k)`` gathers of the gates' fan-in
    rows (arrival, slew, depth, source gid; constants pre-gathered from
    the sentinel row with gid ``-1``) and ``load`` is the ``(P,)`` gate
    loads.  Returns ``(arrival, slew, depth, critical_fanin)`` arrays.

    Bit-identical to :func:`eval_gate_scalar` per gate: ``lookup_many``
    equals the scalar table walk operation for operation, and ``argmax``
    picks the *first* index attaining the maximum arrival, matching the
    scalar ``first or at > best`` scan.  :func:`walk_frontier` runs its
    wide groups through this kernel.
    """
    at = a + lookup_many(cell.arc.delay, s, load[:, None])
    j = np.argmax(at, axis=1)
    pick = np.arange(len(j))
    na = at[pick, j]
    ns = lookup_many(cell.arc.output_slew, s[pick, j], load)
    nd = d[pick, j] + 1
    ncf = fg[pick, j]
    return na, ns, nd, ncf


def eval_gate_scalar(cell, fan_timing, load: float, input_slew: float):
    """Scalar first-wins max over one gate's fan-ins.

    ``fan_timing`` is the gate's fan-ins in pin order as
    ``(arrival, slew, depth, src_gid)`` tuples (constants pre-mapped to
    ``(0.0, input_slew, 0, -1)``).  Returns
    ``(arrival, slew, depth, critical_fanin)`` for the gate.

    This is the ONE scalar counterpart of the vectorized group kernel;
    :func:`walk_frontier` runs every small group through it.
    """
    best = 0.0
    best_slew = input_slew
    best_depth = 0
    best_src = -1
    first = True
    for a, s, d, src in fan_timing:
        at = a + cell.delay(s, load)
        if first or at > best:
            best = at
            best_slew = cell.output_slew(s, load)
            best_depth = d
            best_src = src
            first = False
    return best, best_slew, best_depth + 1, best_src


def walk_frontier(
    engine,
    circuit: Circuit,
    index: TimingIndex,
    levels: TimingLevels,
    fanouts,
    seeds: np.ndarray,
    loads: np.ndarray,
    arr: np.ndarray,
    slew: np.ndarray,
    depth: np.ndarray,
    cf: np.ndarray,
) -> None:
    """Re-evaluate the ``seeds`` rows and every row they perturb, in place.

    The one arrival propagation behind both STA paths.  ``seeds`` holds
    unique rows; the walk visits them bucketed by ``levels`` (any valid
    stratification: every fan-in sits at a strictly lower level), so a
    gate is evaluated once, after all of its fan-ins.  A re-evaluated
    gate queues its consumers from ``fanouts`` (anything with a
    ``get(gid, default)``) when **any** of its four outputs (arrival,
    slew, unit depth, critical fan-in) changed, compared exactly: a
    tolerance would let floats drift from a fresh analysis, and
    stopping on arrival/slew alone would leave downstream depth and
    backtrace rows stale when a tie between fan-ins resolves
    differently.

    :meth:`STAEngine.analyze` seeds every row with an empty fan-out map
    (everything is already queued); :func:`update_timing` seeds the
    changed rows plus every row whose load changed.  Same-(cell, arity)
    groups of at least :data:`VECTOR_MIN_GROUP` gates in one bucket take
    :func:`eval_gates_vector`, the rest :func:`eval_gate_scalar` —
    bit-identical kernels, so the split is a pure speed choice.
    """
    n = index.n
    gids = index.gids
    row_of = index.row
    level_of = levels.level_of
    fanins_map = circuit.fanins
    cells_map = circuit.cells
    lib_cell = engine.library.cell
    input_slew = engine.input_slew
    queued = np.zeros(n, dtype=bool)
    queued[seeds] = True
    buckets: List[List[int]] = [[] for _ in range(levels.num_levels)]
    for r, lv in zip(seeds.tolist(), level_of[seeds].tolist()):
        buckets[lv].append(r)

    for bucket in buckets:
        if not bucket:
            continue
        if len(bucket) >= VECTOR_MIN_GROUP:
            groups: Dict[Tuple[str, int], List[int]] = {}
            rest: List[int] = []
            for r in bucket:
                gid = int(gids[r])
                cell_name = cells_map[gid]
                if cell_name == PI_CELL or cell_name == PO_CELL:
                    rest.append(r)
                else:
                    key = (cell_name, len(fanins_map[gid]))
                    groups.setdefault(key, []).append(r)
            for (cell_name, k), rows_list in groups.items():
                g = len(rows_list)
                if g < VECTOR_MIN_GROUP:
                    rest.extend(rows_list)
                    continue
                rows_a = np.array(rows_list, dtype=np.int64)
                frows = np.empty((g, k), dtype=np.int64)
                fgids = np.empty((g, k), dtype=np.int32)
                for i, r in enumerate(rows_list):
                    for j, fi in enumerate(fanins_map[int(gids[r])]):
                        if fi < 0:
                            frows[i, j] = n
                            fgids[i, j] = -1
                        else:
                            frows[i, j] = row_of[fi]
                            fgids[i, j] = fi
                na_v, ns_v, nd_v, ncf_v = eval_gates_vector(
                    lib_cell(cell_name),
                    arr[frows],
                    slew[frows],
                    depth[frows],
                    fgids,
                    loads[rows_a],
                )
                out_changed = (
                    (na_v != arr[rows_a])
                    | (ns_v != slew[rows_a])
                    | (nd_v != depth[rows_a])
                    | (ncf_v != cf[rows_a])
                )
                arr[rows_a] = na_v
                slew[rows_a] = ns_v
                depth[rows_a] = nd_v
                cf[rows_a] = ncf_v
                for i in np.flatnonzero(out_changed):
                    for fo in fanouts.get(int(gids[rows_list[i]]), ()):
                        fr = row_of[fo]
                        if not queued[fr]:
                            queued[fr] = True
                            buckets[level_of[fr]].append(fr)
            bucket = rest
        for r in bucket:
            gid = int(gids[r])
            cell_name = cells_map[gid]
            fis = fanins_map[gid]
            if cell_name == PI_CELL:
                na, ns, nd, ncf = 0.0, input_slew, 0, -1
            elif cell_name == PO_CELL:
                src = fis[0]
                if src < 0:
                    na, ns, nd, ncf = 0.0, input_slew, 0, -1
                else:
                    sr = row_of[src]
                    na = float(arr[sr])
                    ns = float(slew[sr])
                    nd = int(depth[sr])
                    ncf = src
            else:
                fan_timing = []
                for fi in fis:
                    if fi < 0:
                        fan_timing.append((0.0, input_slew, 0, -1))
                    else:
                        fr = row_of[fi]
                        fan_timing.append(
                            (
                                float(arr[fr]),
                                float(slew[fr]),
                                int(depth[fr]),
                                fi,
                            )
                        )
                na, ns, nd, ncf = eval_gate_scalar(
                    lib_cell(cell_name), fan_timing, float(loads[r]), input_slew
                )
            out_changed = (
                na != arr[r] or ns != slew[r] or nd != depth[r] or ncf != cf[r]
            )
            arr[r] = na
            slew[r] = ns
            depth[r] = nd
            cf[r] = ncf
            if out_changed:
                for fo in fanouts.get(gid, ()):
                    fr = row_of[fo]
                    if not queued[fr]:
                        queued[fr] = True
                        buckets[level_of[fr]].append(fr)
