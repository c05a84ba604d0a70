"""Structure-of-arrays timing store shared by all STA paths.

Timing results used to live in five per-gate Python dicts; copying them
per evaluation and pickling them across shard-worker pipes was the last
un-packed transport cost in the evaluation hot path.  This module is the
dense array replacement:

* :class:`TimingIndex` — a dense gate-id → row mapping (rows are the
  *sorted* gate IDs, so any two circuits over the same ID set agree on
  row numbering regardless of dict insertion order).  Memoized per
  circuit structure version alongside ``topological_order()``.
* :func:`gate_timing` — the one per-gate timing evaluation, shared by
  the full pass (:meth:`STAEngine.analyze`, every gate in topological
  order) and the incremental walk.
* :func:`walk_frontier` — the incremental walk: seeded with the rows an
  edit touched, it pops gates in ascending gate ID and stops at every
  gate whose timing did not change.
* :func:`eval_gate_scalar` — the one logic-gate kernel: NLDM bilinear
  interpolation that is **bit-identical** to :meth:`NLDMTable.lookup`
  (same index selection, same IEEE-754 operation order) while locating
  each table axis once per gate or fan-in instead of once per lookup.

Array layout contract: every timing array has ``index.n + 1`` rows; row
``index.row[gid]`` holds gate ``gid`` and the final row is the constant
source sentinel (arrival 0.0, slew = engine input slew, depth 0).  The
arrays are treated as read-only once a report is published — consumers
that need to mutate must copy (``update_timing`` does).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Optional

import numpy as np

from ..cells.timing_model import _interp_index
from ..netlist import Circuit, PI_CELL, PO_CELL


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


def eval_gate_scalar(cell, fan_timing, load: float, input_slew: float):
    """First-wins max over one gate's fan-ins, one axis locate each.

    ``fan_timing`` is the gate's fan-ins in pin order as
    ``(arrival, slew, depth, src_gid)`` tuples (constants pre-mapped to
    ``(0.0, input_slew, 0, -1)``).  Returns
    ``(arrival, slew, depth, critical_fanin)`` for the gate.

    Equal, float for float, to scanning the fan-ins with
    ``a + cell.delay(s, load)`` and taking ``cell.output_slew(s, load)``
    at every improvement (first fan-in wins ties): the gate's load is
    located on the load axis once, each fan-in's slew on the slew axis
    once, and the output slew is looked up for the winning arc only,
    reusing its located slew.  The bilinear interpolation is
    :meth:`NLDMTable.lookup`'s, operation for operation.  A cell whose
    two tables have different axes (``TimingArc.shared_axes`` false)
    locates the winner again on the output-slew table's own axes.
    """
    arc = cell.arc
    table = arc.delay
    vals = table.values
    slew_axis = table.slew_axis
    j, fl = _interp_index(table.load_axis, load)
    gl = 1.0 - fl
    best = 0.0
    best_depth = 0
    best_src = -1
    win = None
    for a, s, d, src in fan_timing:
        i, fs = _interp_index(slew_axis, s)
        lo = vals[i]
        hi = vals[i + 1]
        top = lo[j] * gl + lo[j + 1] * fl
        bot = hi[j] * gl + hi[j + 1] * fl
        at = a + (top * (1.0 - fs) + bot * fs)
        if win is None or at > best:
            best = at
            win = (s, i, fs)
            best_depth = d
            best_src = src
    if win is None:
        return best, input_slew, best_depth + 1, best_src
    s, i, fs = win
    table = arc.output_slew
    if not arc.shared_axes:
        i, fs = _interp_index(table.slew_axis, s)
        j, fl = _interp_index(table.load_axis, load)
        gl = 1.0 - fl
    lo = table.values[i]
    hi = table.values[i + 1]
    top = lo[j] * gl + lo[j + 1] * fl
    bot = hi[j] * gl + hi[j + 1] * fl
    return best, top * (1.0 - fs) + bot * fs, best_depth + 1, best_src


def gate_timing(
    engine,
    circuit: Circuit,
    index: TimingIndex,
    loads: np.ndarray,
    arr: np.ndarray,
    slew: np.ndarray,
    depth: np.ndarray,
):
    """The one per-gate timing evaluation behind both STA passes.

    Returns ``timing(gid, r)``: the ``(arrival, slew, depth,
    critical_fanin)`` of gate ``gid`` at row ``r``, read from its
    fan-ins' rows of ``arr``, ``slew`` and ``depth`` and from its load
    ``loads[r]``.  A PI launches at 0 with the engine's input slew, a
    PO mirrors its single fan-in, and a logic gate takes
    :func:`eval_gate_scalar`; constant fan-ins read as
    ``(0.0, input_slew, 0, -1)``.  :meth:`STAEngine.analyze` calls it
    in topological order and :func:`walk_frontier` in ascending gate
    ID, so every fan-in row is final when it is read.
    """
    row_of = index.row
    fanins_map = circuit.fanins
    cells_map = circuit.cells
    lib_cell = engine.library.cell
    input_slew = engine.input_slew
    source = (0.0, input_slew, 0, -1)

    def timing(gid: int, r: int):
        cell_name = cells_map[gid]
        fis = fanins_map[gid]
        if cell_name == PI_CELL:
            return source
        if cell_name == PO_CELL:
            src = fis[0]
            if src < 0:
                return source
            sr = row_of[src]
            return float(arr[sr]), float(slew[sr]), int(depth[sr]), src
        fan_timing = []
        for fi in fis:
            if fi < 0:
                fan_timing.append(source)
            else:
                fr = row_of[fi]
                fan_timing.append(
                    (float(arr[fr]), float(slew[fr]), int(depth[fr]), fi)
                )
        return eval_gate_scalar(
            lib_cell(cell_name), fan_timing, float(loads[r]), input_slew
        )

    return timing


def walk_frontier(
    engine,
    circuit: Circuit,
    index: TimingIndex,
    fanouts,
    seeds: np.ndarray,
    loads: np.ndarray,
    arr: np.ndarray,
    slew: np.ndarray,
    depth: np.ndarray,
    cf: np.ndarray,
) -> None:
    """Re-evaluate the ``seeds`` rows and every row they perturb, in place.

    :func:`update_timing`'s arrival propagation.  ``seeds`` holds unique
    rows in ascending order, so their gate IDs already form a heap; the
    walk pops gates in ascending gate ID, which is a topological order
    because ``circuit`` must be gid-topological (every population
    member is), so a gate is evaluated once, after all of its fan-ins,
    by :func:`gate_timing`.  A re-evaluated gate queues its consumers
    from ``fanouts`` (anything with a ``get(gid, default)``) when
    **any** of its four outputs (arrival, slew, unit depth, critical
    fan-in) changed, compared exactly: a tolerance would let floats
    drift from a fresh analysis, and stopping on arrival/slew alone
    would leave downstream depth and backtrace rows stale when a tie
    between fan-ins resolves differently.
    """
    row_of = index.row
    timing = gate_timing(engine, circuit, index, loads, arr, slew, depth)
    heap = index.gids[seeds].tolist()
    queued = set(heap)
    while heap:
        gid = heappop(heap)
        r = row_of[gid]
        na, ns, nd, ncf = timing(gid, r)
        out_changed = (
            na != arr[r] or ns != slew[r] or nd != depth[r] or ncf != cf[r]
        )
        arr[r] = na
        slew[r] = ns
        depth[r] = nd
        cf[r] = ncf
        if out_changed:
            for fo in fanouts.get(gid, ()):
                if fo not in queued:
                    queued.add(fo)
                    heappush(heap, fo)
