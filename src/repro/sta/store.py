"""Structure-of-arrays timing store shared by all STA paths.

Timing results live in dense arrays, not per-gate dicts:

* :class:`TimingIndex` — a dense gate-id → row mapping (rows are the
  *sorted* gate IDs, so any two circuits over the same ID set agree on
  row numbering regardless of dict insertion order).  It is one of the
  circuit's structure memos (:meth:`Circuit._memo`): a child with a
  valid provenance record, the same gate-ID set and the same port
  lists takes its parent's index object.  Value matrices are laid out
  by the same index (:mod:`repro.sim.store`).
* :func:`walk_frontier` — the one per-gate timing loop: over every gate
  in topological order (the full pass, :meth:`STAEngine.analyze`), or
  seeded with the rows an edit touched, popping gates in ascending gate
  ID and stopping at every gate whose timing did not change (the
  incremental walk, :func:`update_timing`).  Its NLDM interpolation is
  **bit-identical** to :meth:`NLDMTable.lookup` (same index selection,
  same IEEE-754 operation order) while locating each table axis once
  per gate or fan-in instead of once per lookup.

Array layout contract: every timing array has ``index.n + 1`` rows; row
``index.row[gid]`` holds gate ``gid`` and the final row is the constant
source sentinel (arrival 0.0, slew = engine input slew, depth 0).  The
arrays are treated as read-only once a report is published — consumers
that need to mutate must copy (``update_timing`` does).  A report
never travels on its own, nor its index: the shard pool and pickling
move an eval's arrays and lay them on the receiving circuit's index (:func:`repro.core.fitness.eval_payload`, ``restore_eval``).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from operator import itemgetter
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

    def __eq__(self, other: object) -> bool:
        # ``row`` and ``vrow`` follow from ``gids``.
        if not isinstance(other, TimingIndex):
            return NotImplemented
        return np.array_equal(self.gids, other.gids) and np.array_equal(
            self.po_rows, other.po_rows
        )


def timing_index(circuit: Circuit) -> TimingIndex:
    """The circuit's :class:`TimingIndex`, memoized per structure version.

    The index depends only on the sorted gate-ID set and the PO list, so
    a derived child (see :meth:`Circuit._memo`) takes its parent's.
    """
    return circuit._memo(
        "timing_index",
        lambda: _build_index(circuit),
        lambda parent, changed: timing_index(parent),
    )


def _build_index(circuit: Circuit) -> TimingIndex:
    fanins = circuit.fanins
    gids = np.fromiter(fanins.keys(), dtype=np.int64, count=len(fanins))
    gids.sort()
    row = {int(g): i for i, g in enumerate(gids)}
    po_rows = np.fromiter(
        (row[p] for p in circuit.po_ids),
        dtype=np.int64,
        count=len(circuit.po_ids),
    )
    return TimingIndex(gids, row, po_rows)


#: Per-pass table entries of the two pseudo-cells (see walk_frontier).
_LAUNCH = "launch"
_MIRROR = "mirror"


def _drain(heap):
    """Pop ``heap`` empty in ascending order, items pushed meanwhile too."""
    while heap:
        yield heappop(heap)


def walk_frontier(
    engine,
    circuit: Circuit,
    index: TimingIndex,
    loads: np.ndarray,
    arr: np.ndarray,
    slew: np.ndarray,
    depth: np.ndarray,
    cf: np.ndarray,
    seeds: Optional[np.ndarray] = None,
    fanouts=None,
) -> None:
    """Evaluate gates into ``arr``, ``slew``, ``depth`` and ``cf``.

    Without ``seeds``: every gate, in :meth:`Circuit.topological_order`
    (any DAG).  With ``seeds`` (unique ascending rows, so their gate IDs
    form a heap): gates pop in ascending gate ID, a topological order on
    the gid-topological circuits :func:`update_timing` serves, and a gate
    queues its consumers from ``fanouts`` (anything with a ``get(gid,
    default)``) when **any** of its four outputs (arrival, slew, unit
    depth, critical fan-in) changed, compared exactly: a tolerance would
    let floats drift from a fresh analysis, and arrival/slew alone would
    leave depth and backtrace rows stale when a tie resolves differently.
    Either way a gate is evaluated once, after all of its fan-ins.

    A PI launches at 0 with the input slew, a PO mirrors its fan-in, and
    a logic gate takes the first-wins max of ``arrival + delay(slew,
    load)`` over its fan-ins and the winning arc's output slew.  A
    constant fan-in reads as ``(0.0, input_slew, 0)`` and is recorded as
    critical fan-in -1.  The load is located once per gate, each slew
    once per fan-in, the winner's slew is reused for the output slew
    (located again on the slew table's own axes when the arc's tables
    do not share them), and the locate and bilinear arithmetic are
    :func:`_interp_index`'s and :meth:`NLDMTable.lookup`'s, operation for
    operation.  Tables come from ``TimingArc.loop_tables`` through a
    per-pass dict; a cell missing from the library raises
    ``Library.cell``'s ``KeyError``.  The loop runs on Python lists (one
    ``tolist()`` per array) and writes the rows it evaluated back.
    """
    row_of = index.row
    fanins_map = circuit.fanins
    cells_map = circuit.cells
    lib_cell = engine.library.cell
    input_slew = engine.input_slew
    tables = {PI_CELL: _LAUNCH, PO_CELL: _MIRROR}
    arr_l, slew_l = arr.tolist(), slew.tolist()
    depth_l, cf_l, load_l = depth.tolist(), cf.tolist(), loads.tolist()
    if seeds is None:
        gates = circuit.topological_order()
    else:
        heap = index.gids[seeds].tolist()
        queued = set(heap)
        gates = _drain(heap)
    touched = []
    for gid in gates:
        r = row_of[gid]
        name = cells_map[gid]
        k = tables.get(name)
        if k is None:
            k = tables[name] = lib_cell(name).arc.loop_tables
        if k is _LAUNCH:
            na, ns, nd, ncf = 0.0, input_slew, 0, -1
        elif k is _MIRROR:
            src = fanins_map[gid][0]
            if src < 0:
                na, ns, nd, ncf = 0.0, input_slew, 0, -1
            else:
                sr = row_of[src]
                na, ns, nd, ncf = arr_l[sr], slew_l[sr], depth_l[sr], src
        else:
            sax, s_lo, s_hi, s_top, lax, l_lo, l_hi, l_top, dv, ov, own = k
            load = load_l[r]
            if load <= l_lo:
                j, fl = 0, 0.0
            elif load >= l_hi:
                j, fl = l_top, 1.0
            else:
                j = bisect_left(lax, load) - 1
                fl = (load - lax[j]) / (lax[j + 1] - lax[j])
            gl = 1.0 - fl
            na = 0.0
            win = None
            for fi in fanins_map[gid]:
                if fi < 0:
                    a, s = 0.0, input_slew
                else:
                    fr = row_of[fi]
                    a, s = arr_l[fr], slew_l[fr]
                if s <= s_lo:
                    i, fs = 0, 0.0
                elif s >= s_hi:
                    i, fs = s_top, 1.0
                else:
                    i = bisect_left(sax, s) - 1
                    fs = (s - sax[i]) / (sax[i + 1] - sax[i])
                lo, hi = dv[i], dv[i + 1]
                at = a + (
                    (lo[j] * gl + lo[j + 1] * fl) * (1.0 - fs)
                    + (hi[j] * gl + hi[j + 1] * fl) * fs
                )
                if win is None or at > na:
                    # Separate stores: a tuple assignment costs more here.
                    na = at
                    win = fi
                    ws = s
                    wi = i
                    wfs = fs
            if win is None:
                ns, nd, ncf = input_slew, 1, -1
            else:
                if win < 0:
                    nd, ncf = 1, -1
                else:
                    nd, ncf = depth_l[row_of[win]] + 1, win
                if own is not None:
                    wi, wfs = _interp_index(own[0], ws)
                    j, fl = _interp_index(own[1], load)
                    gl = 1.0 - fl
                lo, hi = ov[wi], ov[wi + 1]
                ns = (lo[j] * gl + lo[j + 1] * fl) * (1.0 - wfs) + (
                    hi[j] * gl + hi[j + 1] * fl
                ) * wfs
        if seeds is not None and (
            na != arr_l[r]
            or ns != slew_l[r]
            or nd != depth_l[r]
            or ncf != cf_l[r]
        ):
            for fo in fanouts.get(gid, ()):
                if fo not in queued:
                    queued.add(fo)
                    heappush(heap, fo)
        arr_l[r] = na
        slew_l[r] = ns
        depth_l[r] = nd
        cf_l[r] = ncf
        touched.append(r)
    if touched:
        rows = np.array(touched)
        pick = itemgetter(*touched)
        arr[rows], slew[rows] = pick(arr_l), pick(slew_l)
        depth[rows], cf[rows] = pick(depth_l), pick(cf_l)
