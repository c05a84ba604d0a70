"""Timing store shared by all STA paths: one tuple per quantity.

Timing results live in five tuples on a dense row index, not per-gate
dicts:

* :class:`TimingIndex` — a dense gate-id → row mapping (rows are the
  *sorted* gate IDs, so any two circuits over the same ID set agree on
  row numbering regardless of dict insertion order).  It is one of the
  circuit's structure memos (:meth:`Circuit._memo`): a child with a
  valid provenance record, the same gate-ID set and the same port
  lists takes its parent's index object.  Value rows are laid out by
  the same index (:mod:`repro.sim.store`).
* :func:`walk_frontier` — the one per-gate timing loop: over every gate
  in topological order (the full pass, :meth:`STAEngine.analyze`), or
  seeded with the gates an edit touched, popping gates in ascending gate
  ID and stopping at every gate whose timing did not change (the
  incremental walk, :func:`update_timing`).  Its NLDM interpolation is
  **bit-identical** to :meth:`NLDMTable.lookup` (same index selection,
  same IEEE-754 operation order) while locating each table axis once
  per gate or fan-in instead of once per lookup.

Row layout contract: every timing tuple has ``index.n + 1`` rows; row
``index.row[gid]`` holds gate ``gid`` and the final row is the constant
source sentinel (arrival 0.0, slew = engine input slew, depth 0).  The
walk writes into lists, and a report publishes them as tuples, so a
published report refuses writes by type; ``update_timing`` starts from
``list()`` copies of the parent's tuples.  A report never travels on
its own, nor its index: the shard pool and pickling move an eval's
tuples and lay them on the receiving circuit's index
(:func:`repro.core.fitness.eval_payload`, ``restore_eval``).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..cells.timing_model import _interp_index
from ..netlist import Circuit, PI_CELL, PO_CELL


class TimingIndex:
    """Dense gate-id → row index over one circuit structure.

    Attributes:
        gids: sorted gate IDs, one per row (a tuple).
        row: ``gid -> row`` lookup dict.
        po_rows: rows of the circuit's POs, in ``po_ids`` order (a
            tuple).
        n: number of real rows (timing tuples carry ``n + 1`` — the
            extra row is the constant-source sentinel; a value store
            has ``n + 2`` rows, one sentinel row per constant).
        vrow: lazily-built ``gid -> row`` map extended with the two
            constant value rows (see :func:`repro.sim.store.value_rows`;
            cached here because indices are shared parent → child).
    """

    __slots__ = ("gids", "row", "po_rows", "n", "vrow")

    def __init__(
        self,
        gids: Tuple[int, ...],
        row: Dict[int, int],
        po_rows: Tuple[int, ...],
    ):
        self.gids = gids
        self.row = row
        self.po_rows = po_rows
        self.n = len(gids)
        self.vrow: Optional[Dict[int, int]] = None

    def __eq__(self, other: object) -> bool:
        # ``row`` and ``vrow`` follow from ``gids``.
        if not isinstance(other, TimingIndex):
            return NotImplemented
        return self.gids == other.gids and self.po_rows == other.po_rows


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
    gids = tuple(sorted(circuit.fanins))
    row = {g: i for i, g in enumerate(gids)}
    return TimingIndex(gids, row, tuple([row[p] for p in circuit.po_ids]))


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
    loads: List[float],
    arr: List[float],
    slew: List[float],
    depth: List[int],
    cf: List[int],
    seeds: Optional[List[int]] = None,
    fanouts=None,
) -> None:
    """Evaluate gates into the lists ``arr``, ``slew``, ``depth`` and
    ``cf``, laid out by ``index``, reading each gate's load from
    ``loads``.

    Without ``seeds``: every gate, in :meth:`Circuit.topological_order`
    (any DAG).  With ``seeds`` (unique gate IDs in ascending order, so
    the list is a heap, which the walk consumes): gates pop in ascending
    gate ID, a topological order on the gid-topological circuits
    :func:`update_timing` serves, and a gate queues its consumers from
    ``fanouts`` (anything with a ``get(gid, default)``) when **any** of
    its four outputs (arrival, slew, unit depth, critical fan-in)
    changed, compared exactly: a tolerance would let floats drift from a
    fresh analysis, and arrival/slew alone would leave depth and
    backtrace rows stale when a tie resolves differently.  Either way a
    gate is evaluated once, after all of its fan-ins.

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
    ``Library.cell``'s ``KeyError``.
    """
    row_of = index.row
    fanins_map = circuit.fanins
    cells_map = circuit.cells
    lib_cell = engine.library.cell
    input_slew = engine.input_slew
    tables = {PI_CELL: _LAUNCH, PO_CELL: _MIRROR}
    if seeds is None:
        gates = circuit.topological_order()
    else:
        heap = seeds
        queued = set(heap)
        gates = _drain(heap)
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
                na, ns, nd, ncf = arr[sr], slew[sr], depth[sr], src
        else:
            sax, s_lo, s_hi, s_top, lax, l_lo, l_hi, l_top, dv, ov, own = k
            load = loads[r]
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
                    a, s = arr[fr], slew[fr]
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
                    nd, ncf = depth[row_of[win]] + 1, win
                if own is not None:
                    wi, wfs = _interp_index(own[0], ws)
                    j, fl = _interp_index(own[1], load)
                    gl = 1.0 - fl
                lo, hi = ov[wi], ov[wi + 1]
                ns = (lo[j] * gl + lo[j + 1] * fl) * (1.0 - wfs) + (
                    hi[j] * gl + hi[j + 1] * fl
                ) * wfs
        if seeds is not None and (
            na != arr[r]
            or ns != slew[r]
            or nd != depth[r]
            or ncf != cf[r]
        ):
            for fo in fanouts.get(gid, ()):
                if fo not in queued:
                    queued.add(fo)
                    heappush(heap, fo)
        arr[r] = na
        slew[r] = ns
        depth[r] = nd
        cf[r] = ncf
