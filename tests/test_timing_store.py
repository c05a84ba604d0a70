"""Structure-of-arrays timing store: layout, the gate kernel, and the
stale-propagation bugfixes in incremental STA.

Four contracts are pinned here:

* the SoA analyzer is **bit-identical** to the historical per-gate
  scalar walk (a verbatim port of which lives in this file as the
  reference), on thin and wide circuits, and on a library whose delay
  and output-slew tables have different axes;
* the timing loop's one-locate gate evaluation equals the two-lookup
  first-wins scan bit for bit on on-grid, out-of-range, random interior
  and tied points, and records a constant fan-in as critical fan-in -1;
* ``update_timing`` propagates whenever **any** of a gate's four
  outputs changed, compared exactly — the tie-resolution and
  tolerance-drift bugs both lived in that predicate (a constant-delay
  tie library reproduces them deterministically and property-style) —
  and stops at a gate whose outputs did not change;
* the transport contract: an eval travels as its raw arrays (and, when
  pickled or shipped by the pool, its fields) and is laid on one row
  index of the receiving circuit, which its report and values share.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from heapq import heappop

import numpy as np
import pytest

from eval_oracle import assert_matches_full_evaluation
from reference_circuits import (
    build_adder,
    build_consumers_first_circuit,
    build_fig3_circuit,
    build_wide_circuit,
)

from repro.analysis.sanitize import SanitizerError
from repro.cells import FUNCTIONS, Cell, Library, cell_name, default_library
from repro.cells.timing_model import (
    LinearTimingSpec,
    NLDMTable,
    TimingArc,
    characterize,
)
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    applied_copy,
    circuit_reproduce,
    evaluate,
    evaluate_batch,
    evaluate_incremental,
    is_safe,
)
from repro.core.fitness import DepthMode
from repro.core.fitness import (
    eval_fields,
    eval_payload,
    rebuild_eval,
    restore_eval,
)
from repro.netlist import CONST1, Circuit, CircuitBuilder, is_const
from repro.sim import ErrorMode, value_rows
from repro.sta import (
    STAEngine,
    timing_index,
    update_timing,
    update_timing_batch,
)
from repro.sta import store
from repro.sta.store import walk_frontier


# ----------------------------------------------------------------------
# scalar reference: a verbatim port of the pre-SoA dict implementation
# ----------------------------------------------------------------------
def _scalar_analyze(engine, circuit):
    loads = {gid: 0.0 for gid in circuit.fanins}
    for gid, fis in circuit.fanins.items():
        if circuit.is_po(gid):
            pin_cap = engine.po_load
        elif circuit.is_pi(gid):
            continue
        else:
            pin_cap = engine.library.cell(circuit.cells[gid]).input_cap
        for fi in fis:
            if is_const(fi):
                continue
            loads[fi] += pin_cap + engine.wire_cap_per_fanout
    arrival, slew, depth, critical_fanin = {}, {}, {}, {}

    def source_timing(gid):
        if is_const(gid):
            return 0.0, engine.input_slew, 0
        return arrival[gid], slew[gid], depth[gid]

    for gid in circuit.topological_order():
        if circuit.is_pi(gid):
            arrival[gid] = 0.0
            slew[gid] = engine.input_slew
            depth[gid] = 0
            critical_fanin[gid] = None
            continue
        fis = circuit.fanins[gid]
        if circuit.is_po(gid):
            a, s, d = source_timing(fis[0])
            arrival[gid] = a
            slew[gid] = s
            depth[gid] = d
            critical_fanin[gid] = None if is_const(fis[0]) else fis[0]
            continue
        cell = engine.library.cell(circuit.cells[gid])
        load = loads[gid]
        best_arr, best_slew, best_src, best_depth = 0.0, engine.input_slew, None, 0
        first = True
        for fi in fis:
            a, s, d = source_timing(fi)
            arr = a + cell.delay(s, load)
            if first or arr > best_arr:
                best_arr = arr
                best_slew = cell.output_slew(s, load)
                best_src = None if is_const(fi) else fi
                best_depth = d
                first = False
        arrival[gid] = best_arr
        slew[gid] = best_slew
        depth[gid] = best_depth + 1
        critical_fanin[gid] = best_src
    return loads, arrival, slew, depth, critical_fanin


# Named wrappers: the parametrized test IDs below carry these names.
def _wide_circuit():
    return build_wide_circuit()


def _consumers_first_circuit():
    return build_consumers_first_circuit()


def _assert_reports_equal(circuit, got, loads, arrival, slew, depth, cf):
    for gid in circuit.gate_ids():
        r = got.index.row[gid]
        assert got.load_a[r] == loads[gid], gid
        assert got.arrival_a[r] == arrival[gid], gid
        assert got.slew_a[r] == slew[gid], gid
        assert got.unit_depth_a[r] == depth[gid], gid
        want_cf = -1 if cf[gid] is None else cf[gid]  # -1 encodes none
        assert got.critical_fanin_a[r] == want_cf, gid


def _assert_same_timing(circuit, a, b):
    for gid in circuit.gate_ids():
        i, j = a.index.row[gid], b.index.row[gid]
        assert a.arrival_a[i] == b.arrival_a[j], gid
        assert a.slew_a[i] == b.slew_a[j], gid
        assert a.load_a[i] == b.load_a[j], gid
        assert a.unit_depth_a[i] == b.unit_depth_a[j], gid
        assert a.critical_fanin_a[i] == b.critical_fanin_a[j], gid


class TestAnalyzeBitIdentity:
    """SoA propagation == the historical scalar walk, bit for bit."""

    @pytest.mark.parametrize(
        "build",
        [
            build_fig3_circuit,
            lambda: build_adder(8),
            _wide_circuit,
            # Pins that the full walk never assumes gate-ID order.
            _consumers_first_circuit,
        ],
    )
    def test_matches_scalar_reference(self, library, build):
        circuit = build()
        engine = STAEngine(library)
        report = engine.analyze(circuit)
        _assert_reports_equal(
            circuit, report, *_scalar_analyze(engine, circuit)
        )

    def test_kernel_matches_two_lookup_scan(self, library, tie_library):
        rng = random.Random(7)
        cells = library.cells()[::3] + tie_library.cells()
        for cell in cells:
            table = cell.arc.delay
            slews = (
                list(table.slew_axis)
                + [0.01, 1.0, 5000.0]
                + [rng.uniform(2.0, 300.0) for _ in range(6)]
            )
            loads = (
                list(table.load_axis)
                + [0.0, 0.1, 900.0]
                + [rng.uniform(0.2, 64.0) for _ in range(6)]
            )
            for load in loads:
                for _ in range(4):
                    fan_timing = _random_fan_timing(rng, cell, slews)
                    assert _loop_gate(
                        cell, fan_timing, load, 10.0
                    ) == _two_lookup_scan(cell, fan_timing, load, 10.0)
            assert _loop_gate(cell, [], 1.0, 10.0) == (0.0, 10.0, 1, -1)

    def test_kernel_first_fanin_wins_exact_ties(self, tie_library):
        cell = tie_library.cell("AND2D1")
        tied = [(4.0, 10.0, 2, 7), (4.0, 10.0, 5, 9)]
        assert _loop_gate(cell, tied, 1.5, 10.0) == (5.0, 10.0, 3, 7)
        assert _two_lookup_scan(cell, tied, 1.5, 10.0) == (5.0, 10.0, 3, 7)

    def test_constant_fanin_winning_a_tie_is_recorded_as_none(
        self, tie_library
    ):
        # CONST1 is ID -2; the loop records any constant as -1 ("none"),
        # in the full pass and in the incremental walk alike.
        engine = _tie_engine(tie_library)
        b = CircuitBuilder("const-tie")
        p, q = b.pis(2)
        g = b.and2(CONST1, p)  # both arcs arrive at 1.0: an exact tie
        h = b.and2(q, p)
        b.pos([g, h])
        circuit = b.done()
        report = engine.analyze(circuit)
        rg, rh = report.index.row[g], report.index.row[h]
        assert report.critical_fanin_a[rg] == -1
        assert report.critical_path(circuit.po_ids[0]) == [
            g, circuit.po_ids[0]
        ]
        assert report.critical_fanin_a[rh] == q
        child = circuit.copy()
        child.set_fanins(h, (CONST1, p))
        inc = update_timing(engine, child, report, [h])
        assert inc.critical_fanin_a[rh] == -1
        _assert_same_timing(child, inc, engine.analyze(child))


class TestMixedAxesLibrary:
    """A cell whose delay and output-slew tables are indexed by
    different axes (as a Liberty-parsed library may be) locates each
    table on its own axes: analyze and update_timing still equal the
    historical scalar walk bit for bit."""

    @pytest.mark.parametrize(
        "build", [lambda: build_adder(8), _wide_circuit]
    )
    def test_analyze_matches_scalar_reference(self, build):
        library = _mixed_axes_library()
        assert not any(c.arc.shared_axes for c in library.cells())
        circuit = build()
        engine = STAEngine(library)
        _assert_reports_equal(
            circuit,
            engine.analyze(circuit),
            *_scalar_analyze(engine, circuit),
        )

    def test_update_timing_matches_scalar_reference(self):
        library = _mixed_axes_library()
        engine = STAEngine(library)
        circuit = build_adder(8)
        rng = random.Random(11)
        report = engine.analyze(circuit)
        for _ in range(8):
            child = _random_lac_child(circuit, rng)
            inc = update_timing(engine, child, report, _changed_of(child))
            _assert_reports_equal(
                child, inc, *_scalar_analyze(engine, child)
            )
        resized = circuit.copy()
        gid = resized.logic_ids()[5]
        resized.set_cell(gid, library.upsize(resized.cells[gid]).name)
        inc = update_timing(engine, resized, report, [gid])
        _assert_reports_equal(
            resized, inc, *_scalar_analyze(engine, resized)
        )


def _two_lookup_scan(cell, fan_timing, load, input_slew):
    """The first-wins fan-in scan of ``_scalar_analyze``: one delay
    lookup per arc and one output-slew lookup per improvement."""
    best_arr, best_slew, best_src, best_depth = 0.0, input_slew, -1, 0
    first = True
    for a, s, d, src in fan_timing:
        arr = a + cell.delay(s, load)
        if first or arr > best_arr:
            best_arr = arr
            best_slew = cell.output_slew(s, load)
            best_src = src
            best_depth = d
            first = False
    return best_arr, best_slew, best_depth + 1, best_src


def _loop_gate(cell, fan_timing, load, input_slew):
    """The timing loop's result for one gate of ``cell`` at ``load``.

    The gate's fan-ins are PIs whose rows carry ``fan_timing``'s
    ``(arrival, slew, depth)`` (a ``src`` of -1 is a constant fan-in);
    the walk is seeded with the gate alone.  Returns ``(arrival, slew,
    depth, critical_fanin)`` with the critical PI mapped back to its
    ``src``, as :func:`_two_lookup_scan` reports it.
    """
    engine = STAEngine(Library("one-cell", [cell]), input_slew=input_slew)
    circuit = Circuit("one-gate")
    fanins = [-1 if src < 0 else circuit.add_pi() for *_, src in fan_timing]
    gid = circuit.add_gate(cell.name, fanins)
    circuit.add_po(gid)
    index = timing_index(circuit)
    n = index.n
    arr = np.zeros(n + 1)
    slew = np.full(n + 1, input_slew)
    depth = np.zeros(n + 1, dtype=np.int32)
    cf = np.full(n + 1, -1, dtype=np.int32)
    srcs = {-1: -1}
    for fi, (a, s, d, src) in zip(fanins, fan_timing):
        if fi >= 0:
            r = index.row[fi]
            arr[r], slew[r], depth[r] = a, s, d
            srcs[fi] = src
    loads = np.zeros(n + 1)
    r = index.row[gid]
    loads[r] = load
    walk_frontier(
        engine, circuit, index, loads, arr, slew, depth, cf,
        np.array([r]), {},
    )
    return float(arr[r]), float(slew[r]), int(depth[r]), srcs[int(cf[r])]


def _random_fan_timing(rng, cell, slews):
    """One gate's fan-ins: ``cell.arity`` of them with slews drawn from
    ``slews``, some constants, and arrivals from a small grid so equal
    arrivals (and, in a constant-delay library, exact ties) occur."""
    fan_timing = []
    for pin in range(cell.arity):
        if rng.random() < 0.15:
            fan_timing.append((0.0, 10.0, 0, -1))
        else:
            fan_timing.append(
                (
                    rng.choice([0.0, 4.0, 8.0, rng.uniform(0.0, 40.0)]),
                    rng.choice(slews),
                    rng.randrange(6),
                    100 + pin,
                )
            )
    return fan_timing


def _mixed_axes_library():
    """The default library's functions with delay and output-slew
    tables characterised on different axes (lengths differ as well)."""
    cells = []
    for cell in default_library().cells():
        scale = cell.area + cell.input_cap
        arc = TimingArc(
            delay=characterize(
                LinearTimingSpec(intrinsic=6.0 * scale, resistance=2.5),
                slew_axis=(4.0, 12.0, 30.0, 70.0, 150.0, 320.0),
                load_axis=(0.4, 1.5, 3.0, 7.0, 15.0, 40.0),
            ),
            output_slew=characterize(
                LinearTimingSpec(
                    intrinsic=3.0 * scale,
                    resistance=1.9,
                    slew_sensitivity=0.18,
                    cross=0.03,
                ),
                slew_axis=(5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 250.0),
                load_axis=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            ),
        )
        cells.append(dataclasses.replace(cell, arc=arc))
    return Library("mixed-axes", cells)


class TestStoreLayout:
    def test_rows_are_sorted_gids(self, library, adder8):
        report = STAEngine(library).analyze(adder8)
        gids = report.index.gids
        assert list(gids) == sorted(adder8.fanins)
        # one sentinel row past the real ones
        assert len(report.arrival_a) == report.index.n + 1
        assert report.critical_fanin_a.dtype == np.int32
        assert report.unit_depth_a.dtype == np.int32

    def test_mapping_views_behave_like_dicts(self, library, fig3):
        # Per-gate reads go through the index's gid -> row dict, which
        # covers every gate and nothing else.
        report = STAEngine(library).analyze(fig3)
        row = report.index.row
        assert set(row.keys()) == set(fig3.fanins)
        assert len(report.slew_a) == len(fig3.fanins) + 1  # + sentinel
        assert 5 in row and -1 not in row
        assert row.get(987654) is None
        assert {g: report.unit_depth_a[r] for g, r in row.items()} == {
            g: report.unit_depth_a[row[g]] for g in fig3.fanins
        }
        for pi in fig3.pi_ids:
            assert report.critical_fanin_a[row[pi]] == -1
        with pytest.raises(KeyError):
            report.arrival_a[row[987654]]

    def test_index_memoized_per_version(self, fig3):
        idx = timing_index(fig3)
        assert timing_index(fig3) is idx
        fig3.substitute(5, -1)
        assert timing_index(fig3) is not idx

    def test_empty_po_cpd_and_depth_consistent(self, library):
        b = CircuitBuilder()
        a = b.pi("a")
        b.gate("INV", a)
        report = STAEngine(library).analyze(b.done())
        with pytest.raises(ValueError, match="no POs"):
            _ = report.cpd
        with pytest.raises(ValueError, match="no POs"):
            _ = report.max_unit_depth


class TestTransport:
    def _child_eval(self, library):
        circuit = build_adder(6)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.ER, num_vectors=128, seed=3
        )
        parent = ctx.reference_eval()
        child = applied_copy(circuit, LAC(circuit.logic_ids()[4], -1))
        return ctx, evaluate_incremental(ctx, child, parent)

    def test_pack_unpack_round_trip(self, library):
        ctx, ev = self._child_eval(library)
        shipped = (ev.circuit, eval_payload(ev), eval_fields(ev))
        clone = rebuild_eval(ctx, *pickle.loads(pickle.dumps(shipped)))
        assert clone.report.circuit is clone.circuit
        assert clone.fitness == ev.fitness
        assert clone.report.cpd == ev.report.cpd
        assert clone.report.critical_path() == ev.report.critical_path()
        _assert_same_timing(ev.circuit, clone.report, ev.report)

    def test_eval_pickle_builds_one_index(self, library, monkeypatch):
        _, ev = self._child_eval(library)
        raw = pickle.dumps(ev)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        built = []
        init = store.TimingIndex.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(store.TimingIndex, "__init__", counted)
        clone = pickle.loads(raw)
        assert len(built) == 1
        assert (
            clone.values.index
            is clone.report.index
            is timing_index(clone.circuit)
        )
        assert eval_fields(clone) == eval_fields(ev)
        assert clone.circuit_version == ev.circuit_version
        _assert_same_timing(ev.circuit, clone.report, ev.report)
        assert clone.values.rows == ev.values.rows
        timing = eval_payload(clone)[:5]
        assert not any(a.flags.writeable for a in timing)
        assert type(eval_payload(clone)[5]) is tuple  # read-only by type

    def test_shipped_metrics_are_checked_under_the_sanitizer(
        self, library, monkeypatch
    ):
        ctx, ev = self._child_eval(library)
        shipped = (ev.circuit, eval_payload(ev), eval_fields(ev))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        clone = rebuild_eval(ctx, *pickle.loads(pickle.dumps(shipped)))
        assert eval_fields(clone) == eval_fields(ev)
        circuit, payload, (depth, area, *rest) = pickle.loads(
            pickle.dumps(shipped)
        )
        with pytest.raises(SanitizerError, match="shipped fields"):
            rebuild_eval(ctx, circuit, payload, (depth, area + 1.0, *rest))

    def test_payload_that_does_not_fit_is_refused(self, library):
        """``restore_eval`` raises ``ValueError`` on arrays that do not
        fit the receiving circuit's row index, and on anything that is
        not a payload at all."""
        _, ev = self._child_eval(library)
        short = tuple(a[:-1] for a in eval_payload(ev))
        with pytest.raises(ValueError, match="does not fit"):
            restore_eval(ev.circuit.copy(), short, eval_fields(ev))
        with pytest.raises(ValueError, match="not an evaluation payload"):
            restore_eval(ev.circuit.copy(), None, eval_fields(ev))

    def test_reply_ships_only_the_rows_its_walk_changed(self, library):
        """Against the parent it was walked from, a payload leaves out
        (as ``None``) every row the eval shares with that parent, and
        ``rebuild_eval`` fills them back from the parent the circuit's
        provenance record matches."""
        ctx, ev = self._child_eval(library)
        parent = ctx.reference_eval()
        payload = eval_payload(ev, parent)
        pairs = enumerate(zip(ev.values.rows, parent.values.rows))
        changed = {r for r, (row, was) in pairs if row is not was}
        assert 0 < len(changed) < len(payload[5])
        kept = {r for r, row in enumerate(payload[5]) if row is not None}
        assert kept == changed
        shipped = pickle.loads(pickle.dumps((payload, eval_fields(ev))))
        # The receiver's own copy of the child, provenance intact; a
        # pickled copy has none, so nothing fills the left-out rows.
        lac = LAC(ctx.reference.logic_ids()[4], -1)
        twin = applied_copy(ctx.reference, lac)
        orphan = pickle.loads(pickle.dumps(twin))
        with pytest.raises(ValueError, match="does not fit"):
            rebuild_eval(ctx, orphan, *shipped, (parent,))
        clone = rebuild_eval(ctx, twin, *shipped, (parent,))
        assert clone.values.rows == ev.values.rows
        assert eval_fields(clone) == eval_fields(ev)
        # An eval on a row index of its own ships every row.
        full = evaluate(ctx, pickle.loads(pickle.dumps(ev.circuit)))
        assert full.values.index is not parent.values.index
        assert eval_payload(full, parent)[5] is full.values.rows

    def test_pack_ships_raw_arrays(self, library):
        _, ev = self._child_eval(library)
        payload = eval_payload(ev)
        assert all(
            isinstance(a, np.ndarray) for a in payload[:5]
        )  # no per-gate dicts cross the pipe


class TestReferenceReportStaleness:
    def test_in_place_mutation_invalidates_reference_report(self, library):
        circuit = build_adder(4)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.ER, num_vectors=128, seed=0
        )
        before = ctx.reference_eval()
        assert before.report is ctx.reference_report
        # Mutate the reference in place: object identity of the stale
        # report's circuit still matches, only the version differs.
        gid = circuit.logic_ids()[0]
        circuit.set_cell(gid, library.upsize(circuit.cells[gid]).name)
        after = ctx.reference_eval()
        assert after.report is not before.report
        assert after.report.circuit_version == circuit.version
        fresh = ctx.sta.analyze(circuit)
        _assert_same_timing(circuit, after.report, fresh)

    def test_logic_mutation_refreshes_reference_values(self, library):
        # A logic-changing in-place edit stales the simulated baselines
        # too, not just the timing report: the rebuilt reference eval
        # must have zero error against its own refreshed PO words.
        circuit = build_adder(4)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.ER, num_vectors=128, seed=0
        )
        ctx.reference_eval()
        stale_po = ctx.reference_po
        circuit.substitute(circuit.logic_ids()[1], -1)
        after = ctx.reference_eval()
        assert ctx.reference_po is not stale_po
        assert after.error == 0.0
        # the refreshed value store covers every gate (plus const rows)
        assert set(circuit.fanins) <= set(value_rows(after.values.index))
        # Eq. 8 baselines follow the mutated reference: the whole eval
        # must equal what a freshly built context computes.
        fresh_ctx = EvalContext.build(
            circuit, library, ErrorMode.ER, num_vectors=128, seed=0
        )
        fresh = fresh_ctx.reference_eval()
        assert ctx.depth_ori == fresh_ctx.depth_ori
        assert ctx.area_ori == fresh_ctx.area_ori
        assert ctx.cpd_ori == fresh_ctx.cpd_ori
        assert after.fitness == fresh.fitness
        assert after.fd == fresh.fd and after.fa == fresh.fa


# ----------------------------------------------------------------------
# tie-heavy propagation: the stale unit_depth / critical_fanin bugfix
# ----------------------------------------------------------------------
def _const_table(value: float) -> NLDMTable:
    return NLDMTable(
        (5.0, 10.0), (1.0, 2.0), ((value, value), (value, value))
    )


def _const_cell(function: str, drive: int, delay: float) -> Cell:
    """A cell with load/slew-independent delay and constant 10 ps slew."""
    return Cell(
        name=cell_name(function, drive),
        function=FUNCTIONS[function],
        drive=drive,
        area=1.0,
        input_cap=1.0,
        arc=TimingArc(
            delay=_const_table(delay), output_slew=_const_table(10.0)
        ),
        max_load=64.0,
    )


@pytest.fixture(scope="module")
def tie_library():
    """Equal-delay cells: arrivals tie exactly between equal-level paths."""
    return Library(
        "tie",
        [
            _const_cell("BUF", 1, 2.0),
            _const_cell("BUF", 2, 4.0),  # one D2 hop == two D1 hops
            _const_cell("AND2", 1, 1.0),
            _const_cell("OR2", 1, 2.0),
            _const_cell("INV", 1, 2.0),
        ],
    )


def _tie_engine(tie_library):
    return STAEngine(tie_library, wire_cap_per_fanout=0.0)


def _random_tie_circuit(rng):
    """Layered same-delay DAG: every same-level pair ties exactly."""
    b = CircuitBuilder("tieprop")
    signals = b.pis(6)
    for _ in range(4):
        layer = []
        for _ in range(6):
            fn = rng.choice(["AND2", "OR2"])
            a, c = rng.sample(signals, 2)
            layer.append(b.gate(fn, a, c) if fn == "AND2" else b.or2(a, c))
        signals = layer
    b.pos(signals[:4])
    return b.done()


class TestTiePropagation:
    def _tie_circuit(self):
        """Two exactly-tied paths of different unit depth into one gate."""
        b = CircuitBuilder("tie")
        p = b.pi("p")
        x1 = b.gate("BUF", p)  # arr 2, depth 1
        x2 = b.gate("BUF", x1)  # arr 4, depth 2
        y1 = b.gate("BUF", p, drive=2)  # arr 4, depth 1 -- exact tie
        g = b.and2(x2, y1)  # winner x2 (first), depth 3
        h = b.gate("BUF", g)  # depth 4
        b.po(h, "y")
        return b.done(), x2, y1, p, g, h

    def test_tie_flip_propagates_depth_downstream(self, tie_library):
        circuit, x2, y1, p, g, h = self._tie_circuit()
        x1 = circuit.fanins[x2][0]
        engine = _tie_engine(tie_library)
        previous = engine.analyze(circuit)
        rg, rh = previous.index.row[g], previous.index.row[h]
        assert previous.critical_fanin_a[rg] == x2  # first fan-in wins ties
        assert previous.max_unit_depth == 4
        child = circuit.copy()
        # Shorten path A upstream of g: only x2 is in the changed set, so
        # g is *not* a seed — it is recomputed purely because its fan-in
        # x2's arrival dropped.  At g the tie resolves to y1 with the
        # arrival and slew exactly unchanged; only unit_depth and
        # critical_fanin flip, which the old arrival/slew-only predicate
        # swallowed, leaving h and the PO stale.
        changed = child.substitute(x1, p)
        assert changed == [x2] and g not in changed
        inc = update_timing(engine, child, previous, changed)
        full = engine.analyze(child)
        _assert_same_timing(child, inc, full)
        assert inc.index is previous.index  # same gid set, same rows
        assert inc.arrival_a[rg] == previous.arrival_a[rg]  # the tie held
        assert inc.critical_fanin_a[rg] == y1
        assert inc.unit_depth_a[rg] == 2
        assert inc.unit_depth_a[rh] == 3  # stale value would be 4
        assert inc.max_unit_depth == 3
        assert inc.critical_path() == [p, y1, g, h, child.po_ids[0]]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_property_random_edits_match_full(self, tie_library, seed):
        rng = random.Random(seed)
        circuit = _random_tie_circuit(rng)
        engine = _tie_engine(tie_library)
        report = engine.analyze(circuit)
        for _ in range(8):
            logic = circuit.logic_ids()
            rng.shuffle(logic)
            lac = None
            for target in logic:
                cands = [
                    c
                    for c in circuit.transitive_fanin(target)
                    if not circuit.is_po(c)
                ] + [-1, -2]
                rng.shuffle(cands)
                for switch in cands:
                    cand = LAC(target=target, switch=switch)
                    if is_safe(circuit, cand):
                        lac = cand
                        break
                if lac is not None:
                    break
            assert lac is not None
            child = circuit.copy()
            changed = child.substitute(lac.target, lac.switch)
            inc = update_timing(engine, child, report, changed)
            full = engine.analyze(child)
            _assert_same_timing(child, inc, full)
            circuit, report = child, inc

    @pytest.mark.parametrize(
        "depth_mode", [DepthMode.UNIT, DepthMode.DELAY]
    )
    def test_eval_equivalence_under_ties(self, tie_library, depth_mode):
        rng = random.Random(5)
        circuit = _random_tie_circuit(rng)
        ctx = EvalContext.build(
            circuit,
            tie_library,
            ErrorMode.ER,
            num_vectors=128,
            seed=5,
            depth_mode=depth_mode,
            sta=_tie_engine(tie_library),
        )
        parent = ctx.reference_eval()
        for target in circuit.logic_ids()[::3]:
            lac = LAC(target=target, switch=-1)
            if not is_safe(circuit, lac):
                continue
            child = applied_copy(circuit, lac)
            inc = evaluate_incremental(ctx, child, parent)
            full = evaluate(ctx, child)
            assert inc.fitness == full.fitness
            assert inc.depth == full.depth
            assert inc.report.max_unit_depth == full.report.max_unit_depth
            _assert_same_timing(child, inc.report, full.report)


class TestLevelReuse:
    """A child reuses its parent's row index, and never a parent
    mutated after its report."""

    def test_lac_child_reuses_parent_index(self, library):
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[3], -1)
        inc = update_timing(engine, child, previous, changed)
        # Same gid set: the child shares the parent's index object.
        assert inc.index is previous.index

    def test_parent_mutated_after_report_falls_back(self, library):
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[3], -1)
        # Mutate the parent *after* the report: it no longer has the
        # structure the report was computed for.
        circuit.set_cell(circuit.logic_ids()[0], "AND2D2")
        inc = update_timing(engine, child, previous, changed)
        _assert_same_timing(child, inc, engine.analyze(child))

    def test_parent_rewired_after_report_falls_back(self, library):
        # Structural (fan-in) mutation of the parent after the report:
        # the incremental load rederivation must not read the parent's
        # post-mutation adjacency as if it were the analyzed one.
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        child = circuit.copy()
        target = child.logic_ids()[5]
        changed = child.substitute(target, -1)
        circuit.substitute(target, -2)  # parent rewired in place
        inc = update_timing(engine, child, previous, changed)
        _assert_same_timing(child, inc, engine.analyze(child))


class TestFrontierStopRule:
    """``update_timing``'s walk stops at a gate whose four outputs are
    unchanged: the gate's fan-out cone is neither evaluated nor
    queued."""

    def test_unchanged_gate_stops_the_walk(self, library, monkeypatch):
        circuit = build_adder(8)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        gid = 20
        assert circuit.cells[gid].startswith("MAJ3")
        assert len(circuit.transitive_fanout(gid)) == 19
        row = previous.index.row
        arrivals = [previous.arrival_a[row[f]] for f in circuit.fanins[gid]]
        # One fan-in arrives last, so it wins under any pin order.
        assert arrivals.count(max(arrivals)) == 1
        child = circuit.copy()
        fis = child.fanins[gid]
        child.fanins[gid] = fis[1:] + fis[:1]  # rotate the pins
        popped = []

        def counting(heap):
            popped.append(heap[0])
            return heappop(heap)

        # Every gate the walk evaluates is popped from its heap once.
        monkeypatch.setattr(store, "heappop", counting)
        inc = update_timing(engine, child, previous, [gid])
        # The seed only: a walk that never stops evaluates its cone too.
        assert popped == [gid]
        _assert_same_timing(child, inc, engine.analyze(child))


class TestSeededRunsStillIdentical:
    def test_unit_depth_mode_incremental_identity(self, library):
        """DepthMode.UNIT end-to-end: the mode the stale-depth bug hit."""
        circuit = build_adder(6)

        def build():
            ctx = EvalContext.build(
                circuit,
                library,
                ErrorMode.ER,
                num_vectors=128,
                seed=9,
                depth_mode=DepthMode.UNIT,
            )
            cfg = DCGWOConfig(population_size=4, imax=3, seed=21)
            return DCGWO(ctx, 0.05, cfg)

        assert_matches_full_evaluation(build)


# ----------------------------------------------------------------------
# group timing (update_timing_batch) and group evaluation vs analyze
# ----------------------------------------------------------------------
def _random_lac_child(circuit, rng):
    """A safe LAC child of ``circuit`` carrying a valid provenance record."""
    logic = circuit.logic_ids()
    rng.shuffle(logic)
    for target in logic:
        cands = [
            c
            for c in circuit.transitive_fanin(target)
            if not circuit.is_po(c)
        ] + [-1, -2]
        rng.shuffle(cands)
        for switch in cands:
            lac = LAC(target=target, switch=switch)
            if is_safe(circuit, lac):
                return applied_copy(circuit, lac)
    raise AssertionError("no safe LAC available")


def _changed_of(child):
    prov = child.valid_provenance()
    assert prov is not None
    return prov.changed


def _fanout_heavy_circuit():
    """One signal fanning out to 12 same-cell gates on a single level."""
    b = CircuitBuilder("fanout")
    pis = b.pis(4)
    src = b.nand2(pis[0], pis[1])
    alt = b.nand2(pis[2], pis[3])
    mids = [b.xor2(src, pis[i % 4]) for i in range(12)]
    outs = [b.and2(mids[i], mids[(i + 1) % 12]) for i in range(12)]
    b.pos(outs)
    return b.done(), src, alt


class TestParentGroups:
    """Group timing and evaluation of one parent's children == full
    ``analyze``/``evaluate``, bit for bit (ties, wide frontiers, deleted
    gates, stale parents, crossover children)."""

    def test_matches_per_child_and_full_on_adder(self, library):
        circuit = build_adder(8)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        rng = random.Random(17)
        children = []
        for _ in range(10):
            child = _random_lac_child(circuit, rng)
            children.append((child, _changed_of(child)))
        batch = update_timing_batch(engine, previous, children)
        assert len(batch) == len(children)
        for (child, _), got in zip(children, batch):
            assert got.circuit is child
            assert got.index is previous.index  # shares the parent's rows
            _assert_same_timing(child, got, engine.analyze(child))

    def test_tie_reresolution_batch(self, tie_library):
        rng = random.Random(3)
        circuit = _random_tie_circuit(rng)
        engine = _tie_engine(tie_library)
        previous = engine.analyze(circuit)
        children = []
        for target in circuit.logic_ids()[::2]:
            lac = LAC(target=target, switch=-1)
            if is_safe(circuit, lac):
                child = applied_copy(circuit, lac)
                children.append((child, _changed_of(child)))
        assert len(children) >= 3
        batch = update_timing_batch(engine, previous, children)
        for (child, _), got in zip(children, batch):
            _assert_same_timing(child, got, engine.analyze(child))

    def test_wide_dirty_frontier(self, library):
        # A single edit that dirties 12 same-cell gates on one level.
        circuit, src, alt = _fanout_heavy_circuit()
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        child = circuit.copy()
        changed = child.substitute(src, alt)
        inc = update_timing(engine, child, previous, changed)
        _assert_same_timing(child, inc, engine.analyze(child))

    def test_wide_dirty_frontier_batch(self, library):
        circuit, src, alt = _fanout_heavy_circuit()
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        children = []
        for _ in range(3):
            child = circuit.copy()
            children.append((child, child.substitute(src, alt)))
        batch = update_timing_batch(engine, previous, children)
        full = engine.analyze(children[0][0])
        for (child, _), got in zip(children, batch):
            _assert_same_timing(child, got, full)

    def test_diverged_gid_set_falls_back(self, library):
        # One child deleted a gate: its row space no longer matches the
        # parent report, so its walk cannot reuse the parent's rows.
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        rng = random.Random(23)
        children = [_random_lac_child(circuit, rng) for _ in range(3)]
        items = [(c, _changed_of(c)) for c in children]
        removed = circuit.copy()
        target = removed.logic_ids()[4]
        switch = sorted(removed.transitive_fanin(target))[0]
        writes = removed.substitute(target, switch)
        del removed.fanins[target]
        del removed.cells[target]
        items.append((removed, list(writes) + [target]))
        batch = update_timing_batch(engine, previous, items)
        assert len(batch) == len(items)
        for (child, _), got in zip(items, batch):
            _assert_same_timing(child, got, engine.analyze(child))

    def test_stale_parent_falls_back(self, library):
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        rng = random.Random(29)
        children = [_random_lac_child(circuit, rng) for _ in range(2)]
        items = [(c, _changed_of(c)) for c in children]
        # Mutate the parent after the report: no child may reuse the
        # parent's post-mutation structure as if it were the analyzed one.
        gid = circuit.logic_ids()[0]
        circuit.set_cell(gid, library.upsize(circuit.cells[gid]).name)
        batch = update_timing_batch(engine, previous, items)
        for (child, _), got in zip(items, batch):
            _assert_same_timing(child, got, engine.analyze(child))

    @pytest.mark.parametrize(
        "depth_mode", [DepthMode.UNIT, DepthMode.DELAY]
    )
    def test_eval_batch_identity_under_ties(self, tie_library, depth_mode):
        rng = random.Random(7)
        circuit = _random_tie_circuit(rng)
        ctx = EvalContext.build(
            circuit,
            tie_library,
            ErrorMode.ER,
            num_vectors=128,
            seed=7,
            depth_mode=depth_mode,
            sta=_tie_engine(tie_library),
        )
        parent = ctx.reference_eval()
        children = [_random_lac_child(circuit, rng) for _ in range(6)]
        got = evaluate_batch(ctx, [(c, parent) for c in children])
        for g in got:
            r = evaluate(ctx, g.circuit.copy())
            assert g.fitness == r.fitness
            assert g.depth == r.depth
            assert g.error == r.error
            assert g.report.max_unit_depth == r.report.max_unit_depth
            _assert_same_timing(g.circuit, g.report, r.report)

    def test_crossover_children_batch_identity(self, library):
        circuit = build_adder(6)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.ER, num_vectors=128, seed=13
        )
        ref = ctx.reference_eval()
        rng = random.Random(13)
        evs = [
            evaluate_incremental(ctx, _random_lac_child(circuit, rng), ref)
            for _ in range(4)
        ]
        kids = [
            circuit_reproduce(evs[i], evs[j], ctx)
            for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]
        ]
        got = evaluate_batch(ctx, [(k, tuple(evs)) for k in kids])
        for g in got:
            r = evaluate(ctx, g.circuit.copy())
            assert g.fitness == r.fitness
            assert g.depth == r.depth
            assert g.error == r.error
            _assert_same_timing(g.circuit, g.report, r.report)
