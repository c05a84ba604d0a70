"""Unit tests for the STA engine and path utilities."""

import pytest

from repro.netlist import CONST1, CircuitBuilder
from repro.sta import (
    STAEngine,
    critical_paths,
    format_path,
    format_summary,
    path_delay,
    path_logic_gates,
    po_arrivals,
    slack_profile,
    worst_endpoints,
)


@pytest.fixture
def engine(library):
    return STAEngine(library)


class TestArrivalPropagation:
    def test_pi_at_time_zero(self, engine, fig3):
        report = engine.analyze(fig3)
        row = report.index.row
        for pi in fig3.pi_ids:
            assert report.arrival_a[row[pi]] == 0.0
            assert report.unit_depth_a[row[pi]] == 0

    def test_arrival_monotone_along_fanin(self, engine, fig3):
        report = engine.analyze(fig3)
        row, arrival = report.index.row, report.arrival_a
        for gid in fig3.logic_ids():
            for fi in fig3.fanins[gid]:
                if fi in row:
                    assert arrival[row[gid]] > arrival[row[fi]]

    def test_po_mirrors_driver(self, engine, fig3):
        report = engine.analyze(fig3)
        row = report.index.row
        for po in fig3.po_ids:
            driver = fig3.fanins[po][0]
            assert report.arrival_a[row[po]] == report.arrival_a[row[driver]]

    def test_unit_depth_fig3(self, engine, fig3):
        report = engine.analyze(fig3)
        row, depth = report.index.row, report.unit_depth_a
        assert depth[row[5]] == 1
        assert depth[row[8]] == 2
        assert depth[row[11]] == 3
        assert depth[row[13]] == 3  # PO mirrors driver depth
        assert report.max_unit_depth == 3

    def test_deeper_adder_has_larger_cpd(self, engine, adder4, adder8):
        assert engine.analyze(adder8).cpd > engine.analyze(adder4).cpd

    def test_constant_fanins_launch_at_zero(self, engine):
        b = CircuitBuilder()
        a = b.pi("a")
        g = b.gate("AND2", a, CONST1)
        b.po(g, "y")
        report = engine.analyze(b.done())
        assert report.cpd > 0.0

    def test_no_po_raises(self, engine):
        b = CircuitBuilder()
        b.pi("a")
        report = engine.analyze(b.done())
        with pytest.raises(ValueError):
            _ = report.cpd


class TestLoads:
    def test_load_counts_fanout_pins(self, engine, fig3, library):
        loads = engine.compute_loads(fig3)
        # Gate 7 drives gates 9 (XOR2) and 10 (AND2).
        expected = (
            library.cell("XOR2D1").input_cap
            + library.cell("AND2D1").input_cap
            + 2 * engine.wire_cap_per_fanout
        )
        assert loads[7] == pytest.approx(expected)

    def test_po_load_applied(self, engine, fig3):
        loads = engine.compute_loads(fig3)
        # Gate 11 drives only PO 13.
        assert loads[11] == pytest.approx(
            engine.po_load + engine.wire_cap_per_fanout
        )

    def test_higher_fanout_slows_gate(self, engine, library):
        def chain(fanout):
            b = CircuitBuilder()
            a = b.pi("a")
            src = b.inv(a)
            for i in range(fanout):
                b.po(b.inv(src), f"y{i}")
            return b.done()

        slow = engine.analyze(chain(8))
        fast = engine.analyze(chain(1))
        assert slow.cpd > fast.cpd


class TestCriticalPath:
    def test_path_endpoints(self, engine, adder4):
        report = engine.analyze(adder4)
        path = report.critical_path()
        assert adder4.is_pi(path[0])
        assert adder4.is_po(path[-1])

    def test_path_is_connected(self, engine, adder8):
        report = engine.analyze(adder8)
        path = report.critical_path()
        for src, dst in zip(path, path[1:]):
            assert src in adder8.fanins[dst]

    def test_upsizing_critical_driver_reduces_cpd(self, engine, library):
        b = CircuitBuilder("inv2")
        a = b.pi("a")
        g1 = b.inv(a)
        g2 = b.inv(g1)
        b.po(g2, "y")
        c = b.done()
        before = engine.analyze(c).cpd
        c.set_cell(g2, "INVD4")
        after = engine.analyze(c).cpd
        assert after < before

    def test_worst_po_and_critical_path_consistent(self, engine, adder8):
        report = engine.analyze(adder8)
        po = report.worst_po()
        assert report.po_arrival(po) == report.cpd
        assert report.critical_path()[-1] == po


class TestPathQueries:
    def test_po_arrivals_complete(self, engine, adder4):
        report = engine.analyze(adder4)
        arr = po_arrivals(report)
        assert set(arr) == set(adder4.po_ids)

    def test_worst_endpoints_sorted(self, engine, adder8):
        report = engine.analyze(adder8)
        eps = worst_endpoints(report, 3)
        arrs = [report.po_arrival(e) for e in eps]
        assert arrs == sorted(arrs, reverse=True)

    def test_critical_paths_count(self, engine, adder8):
        report = engine.analyze(adder8)
        paths = critical_paths(report, count=2)
        assert len(paths) == 2
        assert all(adder8.is_po(p[-1]) for p in paths)

    def test_critical_paths_slack_fraction(self, engine, adder8):
        report = engine.analyze(adder8)
        paths = critical_paths(report, slack_fraction=1.0)
        assert len(paths) == len(adder8.po_ids)

    def test_path_logic_gates_filters(self, engine, adder4):
        report = engine.analyze(adder4)
        path = report.critical_path()
        gates = path_logic_gates(adder4, path)
        assert all(adder4.is_logic(g) for g in gates)
        assert len(gates) == len(path) - 2  # minus PI and PO

    def test_path_delay(self, engine, adder4):
        report = engine.analyze(adder4)
        path = report.critical_path()
        assert path_delay(report, path) == report.cpd

    def test_slack_profile_sorted(self, engine, adder8):
        report = engine.analyze(adder8)
        rows = slack_profile(report, clock_period=report.cpd)
        slacks = [s for _, s in rows]
        assert slacks == sorted(slacks)
        assert slacks[0] == pytest.approx(0.0)


class TestReportText:
    def test_format_path_smoke(self, engine, adder4):
        report = engine.analyze(adder4)
        text = format_path(report)
        assert "Startpoint" in text and "data arrival time" in text

    def test_format_summary_mentions_area(self, engine, adder4, library):
        report = engine.analyze(adder4)
        text = format_summary(report, library)
        assert "CPD" in text and "area" in text
