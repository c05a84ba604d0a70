"""Unit tests for post-optimization: dangling deletion and resizing."""

import pytest

from reference_circuits import build_adder

from repro.bench import build_benchmark
from repro.core import LAC, applied_copy
from repro.netlist import CONST0, validate
from repro.postopt import (
    SizingMove,
    delete_dangling_gates,
    post_optimize,
    resize_for_timing,
)
from repro.postopt.sizing import _estimate_gain
from repro.sta import STAEngine, path_logic_gates


class TestDanglingDeletion:
    def test_lac_dangles_removed(self, adder8):
        target = adder8.logic_ids()[5]
        child = applied_copy(adder8, LAC(target, CONST0))
        before = child.num_gates
        removed = delete_dangling_gates(child)
        assert removed >= 1
        assert child.num_gates == before - removed
        validate(child)
        assert child.dangling_gates() == set()

    def test_clean_circuit_untouched(self, adder8):
        c = adder8.copy()
        assert delete_dangling_gates(c) == 0
        assert c.num_gates == adder8.num_gates


class TestResizer:
    def test_resize_reduces_cpd(self, adder8, library):
        c = adder8.copy()
        area0 = c.area(library)
        result = resize_for_timing(c, library, area_con=1.3 * area0)
        assert result.cpd_after < result.cpd_before
        assert result.num_moves > 0

    def test_area_constraint_respected(self, adder8, library):
        c = adder8.copy()
        area0 = c.area(library)
        con = 1.05 * area0
        result = resize_for_timing(c, library, area_con=con)
        assert result.area_after <= con + 1e-9
        assert c.area(library) == pytest.approx(result.area_after)

    def test_no_headroom_no_moves(self, adder8, library):
        c = adder8.copy()
        area0 = c.area(library)
        result = resize_for_timing(c, library, area_con=area0)
        # All cells are already at D1+ and every upsize adds area.
        assert result.num_moves == 0
        assert result.cpd_after == pytest.approx(result.cpd_before)

    def test_structure_never_changes(self, adder8, library):
        c = adder8.copy()
        resize_for_timing(c, library, area_con=2.0 * c.area(library))
        assert c.fanins == adder8.fanins
        # Only drive codes may differ.
        for gid in c.logic_ids():
            old = adder8.cells[gid]
            new = c.cells[gid]
            assert old.rsplit("D", 1)[0] == new.rsplit("D", 1)[0]

    def test_moves_are_upsizes_on_recordings(self, adder8, library):
        c = adder8.copy()
        result = resize_for_timing(c, library, area_con=1.5 * c.area(library))
        for move in result.moves:
            from repro.cells import split_cell_name

            f_from, d_from = split_cell_name(move.from_cell)
            f_to, d_to = split_cell_name(move.to_cell)
            assert f_from == f_to
            assert d_to > d_from

    def test_more_headroom_no_worse(self, adder8, library):
        area0 = adder8.area(library)
        c_small = adder8.copy()
        r_small = resize_for_timing(c_small, library, area_con=1.1 * area0)
        c_big = adder8.copy()
        r_big = resize_for_timing(c_big, library, area_con=1.6 * area0)
        assert r_big.cpd_after <= r_small.cpd_after + 1e-6


class TestPostOptimize:
    def test_full_pipeline(self, adder8, library):
        target = adder8.logic_ids()[len(adder8.logic_ids()) // 2]
        child = applied_copy(adder8, LAC(target, CONST0))
        area_con = adder8.area(library)  # paper: Area_con = Area_ori
        result = post_optimize(child, library, area_con)
        validate(result.circuit, library)
        assert result.dangling_removed >= 1
        assert result.circuit.area(library) <= area_con + 1e-9
        # The original input circuit is untouched.
        assert child.dangling_gates() != set()

    def test_converts_area_into_timing(self, adder8, library):
        """The paper's core claim: freed area buys CPD via upsizing."""
        engine = STAEngine(library)
        target = adder8.logic_ids()[-3]
        child = applied_copy(adder8, LAC(target, CONST0))
        cpd_before = engine.analyze(child).cpd
        result = post_optimize(
            child, library, area_con=adder8.area(library)
        )
        assert result.cpd_after <= cpd_before
        if result.sizing.num_moves:
            assert result.cpd_after < cpd_before


def _resize_with_full_sta(circuit, library, area_con, min_gain=1e-3):
    """The resizer with one full STA per trial, applied in place.

    Sets the best-estimated upsize on ``circuit``, analyzes it from
    scratch, and reverts it and stops when the CPD did not improve.
    Returns ``(moves, cpd_after, area_after, ended_on_rejection)``.
    """
    engine = STAEngine(library)
    report = engine.analyze(circuit)
    area = circuit.area(library)
    cpd = report.cpd
    moves = []
    for _ in range(200):
        best = None
        for gid in path_logic_gates(circuit, report.critical_path()):
            new_cell = library.upsize(circuit.cells[gid])
            if new_cell is None:
                continue
            old_area = library.cell(circuit.cells[gid]).area
            if area + (new_cell.area - old_area) > area_con:
                continue
            gain = _estimate_gain(circuit, library, report, gid, new_cell)
            if gain > min_gain and (best is None or gain > best[0]):
                best = (gain, gid, new_cell)
        if best is None:
            return moves, cpd, area, False
        gain, gid, new_cell = best
        old_name = circuit.cells[gid]
        circuit.set_cell(gid, new_cell.name)
        trial = engine.analyze(circuit)
        if trial.cpd >= cpd:
            circuit.set_cell(gid, old_name)
            return moves, cpd, area, True
        report, cpd = trial, trial.cpd
        area = circuit.area(library)
        moves.append(SizingMove(gid, old_name, new_cell.name, gain))
    return moves, cpd, area, False


def _with_headroom(build, factor):
    """``(circuit, area_con)``: ``factor`` times the circuit's area."""

    def case(library):
        circuit = build()
        return circuit, factor * circuit.area(library)

    return case


def _lac_child_at_original_area(library):
    """An adder LAC child after dangling deletion, as post-optimization
    sizes it: the constraint is the accurate circuit's area."""
    adder = build_adder(8)
    target = adder.logic_ids()[len(adder.logic_ids()) // 2]
    child = applied_copy(adder, LAC(target, CONST0))
    delete_dangling_gates(child)
    return child, adder.area(library)


class TestIncrementalRetiming:
    """Each trial is retimed incrementally on a copy; the moves, CPD,
    area and cells equal the analyze-per-trial resizer's."""

    @pytest.mark.parametrize(
        "case, rejects",
        [
            (_with_headroom(lambda: build_adder(8), 1.3), False),
            (_lac_child_at_original_area, False),
            (_with_headroom(lambda: build_benchmark("c880"), 1.2), True),
            (_with_headroom(lambda: build_benchmark("Max16"), 1.2), True),
            (_with_headroom(lambda: build_benchmark("c1908"), 1.2), True),
        ],
        ids=["adder8", "adder8-lac-child", "c880", "Max16", "c1908"],
    )
    def test_matches_full_sta_per_trial(self, library, case, rejects):
        circuit, area_con = case(library)
        oracle = circuit.copy()
        moves, cpd, area, rejected = _resize_with_full_sta(
            oracle, library, area_con
        )
        assert moves and rejected == rejects  # a dropped trial is covered
        result = resize_for_timing(circuit, library, area_con)
        assert result.moves == moves
        assert result.cpd_after == cpd
        assert result.area_after == area
        assert dict(circuit.cells) == dict(oracle.cells)
        # In place: the caller's circuit carries the accepted moves.
        assert STAEngine(library).analyze(circuit).cpd == cpd
        assert circuit.area(library) == area
