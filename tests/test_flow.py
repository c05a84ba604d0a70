"""Integration tests for the end-to-end flow and reporting."""

import pytest

from repro import FlowConfig, Session, get_method
from repro.core import EvalContext
from repro.netlist import validate
from repro.reporting import (
    ComparisonRow,
    format_comparison_table,
    format_series,
    format_stats_table,
)
from repro.sim import ErrorMode


@pytest.fixture(scope="module")
def library():
    from repro.cells import default_library

    return default_library()


@pytest.fixture(scope="module")
def mapped_adder():
    from repro.bench import ripple_adder_circuit

    return ripple_adder_circuit(8)


@pytest.fixture(scope="module")
def fast_cfg():
    return FlowConfig(
        error_mode=ErrorMode.NMED,
        error_bound=0.02,
        num_vectors=512,
        effort=0.25,
        seed=3,
    )


@pytest.fixture(scope="module")
def ours_result(mapped_adder, fast_cfg, library):
    with Session(mapped_adder, fast_cfg, library) as session:
        return session.run("Ours")


class TestRunFlow:
    def test_final_circuit_valid(self, ours_result, library):
        validate(ours_result.circuit, library)

    def test_ratio_cpd_definition(self, ours_result):
        assert ours_result.ratio_cpd == pytest.approx(
            ours_result.cpd_fac / ours_result.cpd_ori
        )

    def test_timing_improved(self, ours_result):
        assert ours_result.ratio_cpd < 1.0

    def test_area_constraint_respected(self, ours_result):
        assert ours_result.area_fac <= ours_result.area_ori + 1e-9

    def test_error_within_bound(self, ours_result, fast_cfg):
        assert ours_result.error <= fast_cfg.error_bound

    def test_no_dangling_in_final(self, ours_result):
        assert ours_result.circuit.dangling_gates() == set()

    def test_function_preserved_through_postopt(
        self, ours_result, mapped_adder, library, fast_cfg
    ):
        """Post-opt (dangling removal + resize) must not change logic."""
        from repro.sim import (
            measure_error,
            po_words,
            random_vectors,
            simulate,
        )

        vecs = random_vectors(len(mapped_adder.pi_ids), 512, seed=99)
        ref = po_words(mapped_adder, simulate(mapped_adder, vecs))
        pre = ours_result.optimization.best.circuit
        pre_po = po_words(pre, simulate(pre, vecs))
        post_po = po_words(
            ours_result.circuit, simulate(ours_result.circuit, vecs)
        )
        assert (pre_po == post_po).all()
        err = measure_error(ErrorMode.NMED, ref, post_po, 512)
        assert err <= fast_cfg.error_bound + 0.01  # fresh-seed tolerance

    def test_unknown_method_rejected(self, mapped_adder, fast_cfg):
        with pytest.raises(ValueError):
            Session(mapped_adder, fast_cfg).run("Bogus")


class TestCompareMethods:
    def test_all_methods_run(self, mapped_adder, fast_cfg, library):
        with Session(mapped_adder, fast_cfg, library) as session:
            results = session.compare(("HEDALS", "Ours"))
        assert set(results) == {"HEDALS", "Ours"}
        for r in results.values():
            assert r.ratio_cpd <= 1.0
            assert r.error <= fast_cfg.error_bound

    def test_effort_scaling(self, mapped_adder, library, fast_cfg):
        ctx = EvalContext.build(
            mapped_adder, library, ErrorMode.NMED, num_vectors=128
        )
        small = get_method("Ours").build(ctx, FlowConfig(effort=0.2))
        big = get_method("Ours").build(ctx, FlowConfig(effort=1.0))
        assert small.config.population_size < big.config.population_size
        assert small.config.imax < big.config.imax
        assert big.config.population_size == 30
        assert big.config.imax == 20


class TestReporting:
    def test_comparison_table(self):
        rows = [
            ComparisonRow(
                circuit="adder8",
                area_con=54.0,
                ratios={"Ours": 0.5, "HEDALS": 0.7},
                runtimes={"Ours": 1.2, "HEDALS": 0.4},
            )
        ]
        text = format_comparison_table(
            "Table II", rows, ["HEDALS", "Ours"]
        )
        assert "Table II" in text
        assert "adder8" in text
        assert "0.5000" in text and "0.7000" in text
        assert "Average" in text

    def test_missing_method_rendered_as_dash(self):
        rows = [ComparisonRow(circuit="x", area_con=1.0, ratios={})]
        text = format_comparison_table("T", rows, ["Ours"])
        assert "-" in text

    def test_series(self):
        text = format_series(
            "Fig. 7a",
            "ER(%)",
            [1, 2, 3],
            {"Ours": [0.9, 0.8, 0.7], "GWO": [0.95, 0.9, 0.85]},
        )
        assert "Fig. 7a" in text and "Ours" in text and "0.7000" in text

    def test_stats_table(self):
        rows = [
            dict(
                name="Adder16", type="arithmetic", gates=77, pi=32,
                po=17, cpd=300.0, area=54.4, description="16-bit adder",
            )
        ]
        text = format_stats_table(rows)
        assert "Adder16" in text and "32/17" in text
