"""Tests for the four comparison baselines."""

import pytest

from repro.baselines import (
    GWOConfig,
    HedalsConfig,
    HedalsLike,
    SasimiConfig,
    SingleChaseGWO,
    VaACS,
    VaacsConfig,
    VecbeeSasimi,
)
from repro.core import EvalContext
from repro.netlist import validate
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
def ctx(mapped_adder, library):
    return EvalContext.build(
        mapped_adder, library, ErrorMode.NMED, num_vectors=512, seed=2
    )


class TestSingleChaseGWO:
    def test_runs_and_respects_bound(self, ctx, library):
        cfg = GWOConfig(population_size=8, imax=4, seed=0)
        result = SingleChaseGWO(ctx, 0.02, cfg).optimize()
        assert result.method == "GWO"
        assert result.best.error <= 0.02
        validate(result.best.circuit, library)

    def test_no_relaxation_forced(self, ctx):
        cfg = GWOConfig(population_size=8, imax=4, seed=0)
        result = SingleChaseGWO(ctx, 0.02, cfg).optimize()
        assert all(
            h.error_constraint == pytest.approx(0.02)
            for h in result.history
        )

    def test_caller_config_unchanged(self, ctx):
        cfg = GWOConfig(population_size=6, imax=3, seed=7)
        gwo = SingleChaseGWO(ctx, 0.02, cfg)
        assert (cfg.use_relaxation, cfg.use_crowding) == (True, True)
        assert not gwo.config.use_relaxation
        assert not gwo.config.use_crowding

    def test_deterministic(self, ctx):
        cfg = GWOConfig(population_size=6, imax=3, seed=7)
        r1 = SingleChaseGWO(ctx, 0.02, cfg).optimize()
        cfg2 = GWOConfig(population_size=6, imax=3, seed=7)
        r2 = SingleChaseGWO(ctx, 0.02, cfg2).optimize()
        assert r1.best.fitness == pytest.approx(r2.best.fitness)


class TestVecbeeSasimi:
    def test_grows_area_savings(self, ctx, library):
        cfg = SasimiConfig(max_changes=10, beam=6, seed=0)
        result = VecbeeSasimi(ctx, 0.02, cfg).optimize()
        assert result.method == "VECBEE-S"
        assert result.best.error <= 0.02
        assert result.best.fa >= 1.0
        validate(result.best.circuit, library)

    def test_history_fa_monotone(self, ctx):
        cfg = SasimiConfig(max_changes=10, beam=6, seed=0)
        result = VecbeeSasimi(ctx, 0.02, cfg).optimize()
        fas = [h.best_fa for h in result.history]
        assert fas == sorted(fas)

    def test_zero_budget_no_changes(self, ctx):
        cfg = SasimiConfig(max_changes=10, beam=6, seed=0)
        result = VecbeeSasimi(ctx, 0.0, cfg).optimize()
        assert result.best.error == 0.0
        assert result.best.fa == pytest.approx(1.0)


class TestHedals:
    def test_reduces_depth(self, ctx, library):
        cfg = HedalsConfig(max_changes=15, beam=6)
        result = HedalsLike(ctx, 0.02, cfg).optimize()
        assert result.method == "HEDALS"
        assert result.best.error <= 0.02
        assert result.best.fd > 1.0  # found at least one depth cut
        validate(result.best.circuit, library)

    def test_history_fd_monotone(self, ctx):
        cfg = HedalsConfig(max_changes=15, beam=6)
        result = HedalsLike(ctx, 0.02, cfg).optimize()
        fds = [h.best_fd for h in result.history]
        assert fds == sorted(fds)

    def test_stops_without_budget(self, ctx):
        cfg = HedalsConfig(max_changes=15, beam=6)
        result = HedalsLike(ctx, 0.0, cfg).optimize()
        assert result.best.fd == pytest.approx(1.0)
        assert result.history == []


class TestVaACS:
    def test_runs_and_respects_bound(self, ctx, library):
        cfg = VaacsConfig(population_size=8, generations=4, seed=0)
        result = VaACS(ctx, 0.02, cfg).optimize()
        assert result.method == "VaACS"
        assert result.best.error <= 0.02
        validate(result.best.circuit, library)

    def test_history_length(self, ctx):
        cfg = VaacsConfig(population_size=6, generations=5, seed=0)
        result = VaACS(ctx, 0.02, cfg).optimize()
        assert len(result.history) == 5

    def test_population_size_preserved(self, ctx):
        cfg = VaacsConfig(population_size=7, generations=3, seed=0)
        result = VaACS(ctx, 0.02, cfg).optimize()
        assert len(result.population) == 7

    def test_infeasible_penalised(self, ctx):
        opt = VaACS(ctx, 0.02, VaacsConfig())
        good = type("E", (), {"error": 0.01, "fd": 1.2})()
        bad = type("E", (), {"error": 0.5, "fd": 2.0})()
        assert opt._ga_fitness(good) > opt._ga_fitness(bad)
