"""Integration tests for the double-chase grey wolf optimizer."""

import pytest

from repro.baselines import GWOConfig, SingleChaseGWO
from repro.core import DCGWO, DCGWOConfig, EvalContext, evaluate
from repro.netlist import validate
from repro.sim import ErrorMode


@pytest.fixture(scope="module")
def adder_ctx(library_module, adder8_shared):
    return EvalContext.build(
        adder8_shared, library_module, ErrorMode.NMED,
        num_vectors=512, seed=5,
    )


@pytest.fixture(scope="module")
def library_module():
    from repro.cells import default_library

    return default_library()


@pytest.fixture(scope="module")
def adder8_shared():
    from tests.conftest import build_adder

    return build_adder(8)


@pytest.fixture(scope="module")
def small_config():
    return DCGWOConfig(population_size=10, imax=6, seed=0)


@pytest.fixture(scope="module")
def run_result(adder_ctx, small_config):
    return DCGWO(adder_ctx, error_bound=0.03, config=small_config).optimize()


class TestRun:
    def test_best_respects_error_bound(self, run_result):
        assert run_result.best.error <= 0.03

    def test_best_is_an_improvement(self, run_result):
        # fd and fa are both >= 1 for the archived best on this easy case.
        assert run_result.best.fitness >= 1.0

    def test_best_circuit_valid(self, run_result, library_module):
        validate(run_result.best.circuit, library_module)

    def test_history_per_iteration(self, run_result, small_config):
        assert len(run_result.history) == small_config.imax
        its = [h.iteration for h in run_result.history]
        assert its == list(range(1, small_config.imax + 1))

    def test_constraint_schedule_recorded(self, run_result):
        cons = [h.error_constraint for h in run_result.history]
        assert all(b >= a for a, b in zip(cons, cons[1:]))
        assert cons[-1] == pytest.approx(0.03)

    def test_population_bounded(self, run_result, small_config):
        assert 0 < len(run_result.population) <= small_config.population_size

    def test_population_members_feasible(self, run_result):
        # Final-iteration constraint equals the user bound.
        assert all(ev.error <= 0.03 + 1e-12 for ev in run_result.population)

    def test_evaluations_counted(self, run_result):
        assert run_result.evaluations > 0
        assert run_result.history[-1].evaluations == run_result.evaluations

    def test_runtime_recorded(self, run_result):
        assert run_result.runtime_s > 0.0

    def test_method_name(self, run_result):
        assert run_result.method == "DCGWO"


class TestDeterminism:
    def test_same_seed_same_result(self, adder_ctx):
        cfg = DCGWOConfig(population_size=6, imax=3, seed=42)
        r1 = DCGWO(adder_ctx, 0.05, cfg).optimize()
        r2 = DCGWO(adder_ctx, 0.05, cfg).optimize()
        assert (
            r1.best.circuit.structure_key()
            == r2.best.circuit.structure_key()
        )
        assert r1.best.fitness == pytest.approx(r2.best.fitness)

    def test_different_seed_varies(self, adder_ctx):
        base = DCGWOConfig(population_size=6, imax=3, seed=1)
        other = DCGWOConfig(population_size=6, imax=3, seed=2)
        r1 = DCGWO(adder_ctx, 0.05, base).optimize()
        r2 = DCGWO(adder_ctx, 0.05, other).optimize()
        # Histories almost surely diverge (fitness trajectories differ).
        assert [h.best_fitness for h in r1.history] != [
            h.best_fitness for h in r2.history
        ]


class TestConstraints:
    def test_tighter_bound_less_error(self, adder_ctx):
        cfg = DCGWOConfig(population_size=8, imax=4, seed=3)
        tight = DCGWO(adder_ctx, 0.002, cfg).optimize()
        loose = DCGWO(adder_ctx, 0.05, cfg).optimize()
        assert tight.best.error <= 0.002
        assert loose.best.error <= 0.05
        # Looser budgets admit at least as much fitness.
        assert loose.best.fitness >= tight.best.fitness - 1e-9

    def test_zero_bound_returns_exact_circuit(self, adder_ctx):
        cfg = DCGWOConfig(population_size=6, imax=3, seed=4)
        result = DCGWO(adder_ctx, 0.0, cfg).optimize()
        assert result.best.error == 0.0


class TestAblationHooks:
    def test_no_relaxation_mode(self, adder_ctx):
        cfg = DCGWOConfig(
            population_size=6, imax=3, seed=5, use_relaxation=False
        )
        result = DCGWO(adder_ctx, 0.05, cfg).optimize()
        cons = [h.error_constraint for h in result.history]
        assert all(c == pytest.approx(0.05) for c in cons)

    def test_no_crowding_mode(self, adder_ctx):
        cfg = DCGWOConfig(
            population_size=6, imax=3, seed=6, use_crowding=False
        )
        result = DCGWO(adder_ctx, 0.05, cfg).optimize()
        assert result.best.error <= 0.05


class TestChaseChildren:
    """The chases never return a structure twice, nor one already in
    the population, so a generation needs no dedup before evaluation."""

    @pytest.mark.parametrize(
        "cls, cfg_cls",
        [(DCGWO, DCGWOConfig), (SingleChaseGWO, GWOConfig)],
        ids=["DCGWO", "GWO"],
    )
    def test_keys_distinct_and_new(self, adder_ctx, cls, cfg_cls):
        cfg = cfg_cls(population_size=8, imax=5, seed=3)
        opt = cls(adder_ctx, 0.03, cfg)
        state = opt._init_state()
        for iteration in range(1, 6):
            population = {
                ev.circuit.structure_key() for ev in state.population
            }
            children = opt._chase_children(
                state.population, iteration, state.rng,
                state.extra["weights"],
            )
            keys = [child.structure_key() for child, _ in children]
            assert keys
            assert len(set(keys)) == len(keys)
            assert population.isdisjoint(keys)
            opt._step(state)
