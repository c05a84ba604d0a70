"""The double-chase grey wolf optimizer (paper §III-B, Figs. 2/4/5).

Per iteration:

* the population is divided into leader / elites / ω group by fitness;
* **Chase 1** — each elite draws ``W`` against the leader's fitness and
  either reproduces with a fitter circuit (``W > Se``) or searches;
* **Chase 2** — each ω circuit draws ``W`` against the elite average and
  either performs *both* actions (``W > Sω``) or a random one of the two;
* the leader always searches, preserving its variability;
* candidates (population before + after the chases) are filtered by the
  asymptotically relaxed error constraint, non-dominated sorted on
  ``(fd, fa)`` with crowding distance, and the best N survive.

The best error-feasible circuit seen anywhere in the run is archived and
returned.

Structurally the class is an :class:`~repro.core.protocol.Optimizer`:
the loop state (population, archive, RNG, history) lives in a
serializable :class:`~repro.core.protocol.OptimizerState`, one iteration
is :meth:`DCGWO._step`, and the shared protocol driver provides
streaming callbacks, pause (``stop_after``) and bit-identical resume.
Each iteration's children are evaluated as one generation through the
protocol's generation funnel (the batch evaluator, or the shard pool
with ``jobs > 1``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..netlist import Circuit
from ..registry import register_method
from ..sim import best_switch
from .fitness import CircuitEval, EvalContext
from .lacs import LAC, applied_copy, is_safe
from .pareto import nsga2_select
from .population import (
    decision_parameter,
    divide_population,
    scaling_factor,
)
from .protocol import Optimizer, OptimizerState
from .relaxation import ErrorRelaxation
from .reproduction import (
    LevelWeights,
    circuit_reproduce,
    pick_superior_partner,
)
from .result import IterationStats
from .searching import circuit_search, circuit_simplify


@dataclass
class DCGWOConfig:
    """Hyper-parameters; defaults follow the paper's §IV-A settings."""

    population_size: int = 30  # N
    imax: int = 20  # upper iteration limit
    se: float = 0.0  # elite decision threshold
    s_omega: float = 0.0  # omega decision threshold
    num_paths: int = 2  # critical paths mined per search
    search_retries: int = 4  # re-draws when a search child is a duplicate
    seed: int = 0
    relax_start_fraction: float = 0.25
    use_relaxation: bool = True  # ablation hook
    use_crowding: bool = True  # ablation hook: False = plain fitness sort
    use_reproduction: bool = True  # ablation hook: False = searching only
    jobs: int = 0  # worker processes (0: serial unless REPRO_JOBS is set)
    enable_simplification: bool = False  # extension: in-place gate rewrites
    simplification_rate: float = 0.3  # P(simplify) per search action


@register_method(
    "Ours",
    aliases=("DCGWO",),
    order=5,
    budget_fields={"population_size": "population_size", "imax": "iterations"},
    description="double-chase grey wolf optimizer (the paper's method)",
)
class DCGWO(Optimizer):
    """Double-chase grey wolf optimizer over approximate circuits.

    Args:
        ctx: shared evaluation context built around the accurate circuit.
        error_bound: the user-specified maximum error (ER or NMED,
            matching ``ctx.error_mode``).
        config: hyper-parameters.
    """

    method_name = "DCGWO"
    config_cls = DCGWOConfig

    def __init__(
        self,
        ctx: EvalContext,
        error_bound: float,
        config: Optional[DCGWOConfig] = None,
    ):
        super().__init__(ctx, error_bound, config)
        cfg = self.config
        self._relaxation = ErrorRelaxation(
            final=error_bound,
            imax=cfg.imax,
            start_fraction=(
                cfg.relax_start_fraction if cfg.use_relaxation else 1.0
            ),
        )

    # ------------------------------------------------------------------
    def _random_lac(
        self, circuit: Circuit, rng: random.Random, values
    ) -> Optional[LAC]:
        """A similarity-guided LAC on a uniformly random logic gate."""
        logic = circuit.logic_ids()
        if not logic:
            return None
        for _ in range(8):  # retry budget against unsafe picks
            target = logic[rng.randrange(len(logic))]
            found = best_switch(
                circuit, values, target, self.ctx.vectors.num_vectors
            )
            if found is None:
                continue
            lac = LAC(target=target, switch=found[0])
            if is_safe(circuit, lac):
                return lac
        return None

    def _initial_population(self, rng: random.Random) -> List[CircuitEval]:
        """P0: accurate circuit forked with one random LAC per member.

        The forked circuits are collected first and evaluated as one
        generation (none of the RNG draws depend on evaluation results,
        so batching preserves the exact seeded trajectory).  Warm-start
        seeds (``Session.warm_start`` fronts handed to the optimizer)
        occupy leading population slots; the remainder is filled with
        the usual random LAC forks.  Seeding changes the trajectory —
        it is an explicit opt-in, never implied by an attached cache.
        """
        cfg = self.config
        reference = self.ctx.reference
        values = self.ctx.reference_values
        circuits: List[Circuit] = []
        seeded: List[Circuit] = []
        seen: Set[int] = set()
        for seed_circuit in self.seed_circuits:
            if len(seeded) >= cfg.population_size:
                break
            key = seed_circuit.structure_key()
            if key in seen:
                continue
            seen.add(key)
            seeded.append(seed_circuit.copy())
        attempts = 0
        while (
            len(seeded) + len(circuits) < cfg.population_size
            and attempts < 20 * cfg.population_size
        ):
            attempts += 1
            lac = self._random_lac(reference, rng, values)
            if lac is None:
                break
            child = applied_copy(reference, lac)
            key = child.structure_key()
            if key in seen:
                continue
            seen.add(key)
            circuits.append(child)
        if not circuits and not seeded:
            # Degenerate circuit with no admissible LAC: seed with the
            # accurate circuit itself so the optimizer still terminates.
            return [
                self._evaluate(reference.copy(), self.ctx.reference_eval())
            ]
        parents = (self.ctx.reference_eval(),)
        # Warm-start seeds came from disk, so they carry no provenance
        # and evaluate fully (or straight from the lake when attached).
        return self._evaluate_generation(
            [(c, None) for c in seeded]
            + [(c, parents) for c in circuits]
        )

    # ------------------------------------------------------------------
    def _chase_children(
        self,
        population: List[CircuitEval],
        iteration: int,
        rng: random.Random,
        weights: LevelWeights,
    ) -> List[Tuple[Circuit, Tuple[CircuitEval, ...]]]:
        """Run both chases plus the leader search; returns new circuits,
        each paired with the parent eval(s) it derives from so the main
        loop can evaluate it incrementally.

        Every child's structure key is distinct and absent from the
        population: a searched child that duplicates a key already in
        the candidate pool is re-drawn (fresh random target) up to
        ``search_retries`` times, which keeps evaluation budget from
        being wasted once the population starts converging.
        """
        cfg = self.config
        division = divide_population(population)
        a = scaling_factor(iteration, cfg.imax)
        children: List[Tuple[Circuit, Tuple[CircuitEval, ...]]] = []
        seen_keys = {ev.circuit.structure_key() for ev in population}

        def search(ev: CircuitEval) -> None:
            for _ in range(max(cfg.search_retries, 1)):
                if (
                    cfg.enable_simplification
                    and rng.random() < cfg.simplification_rate
                ):
                    child = circuit_simplify(
                        ev, self.ctx, rng, cfg.num_paths
                    )
                else:
                    child = circuit_search(
                        ev, self.ctx, rng, cfg.num_paths
                    )
                if child is None:
                    return
                key = child.structure_key()
                if key not in seen_keys:
                    seen_keys.add(key)
                    children.append((child, (ev,)))
                    return

        def reproduce(ev: CircuitEval) -> None:
            if not cfg.use_reproduction:
                search(ev)
                return
            partner = pick_superior_partner(population, ev, rng)
            if partner is None:
                partner = division.leader
            if partner is ev:
                search(ev)
                return
            child = circuit_reproduce(ev, partner, self.ctx, weights)
            key = child.structure_key()
            if key in seen_keys:
                # The crossover reproduced an existing structure (the
                # parents' cones agree); fall back to searching so the
                # action still explores.
                search(ev)
                return
            seen_keys.add(key)
            children.append((child, (ev, partner)))

        # Chase 1: elites consult the leader.
        for ev in division.elites:
            w = decision_parameter(ev, division.leader.fitness, a, rng)
            if w > cfg.se:
                reproduce(ev)
            else:
                search(ev)

        # Chase 2: omega circuits consult the elite average.
        elite_ref = division.elite_mean_fitness
        for ev in division.omegas:
            w = decision_parameter(ev, elite_ref, a, rng)
            if w > cfg.s_omega:
                search(ev)
                reproduce(ev)
            elif rng.random() < 0.5:
                search(ev)
            else:
                reproduce(ev)

        # The leader searches to preserve variability.
        search(division.leader)
        return children

    def _select(
        self, candidates: List[CircuitEval], constraint: float
    ) -> List[CircuitEval]:
        """Error filter + non-dominated sort + crowding selection."""
        cfg = self.config
        feasible = [ev for ev in candidates if ev.error <= constraint]
        if not feasible:
            # Everything violates the (tight, early) constraint: keep the
            # lowest-error members so the population can re-enter the
            # feasible region instead of dying out.
            feasible = sorted(candidates, key=lambda ev: ev.error)[
                : cfg.population_size
            ]
        if not cfg.use_crowding:
            ranked = sorted(feasible, key=lambda ev: -ev.fitness)
            return ranked[: cfg.population_size]
        points = [(ev.fd, ev.fa) for ev in feasible]
        chosen = nsga2_select(points, cfg.population_size)
        return [feasible[i] for i in chosen]

    # ------------------------------------------------------------------
    # protocol implementation
    # ------------------------------------------------------------------
    def _consider(self, state: OptimizerState, ev: CircuitEval) -> None:
        """Archive ``ev`` if it is feasible and the fittest seen."""
        if ev.error > self.error_bound:
            return
        if state.best is None or ev.fitness > state.best.fitness:
            state.best = ev

    def _init_state(self) -> OptimizerState:
        cfg = self.config
        rng = random.Random(cfg.seed)
        state = OptimizerState(limit=cfg.imax, rng=rng)
        state.extra["weights"] = LevelWeights.paper_defaults(self.ctx)
        state.population = self._initial_population(rng)
        for ev in state.population:
            self._consider(state, ev)
        return state

    def _step(self, state: OptimizerState) -> IterationStats:
        """One DCGWO iteration: chases, generation eval, NSGA-II select."""
        cfg = self.config
        iteration = state.iteration + 1
        constraint = self._relaxation.at(iteration)
        population = state.population
        children = self._chase_children(
            population, iteration, state.rng, state.extra["weights"]
        )
        child_evals = self._evaluate_generation(children)
        for ev in child_evals:
            self._consider(state, ev)
        state.population = self._select(
            population + child_evals, constraint
        )
        top = max(state.population, key=lambda ev: ev.fitness)
        stats = IterationStats(
            iteration=iteration,
            best_fitness=top.fitness,
            best_fd=top.fd,
            best_fa=top.fa,
            best_error=top.error,
            error_constraint=constraint,
            evaluations=self._evaluations,
        )
        state.history.append(stats)
        state.iteration = iteration
        return stats
