"""VaACS-style baseline: genetic-algorithm depth-driven synthesis.

Models Balaskas et al. (TCSI'22): approximate circuits evolved with a
genetic algorithm whose fitness targets delay under an error constraint.
Tournament selection, PO-cone crossover (the natural crossover for
netlists sharing a gate ID space), and similarity-guided random-gate
mutation, with elitism.  Unlike the paper's framework, the GA neither
partitions its population nor balances depth against area — the fitness
is purely depth-driven with infeasible individuals heavily penalised.

Each generation's offspring are constructed first (selection and
mutation draw only on the previous generation's evaluations) and then
evaluated as one generation through the protocol's batch funnel, which
keeps the seeded trajectory bit-identical to per-child evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..core.fitness import CircuitEval, ParentEvals
from ..core.lacs import LAC, applied_copy, is_safe
from ..core.protocol import Optimizer, OptimizerState
from ..core.reproduction import LevelWeights, circuit_reproduce
from ..core.result import IterationStats
from ..netlist import Circuit
from ..registry import register_method
from ..sim import best_switch


@dataclass
class VaacsConfig:
    """GA knobs (population scale matches the DCGWO defaults)."""

    population_size: int = 30
    generations: int = 20
    tournament: int = 2
    crossover_rate: float = 0.6
    mutation_rate: float = 0.8
    elitism: int = 2
    seed: int = 0
    jobs: int = 0  # worker processes (0: serial unless REPRO_JOBS is set)


@register_method(
    "VaACS",
    aliases=("GA",),
    order=2,
    budget_fields={
        "population_size": "population_size",
        "generations": "iterations",
    },
    description="depth-driven genetic algorithm (VaACS-style)",
)
class VaACS(Optimizer):
    """Depth-driven genetic algorithm (the paper's VaACS column)."""

    method_name = "VaACS"
    config_cls = VaacsConfig

    # ------------------------------------------------------------------
    def _ga_fitness(self, ev: CircuitEval) -> float:
        """Depth-only fitness; infeasible individuals are crushed."""
        if ev.error > self.error_bound:
            return ev.fd * 1e-3
        return ev.fd

    def _mutate(
        self, circuit, values, rng: random.Random
    ) -> LAC | None:
        logic = circuit.logic_ids()
        if not logic:
            return None
        for _ in range(6):
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

    def _tournament(
        self, population: List[CircuitEval], rng: random.Random
    ) -> CircuitEval:
        picks = [
            population[rng.randrange(len(population))]
            for _ in range(self.config.tournament)
        ]
        return max(picks, key=self._ga_fitness)

    def _evaluate_values_cache(self, child, parent_ev: CircuitEval):
        """Similarity queries for mutation reuse the parent's values.

        The child differs from the parent only by crossover; re-simulating
        just to seed the similarity oracle would double the GA's cost, and
        the parent's signal statistics are a close proxy.
        """
        return parent_ev.values

    # ------------------------------------------------------------------
    # protocol implementation
    # ------------------------------------------------------------------
    def _consider(self, state: OptimizerState, ev: CircuitEval) -> None:
        if ev.error > self.error_bound:
            return
        if state.best is None or ev.fd > state.best.fd:
            state.best = ev

    def _init_state(self) -> OptimizerState:
        cfg = self.config
        rng = random.Random(cfg.seed)
        state = OptimizerState(limit=cfg.generations, rng=rng)
        state.extra["weights"] = LevelWeights.paper_defaults(self.ctx)
        reference = self.ctx.reference
        items: List[Tuple[Circuit, ParentEvals]] = []
        for _ in range(cfg.population_size):
            lac = self._mutate(reference, self.ctx.reference_values, rng)
            child = (
                applied_copy(reference, lac)
                if lac is not None
                else reference.copy()
            )
            items.append((child, (self.ctx.reference_eval(),)))
        state.population = self._evaluate_generation(items)
        for ev in state.population:
            self._consider(state, ev)
        return state

    def _step(self, state: OptimizerState) -> IterationStats:
        """One GA generation: elitism + offspring batch."""
        cfg = self.config
        rng = state.rng
        weights = state.extra["weights"]
        population = state.population
        ranked = sorted(population, key=self._ga_fitness, reverse=True)
        next_pop: List[CircuitEval] = ranked[: cfg.elitism]
        pending: List[Tuple[Circuit, ParentEvals]] = []
        while len(next_pop) + len(pending) < cfg.population_size:
            parent_a = self._tournament(population, rng)
            parents: Tuple[CircuitEval, ...] = (parent_a,)
            if rng.random() < cfg.crossover_rate:
                parent_b = self._tournament(population, rng)
                child = circuit_reproduce(
                    parent_a, parent_b, self.ctx, weights
                )
                parents = (parent_a, parent_b)
            else:
                child = parent_a.circuit.copy()
            if rng.random() < cfg.mutation_rate:
                values = self._evaluate_values_cache(child, parent_a)
                lac = self._mutate(child, values, rng)
                if lac is not None:
                    child = applied_copy(child, lac)
            # Crossover stamps provenance against the fitter parent
            # and a follow-up mutation folds into the same record, so
            # offering both parents always covers the match.
            pending.append((child, parents))
        for ev in self._evaluate_generation(pending):
            self._consider(state, ev)
            next_pop.append(ev)
        state.population = next_pop
        gen = state.iteration + 1
        top = max(next_pop, key=self._ga_fitness)
        stats = IterationStats(
            iteration=gen,
            best_fitness=top.fitness,
            best_fd=top.fd,
            best_fa=top.fa,
            best_error=top.error,
            error_constraint=self.error_bound,
            evaluations=self._evaluations,
        )
        state.history.append(stats)
        state.iteration = gen
        return stats
