"""VECBEE-SASIMI baseline: greedy area-driven approximate synthesis.

Models the comparison method of Su et al. (TCAD'22): SASIMI-style
signal-by-similar-signal substitution driven by VECBEE-style batch
Monte-Carlo error estimation.  Each round enumerates candidate LACs over
the whole circuit, ranks them by *estimated area reduction* (the area of
the gates the substitution would dangle), and greedily accepts the best
candidate whose measured error stays within the bound.  Timing is never
consulted — that is precisely the weakness the paper exploits: area-driven
methods simplify non-critical logic and leave critical-path depth on the
table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.fitness import CircuitEval
from ..core.lacs import LAC, applied_copy, is_safe
from ..core.protocol import Optimizer, OptimizerState
from ..core.result import IterationStats
from ..registry import register_method
from ..sim import best_switch


@dataclass
class SasimiConfig:
    """Greedy loop knobs."""

    max_changes: int = 60  # accepted substitutions before stopping
    max_candidates: int = 120  # targets sampled per round
    beam: int = 8  # candidates error-checked per round
    seed: int = 0


@register_method(
    "VECBEE-S",
    aliases=("VECBEE", "SASIMI"),
    order=1,
    budget_fields={"max_changes": "max_changes", "beam": "beam"},
    description="greedy area-driven substitution (VECBEE + SASIMI)",
)
class VecbeeSasimi(Optimizer):
    """Greedy area-driven optimizer (the paper's VECBEE-S column)."""

    method_name = "VECBEE-S"
    config_cls = SasimiConfig

    def _area_saving(self, ev: CircuitEval, lac: LAC) -> float:
        """Live-area reduction the substitution would cause."""
        child = applied_copy(ev.circuit, lac)
        return ev.area - child.area(self.ctx.library)

    def _candidates(
        self, ev: CircuitEval, rng: random.Random
    ) -> List[Tuple[float, float, LAC]]:
        """(area_saving, similarity, lac) triples, best saving first."""
        logic = ev.circuit.logic_ids()
        if len(logic) > self.config.max_candidates:
            logic = rng.sample(logic, self.config.max_candidates)
        out: List[Tuple[float, float, LAC]] = []
        for target in logic:
            found = best_switch(
                ev.circuit, ev.values, target, self.ctx.vectors.num_vectors
            )
            if found is None:
                continue
            lac = LAC(target=target, switch=found[0])
            if not is_safe(ev.circuit, lac):
                continue
            out.append((self._area_saving(ev, lac), found[1], lac))
        out.sort(key=lambda item: (-item[0], -item[1], item[2].target))
        return out

    # ------------------------------------------------------------------
    # protocol implementation
    # ------------------------------------------------------------------
    def _init_state(self) -> OptimizerState:
        state = OptimizerState(
            limit=self.config.max_changes,
            rng=random.Random(self.config.seed),
        )
        current = self._evaluate(
            self.ctx.reference.copy(), self.ctx.reference_eval()
        )
        state.extra["current"] = current
        state.best = current
        return state

    def _step(self, state: OptimizerState) -> Optional[IterationStats]:
        """One greedy round: pick the best feasible area-saving LAC.

        Candidates inside the beam are evaluated one at a time because
        the loop accepts the *first* feasible one — batching would spend
        evaluations the greedy policy never asks for.
        """
        cfg = self.config
        current: CircuitEval = state.extra["current"]
        accepted: Optional[CircuitEval] = None
        for saving, _sim, lac in self._candidates(current, state.rng)[
            : cfg.beam
        ]:
            if saving <= 0.0:
                continue
            child_ev = self._evaluate(
                applied_copy(current.circuit, lac), current
            )
            if child_ev.error <= self.error_bound:
                accepted = child_ev
                break
        if accepted is None:
            state.done = True
            return None
        current = accepted
        state.extra["current"] = current
        best = state.best
        if current.fa > best.fa or (
            current.fa == best.fa and current.fitness > best.fitness
        ):
            state.best = current
        round_idx = state.iteration + 1
        stats = IterationStats(
            iteration=round_idx,
            best_fitness=state.best.fitness,
            best_fd=state.best.fd,
            best_fa=state.best.fa,
            best_error=state.best.error,
            error_constraint=self.error_bound,
            evaluations=self._evaluations,
        )
        state.history.append(stats)
        state.iteration = round_idx
        return stats

    def _result_population(self, state: OptimizerState):
        return [state.extra["current"]]
