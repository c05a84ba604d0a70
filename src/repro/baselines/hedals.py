"""HEDALS-style baseline: depth-driven greedy approximate synthesis.

Models Meng et al. (TCAD'23): a delay-driven method that repeatedly
applies the LAC that best shortens the critical path while spending the
error budget as slowly as possible.  Our substitute for HEDALS' critical
error graph is direct measurement: per round, candidate targets are the
gates on the near-critical paths; each candidate's true CPD and error are
evaluated and the move with the best delay gain per unit error is
accepted.  Area is never an objective — the depth-driven weakness the
paper contrasts against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.fitness import CircuitEval
from ..core.lacs import LAC, applied_copy, is_safe
from ..core.protocol import Optimizer, OptimizerState
from ..core.result import IterationStats
from ..netlist import is_const
from ..registry import register_method
from ..sim import best_switch
from ..sta import critical_paths, path_logic_gates


@dataclass
class HedalsConfig:
    """Greedy loop knobs."""

    max_changes: int = 60  # accepted LACs before stopping
    beam: int = 8  # feasible candidates compared per round
    max_round_evals: int = 32  # similarity-ordered scan depth per round
    slack_fraction: float = 0.05  # paths within 5% of CPD are critical


@register_method(
    "HEDALS",
    order=3,
    budget_fields={"max_changes": "max_changes", "beam": "beam"},
    description="greedy depth-driven substitution (HEDALS-style)",
)
class HedalsLike(Optimizer):
    """Depth-driven greedy optimizer (the paper's HEDALS column)."""

    method_name = "HEDALS"
    config_cls = HedalsConfig

    def _critical_targets(self, ev: CircuitEval) -> List[int]:
        """Gates on near-critical paths plus their fan-ins, latest first.

        Fan-ins are included because substituting a side input of a path
        gate also shortens the path — the same enlargement HEDALS gets
        from operating on the critical error graph rather than a single
        path cut.
        """
        circuit = ev.circuit
        gates: List[int] = []
        seen = set()

        def add(gid: int) -> None:
            if gid not in seen and circuit.is_logic(gid):
                seen.add(gid)
                gates.append(gid)

        paths = critical_paths(
            ev.report, slack_fraction=self.config.slack_fraction
        )
        for path in paths:
            for gid in path_logic_gates(circuit, path):
                add(gid)
                for fi in circuit.fanins[gid]:
                    if not is_const(fi):
                        add(fi)
        arrival, row = ev.report.arrival_a, ev.report.index.row
        gates.sort(key=lambda g: -arrival[row[g]])
        return gates

    # ------------------------------------------------------------------
    # protocol implementation
    # ------------------------------------------------------------------
    def _init_state(self) -> OptimizerState:
        # No RNG: the greedy loop is fully deterministic (similarity
        # ranking + measured gain), so the state carries none.
        state = OptimizerState(limit=self.config.max_changes)
        current = self._evaluate(
            self.ctx.reference.copy(), self.ctx.reference_eval()
        )
        state.extra["current"] = current
        state.best = current
        return state

    def _step(self, state: OptimizerState) -> Optional[IterationStats]:
        """One greedy round of depth reduction.

        Rank every critical-path target by the similarity of its best
        switch (HEDALS' critical error graph plays this role: find the
        depth-reducing LACs that cost the least error), then spend the
        full-evaluation beam on the most promising.  Evaluation stays
        sequential: the scan stops at ``beam`` feasible candidates, a
        data-dependent cutoff batching would overshoot.
        """
        cfg = self.config
        current: CircuitEval = state.extra["current"]
        scored = []
        for target in self._critical_targets(current):
            found = best_switch(
                current.circuit,
                current.values,
                target,
                self.ctx.vectors.num_vectors,
            )
            if found is None:
                continue
            lac = LAC(target=target, switch=found[0])
            if is_safe(current.circuit, lac):
                scored.append((found[1], lac))
        scored.sort(key=lambda item: (-item[0], item[1].target))
        chosen: Optional[CircuitEval] = None
        chosen_score = 0.0
        feasible_seen = 0
        for _sim, lac in scored[: cfg.max_round_evals]:
            child_ev = self._evaluate(
                applied_copy(current.circuit, lac), current
            )
            if child_ev.error > self.error_bound:
                continue
            gain = current.depth - child_ev.depth
            if gain <= 0.0:
                continue
            # Delay gain per unit of error spent (floored).
            err_cost = max(child_ev.error - current.error, 1e-9)
            score = gain / err_cost
            if chosen is None or score > chosen_score:
                chosen, chosen_score = child_ev, score
            feasible_seen += 1
            if feasible_seen >= cfg.beam:
                break
        if chosen is None:
            state.done = True
            return None
        current = chosen
        state.extra["current"] = current
        if current.fd > state.best.fd:
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
