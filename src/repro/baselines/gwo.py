"""Traditional single-chase grey wolf optimizer baseline.

The "GWO (single-chase)" column of Tables II/III: the classic Mirjalili
hierarchy where the three best wolves (alpha/beta/delta) jointly guide
every other wolf.  It uses the *same* approximate actions (searching and
reproduction) and the same evaluation as DCGWO, but:

* no fine hierarchy — every non-top wolf draws one decision against the
  mean fitness of the top three (single chase);
* scalar fitness selection, no Pareto fronts or crowding distance;
* no asymptotic error-constraint relaxation.

These are exactly the pieces the paper credits the double-chase strategy
with, so the delta between this baseline and DCGWO isolates the
contribution.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.dcgwo import DCGWO, DCGWOConfig
from ..core.fitness import CircuitEval, EvalContext
from ..core.population import decision_parameter, scaling_factor
from ..core.reproduction import (
    LevelWeights,
    circuit_reproduce,
    pick_superior_partner,
)
from ..core.searching import circuit_search
from ..registry import register_method


@dataclass
class GWOConfig(DCGWOConfig):
    """Single-chase GWO shares DCGWO's knobs (relaxation forced off).

    That includes ``jobs``, which behaves exactly as on
    :class:`~repro.core.dcgwo.DCGWOConfig`, so generation sharding
    reaches this baseline through the same protocol funnel.
    """


@register_method(
    "GWO",
    aliases=("single-chase",),
    order=4,
    budget_fields={"population_size": "population_size", "imax": "iterations"},
    description="classic single-chase grey wolf optimizer baseline",
)
class SingleChaseGWO(DCGWO):
    """Classic GWO with alpha/beta/delta guidance over the same actions.

    Implemented as a subclass of :class:`DCGWO` so evaluation, state
    handling, archiving and history bookkeeping stay identical; only the
    per-iteration action policy and the survivor selection differ.
    """

    config_cls = GWOConfig

    def __init__(
        self,
        ctx: EvalContext,
        error_bound: float,
        config: Optional[GWOConfig] = None,
    ):
        # A copy: the caller's config object is left as it was passed.
        cfg = dataclasses.replace(
            config or GWOConfig(), use_relaxation=False, use_crowding=False
        )
        super().__init__(ctx, error_bound, cfg)

    def _chase_children(
        self,
        population: List[CircuitEval],
        iteration: int,
        rng: random.Random,
        weights: LevelWeights,
    ):
        """Single chase: everyone consults the alpha/beta/delta mean."""
        cfg = self.config
        ranked = sorted(population, key=lambda ev: -ev.fitness)
        leaders = ranked[:3]
        followers = ranked[3:]
        leader_mean = sum(ev.fitness for ev in leaders) / len(leaders)
        a = scaling_factor(iteration, cfg.imax)
        children = []
        seen_keys = {ev.circuit.structure_key() for ev in population}

        def search(ev: CircuitEval) -> None:
            for _ in range(max(cfg.search_retries, 1)):
                child = circuit_search(ev, self.ctx, rng, cfg.num_paths)
                if child is None:
                    return
                key = child.structure_key()
                if key not in seen_keys:
                    seen_keys.add(key)
                    children.append((child, (ev,)))
                    return

        for ev in followers:
            w = decision_parameter(ev, leader_mean, a, rng)
            if w > cfg.s_omega:
                partner = pick_superior_partner(population, ev, rng)
                if partner is None or partner is ev:
                    partner = leaders[0]
                if partner is not ev:
                    child = circuit_reproduce(ev, partner, self.ctx, weights)
                    key = child.structure_key()
                    if key not in seen_keys:
                        seen_keys.add(key)
                        children.append((child, (ev, partner)))
                    else:
                        search(ev)
            else:
                search(ev)
        for ev in leaders:
            search(ev)
        return children
