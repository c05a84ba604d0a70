"""Run-level oracle: a seeded optimizer run against full evaluation.

Every candidate an optimizer evaluates goes through one of the
protocol's two funnels, ``Optimizer._evaluate`` (one candidate) and
``Optimizer._evaluate_generation`` (a generation).  Normally both take
the per-child cone walk (or the shard pool).  The oracle replaces both
funnels with plain full :func:`repro.core.evaluate` calls for the
length of one run; since the cone walk is bit-identical to full
evaluation, the two runs must agree on every evaluation count, history
row, archived best and final population member.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.core import (
    OptimizationResult,
    Optimizer,
    close_dispatcher,
    evaluate,
)


def _run(optimizer: Optimizer) -> OptimizationResult:
    # Under REPRO_JOBS the as-shipped run starts a shard pool on the
    # optimizer's context; close it here instead of leaving it to GC.
    try:
        return optimizer.optimize()
    finally:
        close_dispatcher(optimizer.ctx)


def _full_evaluate(self, circuit, parents=None):
    self._evaluations += 1
    return evaluate(self.ctx, circuit)


def _full_generation(self, items):
    return [_full_evaluate(self, circuit, None) for circuit, _ in items]


def run_with_full_evaluation(
    build: Callable[[], Optimizer]
) -> OptimizationResult:
    """Run ``build()``'s optimizer with every evaluation done in full."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Optimizer, "_evaluate", _full_evaluate)
        mp.setattr(Optimizer, "_evaluate_generation", _full_generation)
        return _run(build())


def _eval_fields(ev):
    return (
        ev.fitness,
        ev.fd,
        ev.fa,
        ev.depth,
        ev.area,
        ev.error,
        list(ev.per_po_error),
        ev.circuit.structure_key(),
        ev.circuit.full_structure_key(),
    )


def assert_matches_full_evaluation(
    build: Callable[[], Optimizer]
) -> OptimizationResult:
    """Run ``build()`` as shipped and under full evaluation; compare.

    ``build`` must return a fresh optimizer on a fresh context each
    call (evaluation consumes provenance and memoizes on circuits, so
    the two runs share nothing).  Returns the as-shipped result.
    """
    got = _run(build())
    want = run_with_full_evaluation(build)
    assert got.evaluations == want.evaluations
    assert got.history == want.history
    assert _eval_fields(got.best) == _eval_fields(want.best)
    assert [_eval_fields(ev) for ev in got.population] == [
        _eval_fields(ev) for ev in want.population
    ]
    return got
