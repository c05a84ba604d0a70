"""Exact pins for the metric tail: NMED, MED, per-PO error, Level scores.

``sim/error.py`` forms NMED's signed difference in int8 with weights
built once per PO count, and computes per-PO errors and the Eq. 3 Level
scores (``core/reproduction.py``) as array operations.  The reference
implementations below are the loop-and-scalar forms they replaced,
copied verbatim; every result must equal them bit for bit, not merely
approximately (``tests/test_value_store.py::TestNmedMatmul`` keeps the
looser check against a per-PO accumulation loop).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from reference_circuits import build_adder

from repro.core import (
    LAC,
    EvalContext,
    LevelWeights,
    applied_copy,
    circuit_reproduce,
    evaluate_incremental,
    is_safe,
    po_levels,
)
from repro.core.reproduction import _error_floor
from repro.sim import (
    ErrorMode,
    best_switch,
    mean_error_distance,
    measure_error,
    nmed,
    per_po_error,
    per_po_error_rate,
)
from repro.sim.error import make_unpack_cache
from repro.sim.vectors import popcount_rows, tail_masked


# ----------------------------------------------------------------------
# reference implementations (verbatim)
# ----------------------------------------------------------------------
def _ref_unpack_matrix(mat, num_vectors):
    bits = np.unpackbits(
        np.ascontiguousarray(mat).view(np.uint8),
        axis=1,
        bitorder="little",
    )
    return bits[:, :num_vectors]


def _ref_po_weights(num_pos, denom=1.0):
    return np.array(
        [float(2**i) / denom for i in range(num_pos)], dtype=np.float64
    )


def _ref_signed_bit_diff(rbits_all, abits_all):
    diff = rbits_all.astype(np.float64)
    diff -= abits_all
    return diff


def ref_mean_error_distance(ref, app, num_vectors):
    rbits_all = _ref_unpack_matrix(ref, num_vectors)
    abits_all = _ref_unpack_matrix(app, num_vectors)
    acc = _ref_po_weights(ref.shape[0]) @ _ref_signed_bit_diff(
        rbits_all, abits_all
    )
    return float(np.abs(acc).mean())


def ref_nmed(ref, app, num_vectors):
    num_pos = ref.shape[0]
    denom = float(2**num_pos - 1)
    rbits_all = _ref_unpack_matrix(ref, num_vectors)
    abits_all = _ref_unpack_matrix(app, num_vectors)
    acc = _ref_po_weights(num_pos, denom) @ _ref_signed_bit_diff(
        rbits_all, abits_all
    )
    return float(np.abs(acc).mean())


def ref_per_po_error_rate(ref, app, num_vectors):
    counts = popcount_rows(tail_masked(ref ^ app, num_vectors))
    nv = float(num_vectors)
    return [int(c) / nv for c in counts]


def ref_per_po_error(mode, ref, app, num_vectors):
    rates = ref_per_po_error_rate(ref, app, num_vectors)
    if mode is ErrorMode.ER:
        return rates
    num_pos = ref.shape[0]
    denom = float(2**num_pos - 1)
    return [r * (float(2**i) / denom) for i, r in enumerate(rates)]


def ref_po_levels(ev, ctx, weights):
    floor = _error_floor(ctx.vectors.num_vectors)
    ta_floor = 0.01 * ctx.cpd_ori
    levels = {}
    for idx, po in enumerate(ev.circuit.po_ids):
        ta = max(ev.report.po_arrival(po), ta_floor, 1e-9)
        err = max(ev.per_po_error[idx], floor)
        levels[po] = weights.wt / ta + weights.we / err
    return levels


def _bits(values):
    """The exact float64 bit pattern of a float or a list of floats."""
    return np.asarray(values, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# PO matrices
# ----------------------------------------------------------------------
#: (POs, vectors): the Table I adder's 129 POs, narrower outputs, tails
#: that are not a multiple of 64 vectors, and a single PO.
SHAPES = (
    (129, 2048),
    (17, 2048),
    (11, 1024),
    (129, 200),
    (17, 130),
    (1, 2048),
    (1, 130),
)


def _matrices(num_pos, num_vectors, seed):
    """A reference matrix and the approximate ones to score against it.

    Random words fill the tail bits past ``num_vectors`` too, so the
    metrics' tail masking is exercised.
    """
    rng = np.random.default_rng(seed)
    words = (num_vectors + 63) // 64
    ref = rng.integers(0, 2**64, size=(num_pos, words), dtype=np.uint64)
    # Sparse flips on a few rows, as a child's PO rows differ.
    sparse = ref.copy()
    rows = rng.choice(num_pos, size=max(1, num_pos // 8), replace=False)
    for row in rows:
        sparse[row] ^= rng.integers(
            0, 2**64, size=words, dtype=np.uint64
        ) & rng.integers(0, 2**64, size=words, dtype=np.uint64)
    return ref, {
        "equal": ref.copy(),
        "flipped": ~ref,
        "random": rng.integers(
            0, 2**64, size=(num_pos, words), dtype=np.uint64
        ),
        "sparse": sparse,
    }


@pytest.mark.parametrize("num_pos,num_vectors", SHAPES)
class TestMetricsExact:
    def test_nmed_and_med(self, num_pos, num_vectors):
        ref, apps = _matrices(num_pos, num_vectors, seed=num_pos)
        cache = make_unpack_cache()
        for name, app in apps.items():
            want = ref_nmed(ref, app, num_vectors)
            for _ in range(2):  # cold, then through the unpack cache
                got = nmed(ref, app, num_vectors, cache)
                assert _bits(got) == _bits(want), name
                assert _bits(
                    measure_error(ErrorMode.NMED, ref, app, num_vectors, cache)
                ) == _bits(want), name
            assert _bits(mean_error_distance(ref, app, num_vectors)) == _bits(
                ref_mean_error_distance(ref, app, num_vectors)
            ), name
        assert nmed(ref, apps["equal"], num_vectors) == 0.0

    @pytest.mark.parametrize("mode", list(ErrorMode))
    def test_per_po_error(self, num_pos, num_vectors, mode):
        ref, apps = _matrices(num_pos, num_vectors, seed=num_pos + 1)
        for name, app in apps.items():
            got = per_po_error(mode, ref, app, num_vectors)
            want = ref_per_po_error(mode, ref, app, num_vectors)
            assert type(got) is list and len(got) == num_pos, name
            assert all(type(x) is float for x in got), name
            assert _bits(got) == _bits(want), name
            rates = per_po_error_rate(ref, app, num_vectors)
            assert all(type(x) is float for x in rates), name
            assert _bits(rates) == _bits(
                ref_per_po_error_rate(ref, app, num_vectors)
            ), name
        flipped = per_po_error_rate(ref, apps["flipped"], num_vectors)
        assert flipped == [1.0] * num_pos


# ----------------------------------------------------------------------
# Level scores
# ----------------------------------------------------------------------
def _evaluated_children(ctx, count, seed):
    """Evaluated children one to three LACs from the reference, plus
    crossovers of them, so per-PO errors and arrivals vary."""
    rng = random.Random(seed)
    parent = ctx.reference_eval()
    logic = ctx.reference.logic_ids()
    evals = []
    while len(evals) < count:
        ev = parent
        for _ in range(rng.randint(1, 3)):
            target = logic[rng.randrange(len(logic))]
            found = best_switch(
                ev.circuit, ev.values, target, ctx.vectors.num_vectors
            )
            if found is None:
                continue
            lac = LAC(target=target, switch=found[0])
            if not is_safe(ev.circuit, lac):
                continue
            ev = evaluate_incremental(ctx, applied_copy(ev.circuit, lac), ev)
        if ev is not parent:
            evals.append(ev)
    for a, b in zip(evals[::2], evals[1::2]):
        child = circuit_reproduce(a, b, ctx)
        evals.append(evaluate_incremental(ctx, child, (a, b)))
    return [parent] + evals


@pytest.mark.parametrize("mode", list(ErrorMode))
@pytest.mark.parametrize("width,num_vectors", [(16, 2048), (8, 200)])
def test_po_levels_exact(library, mode, width, num_vectors):
    ctx = EvalContext.build(
        build_adder(width), library, mode, num_vectors=num_vectors, seed=5
    )
    weights = LevelWeights.paper_defaults(ctx)
    for ev in _evaluated_children(ctx, 8, seed=width):
        got = po_levels(ev, ctx, weights)
        want = ref_po_levels(ev, ctx, weights)
        assert list(got) == list(want)
        assert all(type(x) is float for x in got.values())
        assert _bits(list(got.values())) == _bits(list(want.values()))
