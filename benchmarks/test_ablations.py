"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's own comparisons, these isolate each DCGWO ingredient:

* double-chase reproduction on/off (searching-only);
* asymptotic error relaxation on/off;
* crowding-distance Pareto selection vs plain fitness sorting;
* delay-based vs unit-depth fitness;
* the gate-simplification LAC extension on/off.

Single-run deltas on a metaheuristic are noisy, so each variant is
averaged over two circuits under their paper-assigned metrics
(Adder16 / 2.44 % NMED and c880 / 5 % ER) and two seeds.
"""

from _common import (
    ER_BOUND,
    NMED_BOUND,
    effort,
    num_vectors,
    profile,
    publish,
    seed,
)

from repro.bench import build_benchmark
from repro.cells import default_library
from repro.core import DCGWO, DCGWOConfig, DepthMode, EvalContext
from repro.postopt import post_optimize
from repro.reporting import format_series
from repro.sim import ErrorMode

#: (circuit, metric, bound) pairs the variants are averaged over.
WORKLOADS = (
    ("Adder16", ErrorMode.NMED, NMED_BOUND),
    ("c880", ErrorMode.ER, ER_BOUND),
)
SEEDS = (0, 1)


def _scaled_config(run_seed: int, **overrides) -> DCGWOConfig:
    e = effort()
    return DCGWOConfig(
        population_size=max(int(round(30 * e)), 6),
        imax=max(int(round(20 * e)), 4),
        seed=run_seed,
        **overrides,
    )


def run_ablations():
    library = default_library()
    # label -> (the context's depth measure, DCGWOConfig overrides)
    variants = {
        "full DCGWO": (DepthMode.DELAY, {}),
        "no reproduction": (DepthMode.DELAY, dict(use_reproduction=False)),
        "no relaxation": (DepthMode.DELAY, dict(use_relaxation=False)),
        "no crowding": (DepthMode.DELAY, dict(use_crowding=False)),
        "unit-depth fitness": (DepthMode.UNIT, {}),
        "+simplification": (
            DepthMode.DELAY, dict(enable_simplification=True)
        ),
    }
    sums = {label: [0.0, 0.0] for label in variants}  # ratio, error
    runs = 0
    for name, mode, bound in WORKLOADS:
        accurate = build_benchmark(name, profile())
        for run_seed in SEEDS:
            contexts = {}
            for label, (depth_mode, overrides) in variants.items():
                if depth_mode not in contexts:
                    contexts[depth_mode] = EvalContext.build(
                        accurate, library, mode,
                        num_vectors=num_vectors(), seed=seed(),
                        depth_mode=depth_mode,
                    )
                ctx = contexts[depth_mode]
                cfg = _scaled_config(run_seed, **overrides)
                result = DCGWO(ctx, bound, cfg).optimize()
                post = post_optimize(
                    result.best.circuit, library, ctx.area_ori,
                    sta=ctx.sta,
                )
                sums[label][0] += post.cpd_after / ctx.cpd_ori
                sums[label][1] += result.best.error / bound
            runs += 1
    return {
        label: [r / runs, e / runs]
        for label, (r, e) in sums.items()
    }, runs


def test_ablation_dcgwo_ingredients(benchmark):
    rows, runs = benchmark.pedantic(
        run_ablations, rounds=1, iterations=1, warmup_rounds=0
    )
    text = format_series(
        f"DCGWO ablations, mean over {runs} runs "
        f"(Adder16/NMED + c880/ER x {len(SEEDS)} seeds, "
        f"effort={effort()})",
        "variant",
        ["Ratio_cpd", "err/bound"],
        rows,
    )
    publish("ablations", text)
    for label, (ratio, rel_err) in rows.items():
        assert 0.0 < ratio <= 1.001, label
        assert rel_err <= 1.0 + 1e-9, label
