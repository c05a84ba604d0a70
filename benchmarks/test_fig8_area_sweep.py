"""Fig. 8: average Ratio_cpd vs the area constraint (0.8x - 1.2x Area_con).

The paper varies the post-optimization area budget around Area_ori under
the loosest ER/NMED constraints for HEDALS, GWO, and Ours.  Because only
post-optimization depends on the area constraint, each optimizer runs
once per circuit and the resizer re-runs per budget point — exactly how
the experiment separates in the paper's flow.
"""

from _common import (
    ER_BOUND,
    NMED_BOUND,
    circuit_subset,
    effort,
    flow_config,
    profile,
    publish,
)

from repro.bench import build_benchmark
from repro.cells import default_library
from repro.core import EvalContext
from repro.postopt import post_optimize
from repro.registry import get_method
from repro.reporting import format_series
from repro.sim import ErrorMode

METHODS = ("HEDALS", "GWO", "Ours")
AREA_RATIOS = [0.8, 0.9, 1.0, 1.1, 1.2]
RC_CIRCUITS = ("c880", "c1908")
ARITH_CIRCUITS = ("Adder16", "Max16")


def sweep_panel(mode, bound, circuit_names):
    library = default_library()
    series = {m: [0.0] * len(AREA_RATIOS) for m in METHODS}
    count = 0
    for name in circuit_names:
        accurate = build_benchmark(name, profile())
        cfg = flow_config(mode, bound)
        ctx = EvalContext.build(
            accurate,
            library,
            mode,
            num_vectors=cfg.num_vectors,
            seed=cfg.seed,
            wd=cfg.wd,
        )
        count += 1
        for method in METHODS:
            opt = get_method(method).build(ctx, cfg).optimize()
            for i, ratio in enumerate(AREA_RATIOS):
                post = post_optimize(
                    opt.best.circuit,
                    library,
                    area_con=ratio * ctx.area_ori,
                    sta=ctx.sta,
                    max_moves=cfg.max_sizing_moves,
                )
                series[method][i] += post.cpd_after / ctx.cpd_ori
    for method in METHODS:
        series[method] = [v / count for v in series[method]]
    return series


def run_fig8():
    er = sweep_panel(ErrorMode.ER, ER_BOUND, circuit_subset(RC_CIRCUITS))
    nmed = sweep_panel(
        ErrorMode.NMED, NMED_BOUND, circuit_subset(ARITH_CIRCUITS)
    )
    return er, nmed


def test_fig8_area_constraint_sweep(benchmark):
    er, nmed = benchmark.pedantic(
        run_fig8, rounds=1, iterations=1, warmup_rounds=0
    )
    text = "\n\n".join(
        [
            format_series(
                f"Fig. 8a equivalent: Ratio_cpd vs area budget, 5% ER "
                f"(effort={effort()})",
                "Area ratio",
                AREA_RATIOS,
                er,
            ),
            format_series(
                "Fig. 8b equivalent: Ratio_cpd vs area budget, 2.44% NMED",
                "Area ratio",
                AREA_RATIOS,
                nmed,
            ),
            "paper: Ours lowest across all area budgets; more area",
            "headroom monotonically buys more delay reduction",
        ]
    )
    publish("fig8_area_sweep", text)
    for series in (er, nmed):
        for method, values in series.items():
            # More area headroom never makes timing meaningfully worse.
            # A 1% tolerance absorbs greedy-resizer ordering noise: a
            # bigger budget can admit an early move that blocks a
            # slightly better later sequence.
            assert all(
                b <= a + 0.01 for a, b in zip(values, values[1:])
            ), method
