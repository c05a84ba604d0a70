"""Fig. 6: average Ratio_cpd vs the depth weight wd.

The paper sweeps the fitness depth weight wd from 0 to 1 under the
tightest and loosest ER constraints (Fig. 6a) and NMED constraints
(Fig. 6b), showing the optimum at wd = 0.8.  This bench reruns the DCGWO
flow per wd point and prints both panels.
"""

from _common import (
    ER_POINTS,
    NMED_POINTS,
    circuit_subset,
    effort,
    flow_config,
    profile,
    publish,
)

from repro import Session
from repro.bench import build_benchmark
from repro.cells import default_library
from repro.reporting import format_series
from repro.sim import ErrorMode

WD_POINTS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

#: Representative subsets keep the 2-D sweep tractable.
RC_CIRCUITS = ("c880", "c1908")
ARITH_CIRCUITS = ("Adder16", "Max16")


def sweep_panel(mode, bounds, circuit_names):
    library = default_library()
    circuits = {
        n: build_benchmark(n, profile()) for n in circuit_names
    }
    series = {}
    for bound in bounds:
        key = f"{mode.value.upper()} {100 * bound:.2f}%"
        values = []
        for wd in WD_POINTS:
            ratios = []
            for name, accurate in circuits.items():
                cfg = flow_config(mode, bound, wd=wd)
                with Session(accurate, cfg, library) as session:
                    ratios.append(session.run("Ours").ratio_cpd)
            values.append(sum(ratios) / len(ratios))
        series[key] = values
    return series


def run_fig6():
    er = sweep_panel(
        ErrorMode.ER,
        [ER_POINTS[0], ER_POINTS[-1]],
        circuit_subset(RC_CIRCUITS),
    )
    nmed = sweep_panel(
        ErrorMode.NMED,
        [NMED_POINTS[0], NMED_POINTS[-1]],
        circuit_subset(ARITH_CIRCUITS),
    )
    return er, nmed


def test_fig6_depth_weight_sweep(benchmark):
    er, nmed = benchmark.pedantic(
        run_fig6, rounds=1, iterations=1, warmup_rounds=0
    )
    text = "\n\n".join(
        [
            format_series(
                f"Fig. 6a equivalent: Ratio_cpd vs wd under ER "
                f"(effort={effort()})",
                "wd",
                WD_POINTS,
                er,
            ),
            format_series(
                "Fig. 6b equivalent: Ratio_cpd vs wd under NMED",
                "wd",
                WD_POINTS,
                nmed,
            ),
            "paper: minimum Ratio_cpd at wd = 0.8 on all four curves",
        ]
    )
    publish("fig6_weight_sweep", text)
    for series in (er, nmed):
        for values in series.values():
            assert all(0.0 < v <= 1.001 for v in values)
