"""Fig. 7: average Ratio_cpd vs the error constraint.

Panel (a): ER in {1..5%} on random/control circuits.  Panel (b): NMED in
{0.48..2.44%} on arithmetic circuits.  Methods: HEDALS, single-chase GWO,
and DCGWO ("Ours"), as in the paper.
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

METHODS = ("HEDALS", "GWO", "Ours")
RC_CIRCUITS = ("c880", "c1908")
ARITH_CIRCUITS = ("Adder16", "Max16")


def sweep_panel(mode, bounds, circuit_names):
    library = default_library()
    circuits = {
        n: build_benchmark(n, profile()) for n in circuit_names
    }
    series = {m: [] for m in METHODS}
    for bound in bounds:
        sums = {m: 0.0 for m in METHODS}
        for name, accurate in circuits.items():
            cfg = flow_config(mode, bound)
            with Session(accurate, cfg, library) as session:
                results = session.compare(METHODS)
            for m in METHODS:
                sums[m] += results[m].ratio_cpd
        for m in METHODS:
            series[m].append(sums[m] / len(circuits))
    return series


def run_fig7():
    er = sweep_panel(ErrorMode.ER, ER_POINTS, circuit_subset(RC_CIRCUITS))
    nmed = sweep_panel(
        ErrorMode.NMED, NMED_POINTS, circuit_subset(ARITH_CIRCUITS)
    )
    return er, nmed


def test_fig7_error_constraint_sweep(benchmark):
    er, nmed = benchmark.pedantic(
        run_fig7, rounds=1, iterations=1, warmup_rounds=0
    )
    text = "\n\n".join(
        [
            format_series(
                f"Fig. 7a equivalent: Ratio_cpd vs ER constraint "
                f"(effort={effort()})",
                "ER",
                [f"{100 * b:.0f}%" for b in ER_POINTS],
                er,
            ),
            format_series(
                "Fig. 7b equivalent: Ratio_cpd vs NMED constraint",
                "NMED",
                [f"{100 * b:.2f}%" for b in NMED_POINTS],
                nmed,
            ),
            "paper: Ours below GWO and HEDALS at every constraint point",
        ]
    )
    publish("fig7_error_sweep", text)
    # Shape check: looser constraints never dramatically hurt timing.
    for series in (er, nmed):
        for method, values in series.items():
            assert all(0.0 < v <= 1.001 for v in values)
