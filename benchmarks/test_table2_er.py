"""Table II: method comparison on random/control circuits under 5% ER.

Regenerates the paper's Table II — final Ratio_cpd and runtime for
VECBEE-SASIMI / VaACS / HEDALS / single-chase GWO / DCGWO on the seven
random/control benchmarks, every method post-optimized under
Area_con = Area_ori.
"""

from _common import (
    ER_BOUND,
    circuit_subset,
    effort,
    paper_reference_note,
    publish,
    run_comparison_table,
)

from repro import Session
from repro.bench import RANDOM_CONTROL_NAMES
from repro.sim import ErrorMode


def test_table2_random_control_5pct_er(benchmark):
    names = circuit_subset(RANDOM_CONTROL_NAMES)
    text = benchmark.pedantic(
        run_comparison_table,
        args=(
            f"Table II equivalent: 5% ER constraint "
            f"(effort={effort()})",
            names,
            ErrorMode.ER,
            ER_BOUND,
            Session.methods(),
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    publish(
        "table2_er", text + "\n" + paper_reference_note("II")
    )
    assert "Average" in text
