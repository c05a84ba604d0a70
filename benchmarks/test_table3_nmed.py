"""Table III: method comparison on arithmetic circuits under 2.44% NMED.

Regenerates the paper's Table III — final Ratio_cpd and runtime for all
five methods on the eight arithmetic benchmarks, each post-optimized
under Area_con = Area_ori.
"""

from _common import (
    NMED_BOUND,
    circuit_subset,
    effort,
    paper_reference_note,
    publish,
    run_comparison_table,
)

from repro import Session
from repro.bench import ARITHMETIC_NAMES
from repro.sim import ErrorMode


def test_table3_arithmetic_nmed(benchmark):
    names = circuit_subset(ARITHMETIC_NAMES)
    text = benchmark.pedantic(
        run_comparison_table,
        args=(
            f"Table III equivalent: 2.44% NMED constraint "
            f"(effort={effort()})",
            names,
            ErrorMode.NMED,
            NMED_BOUND,
            Session.methods(),
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    publish(
        "table3_nmed", text + "\n" + paper_reference_note("III")
    )
    assert "Average" in text
