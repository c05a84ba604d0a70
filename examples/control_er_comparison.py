#!/usr/bin/env python3
"""Random/control scenario: a Table II-style method comparison under ER.

Optimises two random/control benchmarks (the c880-class ALU and the
c1908-class SEC/DED decoder) under a 5 % error-rate constraint with all
five methods, and prints a Table II-style comparison grid.

Run with ``python examples/control_er_comparison.py``.
"""

from repro import ErrorMode, FlowConfig, Session
from repro.bench import build_benchmark
from repro.reporting import ComparisonRow, format_comparison_table

def main() -> None:
    rows = []
    for name in ("c880", "c1908"):
        accurate = build_benchmark(name)
        config = FlowConfig(
            error_mode=ErrorMode.ER,
            error_bound=0.05,  # the paper's loosest ER constraint
            num_vectors=2048,
            effort=0.4,
            seed=2,
        )
        with Session(accurate, config) as session:
            results = session.compare()
        row = ComparisonRow(
            circuit=name,
            area_con=results["Ours"].area_ori,
        )
        for method, result in results.items():
            row.ratios[method] = result.ratio_cpd
            row.runtimes[method] = result.runtime_s
        rows.append(row)

    print(format_comparison_table(
        "Method comparison under 5% ER (cf. paper Table II)",
        rows,
        Session.methods(),
    ))
    print("\nLower Ratio_cpd is better; every method ran through the same")
    print("post-optimization under Area_con = Area_ori, as in the paper.")

if __name__ == "__main__":
    main()
