#!/usr/bin/env python3
"""Deep-dive analysis: power savings, Pareto front, and LAC traces.

Beyond the headline Ratio_cpd, this example shows what the optimizer
actually did to a circuit:

1. run DCGWO on a 16-bit Kogge-Stone adder under a 1 % NMED bound;
2. print the per-iteration convergence table;
3. print the surviving (fd, fa) Pareto front;
4. diff the approximate netlist against the accurate one (the effective
   LAC list);
5. compare dynamic/leakage power before and after.

Run with ``python examples/power_pareto_analysis.py``.
"""

from repro import ErrorMode, FlowConfig, Session, default_library
from repro.bench import kogge_stone_adder_circuit
from repro.core import format_convergence, format_diff, format_pareto_front
from repro.sim import random_vectors, simulate
from repro.sta import STAEngine, estimate_power

def main() -> None:
    library = default_library()
    accurate = kogge_stone_adder_circuit(16, "ks16")

    config = FlowConfig(
        error_mode=ErrorMode.NMED,
        error_bound=0.01,
        num_vectors=2048,
        effort=0.5,
        seed=7,
    )
    with Session(accurate, config) as session:
        result = session.run("Ours")

    print("convergence (best population member per iteration):")
    print(format_convergence(result.optimization))

    print("\nfinal (fd, fa) Pareto front:")
    print(format_pareto_front(result.optimization.population))

    print("\neffective approximate changes:")
    print(format_diff(accurate, result.optimization.best.circuit))

    # --- power before/after -------------------------------------------
    vecs = random_vectors(len(accurate.pi_ids), 4096, seed=11)
    engine = STAEngine(library)
    p_before = estimate_power(
        accurate, library, simulate(accurate, vecs), vecs, engine
    )
    p_after = estimate_power(
        result.circuit, library, simulate(result.circuit, vecs), vecs,
        engine,
    )
    print(f"\npower: {p_before.total_uw:.2f} uW -> "
          f"{p_after.total_uw:.2f} uW "
          f"(dynamic {p_before.dynamic_uw:.2f} -> "
          f"{p_after.dynamic_uw:.2f})")
    print(f"CPD:   {result.cpd_ori:.2f} ps -> {result.cpd_fac:.2f} ps "
          f"(Ratio_cpd {result.ratio_cpd:.4f}, NMED {result.error:.5f})")

if __name__ == "__main__":
    main()
