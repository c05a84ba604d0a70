#!/usr/bin/env python3
"""Bring your own netlist: builder API, Verilog round-trip, STA, LACs.

Shows the substrate layers directly, without the optimizer:

1. build a small parity+compare datapath with :class:`CircuitBuilder`;
2. write it to structural Verilog and parse it back;
3. run STA and print the PrimeTime-style path report;
4. apply a hand-picked wire-by-constant LAC and measure the exact error
   with exhaustive vectors.

Run with ``python examples/custom_netlist_io.py``.
"""

from repro import STAEngine, default_library
from repro.core import LAC, applied_copy
from repro.netlist import (
    CONST0,
    CircuitBuilder,
    parse_verilog,
    write_verilog,
)
from repro.sim import (
    ErrorMode,
    error_report,
    exhaustive_vectors,
    rank_switches,
    simulate,
)
from repro.sta import format_path, format_summary

def build_datapath():
    b = CircuitBuilder("parity_cmp")
    a = b.pis(4, "a")
    c = b.pis(4, "b")
    parity = b.reduce_tree("XOR2", a + c)
    gt = b.greater_than(a, c)
    b.po(parity, "parity")
    b.po(gt, "agtb")
    b.po(b.and2(parity, gt), "both")
    return b.done()

def main() -> None:
    library = default_library()
    circuit = build_datapath()

    # --- Verilog round trip -----------------------------------------
    text = write_verilog(circuit)
    print(text)
    parsed = parse_verilog(text)
    assert parsed.num_gates == circuit.num_gates

    # --- Static timing analysis --------------------------------------
    engine = STAEngine(library)
    report = engine.analyze(circuit)
    print(format_summary(report, library))
    print()
    print(format_path(report))

    # --- Inspect LAC candidates on the slowest gate -------------------
    vecs = exhaustive_vectors(len(circuit.pi_ids))
    values = simulate(circuit, vecs)
    row = report.index.row
    worst_gate = max(
        circuit.logic_ids(), key=lambda g: report.arrival_a[row[g]]
    )
    print(f"\nswitch candidates for gate {worst_gate} "
          f"({circuit.cells[worst_gate]}):")
    for switch, sim in rank_switches(
        circuit, values, worst_gate, vecs.num_vectors
    )[:5]:
        kind = "const" if switch < 0 else f"gate {switch}"
        print(f"  {kind:10s} similarity {sim:.3f}")

    # --- Apply one LAC and measure the exact error --------------------
    approx = applied_copy(circuit, LAC(worst_gate, CONST0))
    values_app = simulate(approx, vecs)
    rep = error_report(
        ErrorMode.ER, circuit, values, approx, values_app, vecs
    )
    approx_timing = engine.analyze(approx)
    print(f"\nafter wire-by-constant on gate {worst_gate}:")
    print(f"  exact ER   = {rep.error_rate:.4f}")
    print(f"  CPD        = {report.cpd:.2f} -> {approx_timing.cpd:.2f} ps")

if __name__ == "__main__":
    main()
