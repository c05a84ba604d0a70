"""Reference circuits shared by fixtures and importing tests.

Lives in its own (uniquely named) module rather than ``conftest.py`` so
tests can import the builders directly without colliding with the
benchmark suite's ``conftest`` when both directories are collected.
"""

from __future__ import annotations

from repro.netlist import (
    CONST0,
    CONST1,
    Circuit,
    CircuitBuilder,
    write_verilog,
)


def build_fig3_circuit() -> Circuit:
    """The example circuit of the paper's Fig. 3.

    PIs 1-4; gates 5..12 with the exact fan-in adjacency printed in the
    figure; POs 13 <- 11, 14 <- 9, 15 <- 12.
    """
    c = Circuit("fig3")
    for i in range(4):
        c.add_pi(f"i{i + 1}")  # ids 1..4
    c.add_gate("AND2D1", (1, 2))  # 5
    c.add_gate("OR2D1", (2, 3))  # 6
    c.add_gate("NAND2D1", (3, 4))  # 7
    c.add_gate("NOR2D1", (5, 6))  # 8
    c.add_gate("XOR2D1", (6, 7))  # 9
    c.add_gate("AND2D1", (4, 7))  # 10
    c.add_gate("OR2D1", (5, 8))  # 11
    c.add_gate("AND2D1", (9, 10))  # 12
    c.add_po(11, "o1")  # 13
    c.add_po(9, "o2")  # 14
    c.add_po(12, "o3")  # 15
    return c


def build_adder(width: int, name: str = "adder") -> Circuit:
    """Ripple-carry adder with a carry-out PO, LSB-first."""
    b = CircuitBuilder(f"{name}{width}")
    a = b.pis(width, "a")
    bb = b.pis(width, "b")
    sums, cout = b.ripple_adder(a, bb)
    b.pos(sums + [cout], "s")
    return b.done()


def build_wide_circuit() -> Circuit:
    """Levels wide enough to force the timing walk's vectorized kernel."""
    b = CircuitBuilder("wide")
    pis = b.pis(24)
    l1 = [b.nand2(pis[i], pis[(i + 1) % 24]) for i in range(24)]
    l2 = [b.xor2(l1[i], l1[(i + 5) % 24]) for i in range(24)]
    l3 = [
        b.gate("MAJ3", l2[i], l2[(i + 1) % 24], l1[(i + 2) % 24])
        for i in range(24)
    ]
    b.pos(l3)
    return b.done()


def consumers_first_verilog() -> str:
    """The wide circuit as Verilog with its instances declared consumers
    first (``parse_verilog`` renumbers it on entry)."""
    lines = write_verilog(build_wide_circuit()).splitlines()
    gates = [ln for ln in lines if ".Z(" in ln]
    rest = [ln for ln in lines[:-1] if ".Z(" not in ln]
    return "\n".join(rest + gates[::-1] + ["endmodule"])


def build_consumers_first_circuit() -> Circuit:
    """The wide circuit with its gates numbered consumers first, so
    ascending gate ID is *not* a topological order.

    Built through the ``Circuit`` API, because ``parse_verilog`` would
    renumber it; ``analyze`` and ``simulate`` still accept any DAG.
    """
    wide = build_wide_circuit()
    circuit = Circuit(wide.name)
    new = {CONST0: CONST0, CONST1: CONST1}
    for pi in wide.pi_ids:
        new[pi] = circuit.add_pi(wide.pi_names[pi])
    logic = [g for g in wide.topological_order() if wide.is_logic(g)]
    for gid in reversed(logic):
        # Placeholder fan-ins: the drivers are numbered after this gate.
        arity = len(wide.fanins[gid])
        new[gid] = circuit.add_gate(wide.cells[gid], [CONST0] * arity)
    for gid in logic:
        circuit.set_fanins(new[gid], [new[fi] for fi in wide.fanins[gid]])
    for po in wide.po_ids:
        circuit.add_po(new[wide.fanins[po][0]], wide.po_names[po])
    assert not circuit.gid_order_topo()
    return circuit
