"""Structural Verilog writer and parser for the gate-level subset.

The paper's flow consumes and emits gate-level ``.v`` files produced by
Design Compiler.  We support the same interchange: a flat module whose
body is standard-cell instances with named pin connections.  Input pins
are ``.A/.B/.C/.D`` in fan-in order and the output pin is ``.Z``;
constants appear as ``1'b0`` / ``1'b1`` literals.

Example of emitted text::

    module adder4 (a0, a1, b0, b1, s0, s1);
      input a0, a1, b0, b1;
      output s0, s1;
      wire n5, n6;
      XOR2D1 U5 (.A(a0), .B(b0), .Z(n5));
      ...
    endmodule
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..cells import FUNCTIONS, split_cell_name
from .circuit import CONST0, CONST1, Circuit
from .transform import relabel_compact

_PIN_LETTERS = "ABCD"


def _net_name(circuit: Circuit, gid: int) -> str:
    if gid == CONST0:
        return "1'b0"
    if gid == CONST1:
        return "1'b1"
    if circuit.is_pi(gid):
        return circuit.pi_names[gid]
    return f"n{gid}"


def write_verilog(circuit: Circuit) -> str:
    """Serialise ``circuit`` as flat structural Verilog."""
    pis = [circuit.pi_names[g] for g in circuit.pi_ids]
    pos = [circuit.po_names[g] for g in circuit.po_ids]
    ports = pis + pos
    lines: List[str] = [f"module {circuit.name} ({', '.join(ports)});"]
    if pis:
        lines.append(f"  input {', '.join(pis)};")
    if pos:
        lines.append(f"  output {', '.join(pos)};")
    order = circuit.topological_order()
    wires = [f"n{g}" for g in order if circuit.is_logic(g)]
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    for gid in order:
        if circuit.is_logic(gid):
            cell = circuit.cells[gid]
            pins = [
                f".{_PIN_LETTERS[i]}({_net_name(circuit, fi)})"
                for i, fi in enumerate(circuit.fanins[gid])
            ]
            pins.append(f".Z(n{gid})")
            lines.append(f"  {cell} U{gid} ({', '.join(pins)});")
        elif circuit.is_po(gid):
            driver = circuit.fanins[gid][0]
            lines.append(
                f"  assign {circuit.po_names[gid]} = "
                f"{_net_name(circuit, driver)};"
            )
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_MODULE_RE = re.compile(r"module\s+(\w+)\s*\(([^)]*)\)\s*;")
_DECL_RE = re.compile(r"(input|output|wire)\s+([^;]+);")
_INST_RE = re.compile(r"(\w+)\s+(\w+)\s*\(([^;]*)\)\s*;")
_ASSIGN_RE = re.compile(r"assign\s+(\w+)\s*=\s*([\w']+)\s*;")
_PIN_RE = re.compile(r"\.(\w+)\s*\(\s*([\w']+)\s*\)")


class VerilogParseError(ValueError):
    """Raised on malformed or unsupported structural Verilog."""


def parse_verilog(text: str) -> Circuit:
    """Parse the structural subset emitted by :func:`write_verilog`.

    The parser accepts any pin order in the source text and rebuilds the
    fan-in tuple from the ``A/B/C/D`` pin letters.  Gate IDs follow
    declaration order; a netlist that declares a consumer before its
    driver is renumbered with :func:`relabel_compact`, so the result is
    always gid-topological and its IDs (and the ``U<gid>``/``n<gid>``
    names :func:`write_verilog` emits for it) follow that renumbering.
    A combinational loop raises :class:`CircuitLoopError`.
    """
    text = re.sub(r"//[^\n]*", "", text)
    m = _MODULE_RE.search(text)
    if not m:
        raise VerilogParseError("no module header found")
    name = m.group(1)
    inputs: List[str] = []
    outputs: List[str] = []
    for kind, names in _DECL_RE.findall(text):
        parts = [n.strip() for n in names.split(",") if n.strip()]
        if kind == "input":
            inputs.extend(parts)
        elif kind == "output":
            outputs.extend(parts)

    circuit = Circuit(name)
    net_to_gid: Dict[str, int] = {
        "1'b0": CONST0,
        "1'b1": CONST1,
    }
    for pi in inputs:
        net_to_gid[pi] = circuit.add_pi(pi)

    # First pass: create every instance's output gate so fan-ins can be
    # resolved regardless of declaration order; record pin text for later.
    pending: List[Tuple[int, str, List[Tuple[str, str]]]] = []
    body = text[m.end():]
    for cell, inst, pin_text in _INST_RE.findall(body):
        if cell in ("module", "endmodule"):
            continue
        pins = _PIN_RE.findall(pin_text)
        if not pins:
            raise VerilogParseError(f"instance {inst} has no named pins")
        try:
            function, _ = split_cell_name(cell)
        except ValueError as exc:
            raise VerilogParseError(f"unknown cell {cell!r}") from exc
        if function not in FUNCTIONS:
            raise VerilogParseError(f"unknown function {function!r}")
        out_net = dict(pins).get("Z")
        if out_net is None:
            raise VerilogParseError(f"instance {inst} has no .Z pin")
        arity = FUNCTIONS[function].arity
        gid = circuit.add_gate(cell, [CONST0] * arity)  # placeholder fan-ins
        net_to_gid[out_net] = gid
        pending.append((gid, cell, pins))

    for gid, cell, pins in pending:
        function, _ = split_cell_name(cell)
        arity = FUNCTIONS[function].arity
        fanins: List[int] = [CONST0] * arity
        for pin, net in pins:
            if pin == "Z":
                continue
            idx = _PIN_LETTERS.find(pin)
            if idx < 0 or idx >= arity:
                raise VerilogParseError(
                    f"unexpected pin .{pin} on {cell} U{gid}"
                )
            if net not in net_to_gid:
                raise VerilogParseError(f"undriven net {net!r}")
            fanins[idx] = net_to_gid[net]
        circuit.set_fanins(gid, fanins)

    assigns = dict(_ASSIGN_RE.findall(body))
    for po in outputs:
        src = assigns.get(po, po)
        if src not in net_to_gid:
            raise VerilogParseError(f"output {po!r} is undriven")
        circuit.add_po(net_to_gid[src], po)
    if not circuit.gid_order_topo():
        circuit, _ = relabel_compact(circuit)
    return circuit
