"""Netlist substrate: fan-in adjacency circuits, builder, I/O, transforms."""

from .build import CircuitBuilder
from .circuit import (
    CONST0,
    CONST1,
    PI_CELL,
    PO_CELL,
    Circuit,
    CircuitLoopError,
    Provenance,
    is_const,
)
from .equiv import (
    EquivalenceResult,
    assert_equivalent,
    check_equivalence,
)
from .transform import (
    cone_adjacency,
    po_cone,
    pruned_copy,
    relabel_compact,
    remove_dangling,
    shared_gates,
)
from .validate import ValidationError, is_valid, validate
from .verilog import VerilogParseError, parse_verilog, write_verilog

__all__ = [
    "EquivalenceResult",
    "assert_equivalent",
    "check_equivalence",
    "CircuitBuilder",
    "CONST0",
    "CONST1",
    "PI_CELL",
    "PO_CELL",
    "Circuit",
    "CircuitLoopError",
    "Provenance",
    "is_const",
    "cone_adjacency",
    "po_cone",
    "pruned_copy",
    "relabel_compact",
    "remove_dangling",
    "shared_gates",
    "ValidationError",
    "is_valid",
    "validate",
    "VerilogParseError",
    "parse_verilog",
    "write_verilog",
]
