"""Combinational cell functions and library cell records.

A *function* ("AND2", "XNOR2", ...) describes boolean behaviour and arity.
A *cell* is a function at a specific drive strength ("AND2D1"), carrying
area, input capacitance, and NLDM timing arcs.  The naming scheme follows
the TSMC-style names the paper shows in Fig. 1 (``OR2D1`` -> ``OR2D2``
when the resizer bumps drive strength).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .timing_model import TimingArc

#: ``word_eval(inputs, ones)``: one value row per input pin and the
#: all-ones row of the same width, which NOT is an XOR with.
WordFn = Callable[[Sequence[int], int], int]
BitFn = Callable[[Sequence[int]], int]


@dataclass(frozen=True)
class CellFunction:
    """Boolean behaviour shared by all drive variants of a cell.

    Attributes:
        name: canonical function name, e.g. ``"NAND2"``.
        arity: number of input pins.
        word_eval: evaluator over value rows, Python ints whose bit
            ``k`` is vector ``k``; ``ones`` is the all-ones row.
        bit_eval: scalar evaluator over 0/1 ints, used as the test oracle.
        complexity: relative transistor-level size, seeds area and delay of
            the synthetic characterisation.
    """

    name: str
    arity: int
    word_eval: WordFn
    bit_eval: BitFn
    complexity: float

    def __call__(self, inputs: Sequence[int], ones: int) -> int:
        if len(inputs) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} inputs, got {len(inputs)}"
            )
        return self.word_eval(inputs, ones)

    def __reduce__(self):
        # The evaluators are lambdas (unpicklable); the registered name
        # identifies the behaviour, so serialization (session
        # checkpoints carry the library) round-trips through FUNCTIONS.
        return (_function_by_name, (self.name,))


#: Short constructor name for the registry table below.
_fn = CellFunction


#: Registry of every combinational function in the synthetic library.
FUNCTIONS: Dict[str, CellFunction] = {}


def _function_by_name(name: str) -> CellFunction:
    """Unpickling hook: resolve a function through the registry."""
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown cell function {name!r}") from None


def _register(fn: CellFunction) -> CellFunction:
    FUNCTIONS[fn.name] = fn
    return fn


INV = _register(
    _fn("INV", 1, lambda x, ones: x[0] ^ ones, lambda b: 1 - b[0], 0.5)
)
BUF = _register(_fn("BUF", 1, lambda x, ones: x[0], lambda b: b[0], 0.7))

AND2 = _register(
    _fn("AND2", 2, lambda x, ones: x[0] & x[1], lambda b: b[0] & b[1], 1.0)
)
OR2 = _register(
    _fn("OR2", 2, lambda x, ones: x[0] | x[1], lambda b: b[0] | b[1], 1.0)
)
NAND2 = _register(
    _fn("NAND2", 2, lambda x, ones: (x[0] & x[1]) ^ ones,
        lambda b: 1 - (b[0] & b[1]), 0.8)
)
NOR2 = _register(
    _fn("NOR2", 2, lambda x, ones: (x[0] | x[1]) ^ ones,
        lambda b: 1 - (b[0] | b[1]), 0.8)
)
XOR2 = _register(
    _fn("XOR2", 2, lambda x, ones: x[0] ^ x[1], lambda b: b[0] ^ b[1], 1.6)
)
XNOR2 = _register(
    _fn("XNOR2", 2, lambda x, ones: (x[0] ^ x[1]) ^ ones,
        lambda b: 1 - (b[0] ^ b[1]), 1.6)
)

AND3 = _register(
    _fn("AND3", 3, lambda x, ones: x[0] & x[1] & x[2],
        lambda b: b[0] & b[1] & b[2], 1.4)
)
OR3 = _register(
    _fn("OR3", 3, lambda x, ones: x[0] | x[1] | x[2],
        lambda b: b[0] | b[1] | b[2], 1.4)
)
NAND3 = _register(
    _fn("NAND3", 3, lambda x, ones: (x[0] & x[1] & x[2]) ^ ones,
        lambda b: 1 - (b[0] & b[1] & b[2]), 1.2)
)
NOR3 = _register(
    _fn("NOR3", 3, lambda x, ones: (x[0] | x[1] | x[2]) ^ ones,
        lambda b: 1 - (b[0] | b[1] | b[2]), 1.2)
)
XOR3 = _register(
    _fn("XOR3", 3, lambda x, ones: x[0] ^ x[1] ^ x[2],
        lambda b: b[0] ^ b[1] ^ b[2], 2.4)
)

AND4 = _register(
    _fn("AND4", 4, lambda x, ones: x[0] & x[1] & x[2] & x[3],
        lambda b: b[0] & b[1] & b[2] & b[3], 1.8)
)
OR4 = _register(
    _fn("OR4", 4, lambda x, ones: x[0] | x[1] | x[2] | x[3],
        lambda b: b[0] | b[1] | b[2] | b[3], 1.8)
)

#: MUX2 pin order is (d0, d1, sel): out = d1 if sel else d0.
MUX2 = _register(
    _fn(
        "MUX2",
        3,
        lambda x, ones: (x[0] & (x[2] ^ ones)) | (x[1] & x[2]),
        lambda b: b[1] if b[2] else b[0],
        1.8,
    )
)

#: AOI21 pin order is (a1, a2, b): out = NOT((a1 AND a2) OR b).
AOI21 = _register(
    _fn(
        "AOI21",
        3,
        lambda x, ones: ((x[0] & x[1]) | x[2]) ^ ones,
        lambda b: 1 - ((b[0] & b[1]) | b[2]),
        1.1,
    )
)

#: OAI21 pin order is (a1, a2, b): out = NOT((a1 OR a2) AND b).
OAI21 = _register(
    _fn(
        "OAI21",
        3,
        lambda x, ones: ((x[0] | x[1]) & x[2]) ^ ones,
        lambda b: 1 - ((b[0] | b[1]) & b[2]),
        1.1,
    )
)

#: Majority-of-3, the carry function of a full adder.
MAJ3 = _register(
    _fn(
        "MAJ3",
        3,
        lambda x, ones: (x[0] & x[1]) | (x[0] & x[2]) | (x[1] & x[2]),
        lambda b: 1 if (b[0] + b[1] + b[2]) >= 2 else 0,
        1.7,
    )
)


@dataclass(frozen=True)
class Cell:
    """One library cell: a function at a concrete drive strength.

    Attributes:
        name: library name, e.g. ``"NAND2D2"``.
        function: the shared :class:`CellFunction`.
        drive: drive-strength code (0, 1, 2, 4).
        area: cell area in µm².
        input_cap: per-pin input capacitance in fF.
        arc: NLDM delay/output-slew tables (worst arc, applied to all pins).
        max_load: characterised maximum output load in fF.
    """

    name: str
    function: CellFunction
    drive: int
    area: float
    input_cap: float
    arc: TimingArc
    max_load: float

    @property
    def arity(self) -> int:
        """Number of input pins (the function's arity)."""
        return self.function.arity

    def delay(self, input_slew: float, load: float) -> float:
        """Pin-to-output delay (ps) at the given slew/load point."""
        return self.arc.delay.lookup(input_slew, load)

    def output_slew(self, input_slew: float, load: float) -> float:
        """Output transition (ps) at the given slew/load point."""
        return self.arc.output_slew.lookup(input_slew, load)


def cell_name(function: str, drive: int) -> str:
    """Compose the TSMC-style cell name, e.g. ``cell_name("OR2", 1) == "OR2D1"``."""
    return f"{function}D{drive}"


def split_cell_name(name: str) -> Tuple[str, int]:
    """Split ``"OR2D1"`` into ``("OR2", 1)``.

    Raises ``ValueError`` for names that do not follow the scheme.
    """
    idx = name.rfind("D")
    if idx <= 0:
        raise ValueError(f"not a <FUNCTION>D<drive> cell name: {name!r}")
    function, drive_txt = name[:idx], name[idx + 1:]
    if not drive_txt.isdigit():
        raise ValueError(f"not a <FUNCTION>D<drive> cell name: {name!r}")
    return function, int(drive_txt)
