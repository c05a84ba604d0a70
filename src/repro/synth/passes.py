"""Logic restructuring passes (the Design Compiler cleanup role).

Generated and approximated netlists accumulate redundancy: gates with
constant fan-ins, buffers, inverter pairs, and structurally identical
gates.  These passes clean them up without changing any PO function —
the classic pre-/post-processing a synthesis tool applies around an
optimization loop.  Every pass is verified against the exhaustive
equivalence checker in tests.

Passes (all in-place, all return a change count):

* :func:`propagate_constants` — fold constant fan-ins through gates.
* :func:`remove_buffers` — bypass BUFs and INV-INV pairs.
* :func:`merge_duplicates` — structural hashing of identical gates.
* :func:`sweep` — delete dangling logic.
* :func:`optimize_netlist` — run everything to a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cells import cell_name, split_cell_name
from ..netlist import CONST0, CONST1, Circuit, is_const, remove_dangling

#: Functions that reduce over AND/OR with unit and absorbing elements.
_AND_FAMILY = {"AND2": False, "AND3": False, "AND4": False,
               "NAND2": True, "NAND3": True}
_OR_FAMILY = {"OR2": False, "OR3": False, "OR4": False,
              "NOR2": True, "NOR3": True}

_AND_BASE = {2: "AND2", 3: "AND3", 4: "AND4"}
_NAND_BASE = {2: "NAND2", 3: "NAND3"}
_OR_BASE = {2: "OR2", 3: "OR3", 4: "OR4"}
_NOR_BASE = {2: "NOR2", 3: "NOR3"}


@dataclass
class _Rewrite:
    """Result of folding one gate: either a replacement signal or a
    narrower gate (cell + fan-ins)."""

    signal: Optional[int] = None
    cell: Optional[str] = None
    fanins: Optional[Tuple[int, ...]] = None


def _invert_signal(circuit: Circuit, drive: int, signal: int) -> _Rewrite:
    """NOT of a signal: constants fold, otherwise rewrite to an INV."""
    if signal == CONST0:
        return _Rewrite(signal=CONST1)
    if signal == CONST1:
        return _Rewrite(signal=CONST0)
    return _Rewrite(cell=cell_name("INV", drive), fanins=(signal,))


def _fold_reduction(
    circuit: Circuit,
    function: str,
    drive: int,
    fanins: Tuple[int, ...],
) -> Optional[_Rewrite]:
    """Fold constants through AND/OR/NAND/NOR reductions."""
    if function in _AND_FAMILY:
        inverted = _AND_FAMILY[function]
        absorbing, identity = CONST0, CONST1
        bases = _NAND_BASE if inverted else _AND_BASE
    elif function in _OR_FAMILY:
        inverted = _OR_FAMILY[function]
        absorbing, identity = CONST1, CONST0
        bases = _NOR_BASE if inverted else _OR_BASE
    else:
        return None
    if absorbing in fanins:
        out = absorbing
        return _invert_signal(circuit, drive, out) if inverted \
            else _Rewrite(signal=out)
    kept = tuple(fi for fi in fanins if fi != identity)
    if len(kept) == len(fanins):
        return None
    if not kept:
        out = identity
        return _invert_signal(circuit, drive, out) if inverted \
            else _Rewrite(signal=out)
    if len(kept) == 1:
        return _invert_signal(circuit, drive, kept[0]) if inverted \
            else _Rewrite(signal=kept[0])
    base = bases.get(len(kept))
    if base is None:
        return None
    return _Rewrite(cell=cell_name(base, drive), fanins=kept)


def _fold_gate(
    circuit: Circuit, gid: int
) -> Optional[_Rewrite]:
    """Constant-folding rule for one gate, or ``None`` if nothing folds."""
    function, drive = split_cell_name(circuit.cells[gid])
    fanins = circuit.fanins[gid]
    consts = [fi for fi in fanins if is_const(fi)]
    reduction = _fold_reduction(circuit, function, drive, fanins)
    if reduction is not None:
        return reduction
    if function == "BUF":
        return _Rewrite(signal=fanins[0])
    if function == "INV" and consts:
        return _invert_signal(circuit, drive, fanins[0])
    if function in ("XOR2", "XNOR2") and consts:
        a, b = fanins
        known = a if is_const(a) else b
        other = b if is_const(a) else a
        flip = (known == CONST1) == (function == "XOR2")
        if is_const(other):
            value = (other == CONST1) != (known == CONST1)
            if function == "XNOR2":
                value = not value
            return _Rewrite(signal=CONST1 if value else CONST0)
        return (
            _invert_signal(circuit, drive, other)
            if flip
            else _Rewrite(signal=other)
        )
    if function == "XOR3" and consts:
        kept = tuple(fi for fi in fanins if fi != CONST0)
        ones = sum(1 for fi in fanins if fi == CONST1)
        kept = tuple(fi for fi in kept if fi != CONST1)
        if len(kept) == 2 and ones % 2 == 0:
            return _Rewrite(cell=cell_name("XOR2", drive), fanins=kept)
        if len(kept) == 2 and ones % 2 == 1:
            return _Rewrite(cell=cell_name("XNOR2", drive), fanins=kept)
        if len(kept) == 1:
            return (
                _invert_signal(circuit, drive, kept[0])
                if ones % 2
                else _Rewrite(signal=kept[0])
            )
        if not kept:
            return _Rewrite(signal=CONST1 if ones % 2 else CONST0)
    if function == "MUX2":
        d0, d1, sel = fanins
        if sel == CONST0:
            return _Rewrite(signal=d0)
        if sel == CONST1:
            return _Rewrite(signal=d1)
        if d0 == d1:
            return _Rewrite(signal=d0)
        if d0 == CONST0 and d1 == CONST1:
            return _Rewrite(signal=sel)
    if function == "MAJ3":
        counts0 = sum(1 for fi in fanins if fi == CONST0)
        counts1 = sum(1 for fi in fanins if fi == CONST1)
        others = tuple(fi for fi in fanins if not is_const(fi))
        if counts1 >= 2:
            return _Rewrite(signal=CONST1)
        if counts0 >= 2:
            return _Rewrite(signal=CONST0)
        if counts1 == 1 and counts0 == 1:
            return _Rewrite(signal=others[0])
        if counts1 == 1 and len(others) == 2:
            return _Rewrite(cell=cell_name("OR2", drive), fanins=others)
        if counts0 == 1 and len(others) == 2:
            return _Rewrite(cell=cell_name("AND2", drive), fanins=others)
    return None


def propagate_constants(circuit: Circuit) -> int:
    """Fold constant fan-ins through gates to a fixed point, in place.

    Gates replaced by a signal are remembered in ``folded`` and skipped
    thereafter: they linger (dangling) until swept, and re-folding them
    would spin the fixed-point loop forever.
    """
    total = 0
    folded: set = set()
    changed = True
    while changed:
        changed = False
        for gid in circuit.topological_order():
            if not circuit.is_logic(gid) or gid in folded:
                continue
            rewrite = _fold_gate(circuit, gid)
            if rewrite is None:
                continue
            if rewrite.signal is not None:
                circuit.substitute(gid, rewrite.signal)
                folded.add(gid)
            else:
                circuit.set_cell(gid, rewrite.cell)
                circuit.set_fanins(gid, rewrite.fanins)
            total += 1
            changed = True
    return total


def remove_buffers(circuit: Circuit) -> int:
    """Bypass BUF gates and cancel INV-INV pairs, in place."""
    total = 0
    bypassed: set = set()
    changed = True
    while changed:
        changed = False
        for gid in list(circuit.fanins):
            if not circuit.is_logic(gid) or gid in bypassed:
                continue
            function, _ = split_cell_name(circuit.cells[gid])
            if function == "BUF":
                circuit.substitute(gid, circuit.fanins[gid][0])
                bypassed.add(gid)
                total += 1
                changed = True
            elif function == "INV":
                src = circuit.fanins[gid][0]
                if (
                    not is_const(src)
                    and circuit.is_logic(src)
                    and split_cell_name(circuit.cells[src])[0] == "INV"
                ):
                    circuit.substitute(gid, circuit.fanins[src][0])
                    bypassed.add(gid)
                    total += 1
                    changed = True
    return total


def merge_duplicates(circuit: Circuit) -> int:
    """Structural hashing: merge gates with identical cell and fan-ins.

    Of two duplicates the smaller gate ID survives and the larger one's
    consumers move to it, whichever comes first in topological order:
    every consumer of the larger ID has a larger ID still, so a
    gid-topological circuit stays gid-topological.
    """
    total = 0
    merged: set = set()
    changed = True
    while changed:
        changed = False
        seen: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        for gid in circuit.topological_order():
            if not circuit.is_logic(gid) or gid in merged:
                continue
            function, _ = split_cell_name(circuit.cells[gid])
            key = (function, circuit.fanins[gid])
            other = seen.get(key)
            if other is None:
                seen[key] = gid
                continue
            keep, drop = min(gid, other), max(gid, other)
            circuit.substitute(drop, keep)
            merged.add(drop)
            seen[key] = keep
            total += 1
            changed = True
    return total


def sweep(circuit: Circuit) -> int:
    """Delete dangling logic (alias of dangling-gate removal)."""
    return remove_dangling(circuit)


@dataclass
class SynthStats:
    """Per-pass change counts from :func:`optimize_netlist`."""

    constants_folded: int = 0
    buffers_removed: int = 0
    duplicates_merged: int = 0
    gates_swept: int = 0

    @property
    def total(self) -> int:
        """Sum of all per-pass change counts."""
        return (
            self.constants_folded
            + self.buffers_removed
            + self.duplicates_merged
            + self.gates_swept
        )


def optimize_netlist(circuit: Circuit) -> SynthStats:
    """Run all cleanup passes to a global fixed point, in place."""
    stats = SynthStats()
    while True:
        round_changes = 0
        n = propagate_constants(circuit)
        stats.constants_folded += n
        round_changes += n
        n = remove_buffers(circuit)
        stats.buffers_removed += n
        round_changes += n
        n = merge_duplicates(circuit)
        stats.duplicates_merged += n
        round_changes += n
        n = sweep(circuit)
        stats.gates_swept += n
        round_changes += n
        if round_changes == 0:
            return stats
