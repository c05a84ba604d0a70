"""Local approximate changes (LACs): wire-by-wire and wire-by-constant.

Both LACs reduce to the same fan-in rewrite on the adjacency lists
(paper Fig. 1 / §III-A): every consumer of the *target gate* is re-pointed
at the *switch gate*, where the switch is an existing gate from the
target's transitive fan-in (wire-by-wire) or a constant '0'/'1'
(wire-by-constant).

Safety invariant: because switches are drawn from the target's TFI (or
are constants), every circuit in a population preserves the topological
order of the original accurate circuit, so *any* mixture of fan-in
entries taken from different population members is also acyclic.  Circuit
reproduction relies on this; a property test pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netlist import Circuit, is_const


@dataclass(frozen=True)
class LAC:
    """One local approximate change.

    Attributes:
        target: gate whose output is disconnected from its consumers.
        switch: gate (or ``CONST0``/``CONST1``) wired in its place.
    """

    target: int
    switch: int

    @property
    def kind(self) -> str:
        """``"wire-by-constant"`` or ``"wire-by-wire"``."""
        return "wire-by-constant" if is_const(self.switch) else "wire-by-wire"

    def __str__(self) -> str:
        return f"{self.kind}({self.target} -> {self.switch})"


def is_safe(circuit: Circuit, lac: LAC) -> bool:
    """Check that applying ``lac`` cannot create a loop or dangle a PO.

    A substitution is safe when the switch is a constant or lies outside
    the target's transitive fan-out (the TFI always qualifies).
    ``circuit`` must be gid-topological (every population member is):
    every consumer then has a larger ID than its fan-ins, so the
    target's fan-out cone holds only larger IDs and a smaller switch
    needs no walk.
    """
    if lac.target == lac.switch or is_const(lac.target):
        return False
    if lac.target not in circuit.fanins:
        return False
    if circuit.is_po(lac.target):
        return False
    if is_const(lac.switch):
        return True
    if lac.switch not in circuit.fanins or circuit.is_po(lac.switch):
        return False
    if lac.switch < lac.target:
        return True
    return lac.switch not in circuit.transitive_fanout(
        lac.target, include_self=True
    )


def apply_lac(circuit: Circuit, lac: LAC) -> List[int]:
    """Apply ``lac`` in place; returns the rewritten consumer gate IDs.

    Raises ``ValueError`` for unsafe changes — the optimizer filters with
    :func:`is_safe` first, so hitting this indicates a logic error.
    """
    if not is_safe(circuit, lac):
        raise ValueError(f"unsafe LAC {lac}")
    return circuit.substitute(lac.target, lac.switch)


def applied_copy(circuit: Circuit, lac: LAC, name: Optional[str] = None) -> Circuit:
    """Copy-and-apply convenience used when forking population members.

    The child carries a provenance record whose ``changed`` set is the
    rewritten consumer gates (merged with any delta the source circuit
    already carried), enabling cone-limited incremental evaluation.
    """
    child = circuit.copy(name)
    base_version = child.version
    rewritten = apply_lac(child, lac)
    # substitute() performs exactly one fan-in write per rewritten gate.
    child.extend_provenance(rewritten, base_version, len(rewritten))
    return child
