"""Gate-simplification LACs (extension beyond the paper's two kinds).

The paper's framework uses wire-by-wire and wire-by-constant
substitutions.  The broader ALS literature it cites (SASIMI, gate-level
pruning, HEDALS) also simplifies gates *in place*: replace a cell with a
cheaper cell of the same arity whose function is close on the observed
input distribution, or drop a gate's latest-arriving fan-in and fall
back to a smaller cell.  Both moves keep the gate ID space intact, so
they compose with reproduction exactly like the paper's LACs.

Enabled via ``DCGWOConfig(enable_simplification=True)``; the default
stays paper-faithful.  The ablation bench quantifies the effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cells import FUNCTIONS, cell_name, split_cell_name
from ..netlist import CONST1, Circuit
from ..sim import ValueStore

#: Same-arity replacement candidates, cheaper/faster first.
_FUNCTION_FAMILIES: Dict[int, Tuple[str, ...]] = {
    1: ("BUF", "INV"),
    2: ("NAND2", "NOR2", "AND2", "OR2", "XOR2", "XNOR2"),
    3: ("NAND3", "NOR3", "AND3", "OR3", "AOI21", "OAI21", "MUX2",
        "XOR3", "MAJ3"),
    4: ("AND4", "OR4"),
}

#: Arity-reduction fallbacks when one fan-in is dropped.
_DROP_FALLBACK: Dict[str, str] = {
    "AND3": "AND2",
    "OR3": "OR2",
    "NAND3": "NAND2",
    "NOR3": "NOR2",
    "XOR3": "XOR2",
    "AND4": "AND3",
    "OR4": "OR3",
    "AND2": "BUF",
    "OR2": "BUF",
    "XOR2": "BUF",
    "NAND2": "INV",
    "NOR2": "INV",
    "XNOR2": "INV",
}


@dataclass(frozen=True)
class Simplification:
    """One in-place gate rewrite.

    ``new_fanins`` is ``None`` for pure function swaps (same pins);
    otherwise it holds the reduced fan-in tuple of a drop move.
    """

    gate: int
    new_cell: str
    new_fanins: Optional[Tuple[int, ...]] = None

    def __str__(self) -> str:
        if self.new_fanins is None:
            return f"simplify({self.gate} -> {self.new_cell})"
        return (
            f"drop-fanin({self.gate} -> {self.new_cell}"
            f"{self.new_fanins})"
        )


def _agreement(
    values: ValueStore,
    candidate_fn: str,
    fanins: Sequence[int],
    reference: int,
    num_vectors: int,
) -> float:
    """Fraction of vectors where a rewritten gate matches its old output."""
    fn = FUNCTIONS[candidate_fn]
    out = fn.word_eval([values[fi] for fi in fanins], values[CONST1])
    return 1.0 - (out ^ reference).bit_count() / num_vectors


def propose_simplification(
    circuit: Circuit,
    values: ValueStore,
    gate: int,
    num_vectors: int,
    rng: Optional[random.Random] = None,
    min_agreement: float = 0.5,
) -> Optional[Simplification]:
    """Best in-place rewrite of ``gate`` by output agreement.

    Considers every same-arity function swap (at the gate's current
    drive) and, where a fallback exists, dropping one fan-in.  Returns
    ``None`` when nothing beats ``min_agreement`` (a coin flip).
    """
    if not circuit.is_logic(gate):
        return None
    function, drive = split_cell_name(circuit.cells[gate])
    fanins = circuit.fanins[gate]
    reference = values[gate]
    best: Optional[Tuple[float, Simplification]] = None

    def consider(score: float, simp: Simplification) -> None:
        nonlocal best
        if score < min_agreement:
            return
        if best is None or score > best[0]:
            best = (score, simp)

    family = _FUNCTION_FAMILIES.get(len(fanins), ())
    for cand in family:
        if cand == function:
            continue
        if FUNCTIONS[cand].complexity >= FUNCTIONS[function].complexity:
            continue  # only simplify toward cheaper cells
        score = _agreement(values, cand, fanins, reference, num_vectors)
        consider(score, Simplification(gate, cell_name(cand, drive)))

    fallback = _DROP_FALLBACK.get(function)
    if fallback is not None and len(fanins) >= 2:
        for drop_idx in range(len(fanins)):
            kept = tuple(
                fi for i, fi in enumerate(fanins) if i != drop_idx
            )
            if FUNCTIONS[fallback].arity != len(kept):
                continue
            score = _agreement(
                values, fallback, kept, reference, num_vectors
            )
            consider(
                score,
                Simplification(gate, cell_name(fallback, drive), kept),
            )
    return best[1] if best else None


def apply_simplification(circuit: Circuit, simp: Simplification) -> List[int]:
    """Apply in place; returns the changed gate (for incremental resim)."""
    expected_arity = FUNCTIONS[split_cell_name(simp.new_cell)[0]].arity
    new_fanins = (
        simp.new_fanins
        if simp.new_fanins is not None
        else circuit.fanins[simp.gate]
    )
    if len(new_fanins) != expected_arity:
        raise ValueError(f"arity mismatch applying {simp}")
    circuit.set_cell(simp.gate, simp.new_cell)
    circuit.set_fanins(simp.gate, new_fanins)
    return [simp.gate]


def simplified_copy(
    circuit: Circuit, simp: Simplification, name: Optional[str] = None
) -> Circuit:
    """Copy-and-apply convenience mirroring ``applied_copy`` for LACs.

    Like ``applied_copy``, the child carries provenance (the rewritten
    gate) so evaluation can resimulate only the gate's fan-out cone.
    """
    child = circuit.copy(name)
    base_version = child.version
    changed = apply_simplification(child, simp)
    # apply_simplification writes the cell and the fan-in tuple: 2 writes.
    child.extend_provenance(changed, base_version, 2)
    return child
