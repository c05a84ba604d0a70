"""Output-similarity queries used to pick LAC switch gates.

The paper limits introduced error by choosing, for a target gate, the
switch signal whose simulated output agrees with the target's on the
largest fraction of cycles — searched over the target's transitive fan-in
plus the constants '0' and '1' (§III-B, circuit searching).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..netlist import CONST0, CONST1, PO_CELL, Circuit
from .store import ValueStore


def similarity(
    values: ValueStore, a: int, b: int, num_vectors: int
) -> float:
    """Fraction of vectors on which gates ``a`` and ``b`` agree."""
    return 1.0 - (values[a] ^ values[b]).bit_count() / num_vectors


def constant_similarities(
    values: ValueStore, gid: int, num_vectors: int
) -> Tuple[float, float]:
    """``(sim_to_0, sim_to_1)`` of one gate's output."""
    frac1 = values[gid].bit_count() / num_vectors
    return 1.0 - frac1, frac1


def rank_switches(
    circuit: Circuit,
    values: ValueStore,
    target: int,
    num_vectors: int,
    include_constants: bool = True,
    candidates: Optional[Iterable[int]] = None,
) -> List[Tuple[int, float]]:
    """Rank admissible switch gates for ``target`` by similarity, best first.

    Candidates default to the target's transitive fan-in (which guarantees
    the substitution cannot create a combinational loop) plus constants.
    Ties break on smaller |gate id| for determinism.

    Each candidate scores one XOR and one ``int.bit_count()`` against
    the target's row: the scalar :func:`similarity` formula, the same
    integer count and the same IEEE division.
    """
    if candidates is None:
        candidates = circuit.transitive_fanin(target)
    cells = circuit.cells
    row, rows = values.index.row, values.rows
    goal = values[target]
    nv = float(num_vectors)
    scored: List[Tuple[int, float]] = [
        (cand, 1.0 - (rows[row[cand]] ^ goal).bit_count() / nv)
        for cand in candidates
        if cand != target and cells.get(cand) != PO_CELL
    ]
    if include_constants:
        sim0, sim1 = constant_similarities(values, target, num_vectors)
        scored.append((CONST0, sim0))
        scored.append((CONST1, sim1))
    scored.sort(key=lambda item: (-item[1], abs(item[0])))
    return scored


def best_switch(
    circuit: Circuit,
    values: ValueStore,
    target: int,
    num_vectors: int,
    include_constants: bool = True,
) -> Optional[Tuple[int, float]]:
    """The highest-similarity switch for ``target``, or ``None`` if none.

    PIs without fan-in still have the two constants as candidates.
    """
    ranked = rank_switches(
        circuit, values, target, num_vectors, include_constants
    )
    return ranked[0] if ranked else None
