"""Output-similarity queries used to pick LAC switch gates.

The paper limits introduced error by choosing, for a target gate, the
switch signal whose simulated output agrees with the target's on the
largest fraction of cycles — searched over the target's transitive fan-in
plus the constants '0' and '1' (§III-B, circuit searching).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..netlist import CONST0, CONST1, PO_CELL, Circuit
from .store import ValueStore
from .vectors import count_ones, popcount_rows, tail_masked


def similarity(
    values: ValueStore, a: int, b: int, num_vectors: int
) -> float:
    """Fraction of vectors on which gates ``a`` and ``b`` agree."""
    return 1.0 - count_ones(values[a] ^ values[b], num_vectors) / num_vectors


def constant_similarities(
    values: ValueStore, gid: int, num_vectors: int
) -> Tuple[float, float]:
    """``(sim_to_0, sim_to_1)`` of one gate's output."""
    ones = count_ones(values[gid], num_vectors)
    frac1 = ones / num_vectors
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

    The whole table is computed with one gather of the candidate rows
    and one batched XOR + population count rather than a Python loop
    per candidate; the scores are bit-identical to the scalar
    :func:`similarity` formula (same integer counts, same division).
    """
    if candidates is None:
        candidates = circuit.transitive_fanin(target)
    cells = circuit.cells
    kept = [
        cand
        for cand in candidates
        if cand != target and cells.get(cand) != PO_CELL
    ]
    scored: List[Tuple[int, float]] = []
    if kept:
        row = values.index.row
        stacked = values.matrix[[row[c] for c in kept]]
        diff = stacked ^ values[target][np.newaxis, :]
        counts = popcount_rows(tail_masked(diff, num_vectors))
        sims = 1.0 - counts / float(num_vectors)
        scored = [(c, float(s)) for c, s in zip(kept, sims)]
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
