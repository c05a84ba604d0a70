"""Simulation-based (in)equivalence checking between netlists.

ALS correctness arguments need two checks over and over:

* *exact equivalence* — post-optimization (dangling removal, resizing,
  compaction) must not change any PO function;
* *bounded difference* — an approximate circuit must differ from the
  accurate one by no more than the error constraint.

For circuits with up to ``EXHAUSTIVE_LIMIT`` (16) primary inputs the
check is exhaustive and therefore a proof; above that it falls back to
a seeded Monte-Carlo miter, which can prove inequivalence (a
counterexample) but only gives statistical confidence for equivalence —
the standard trade-off for a SAT-free checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..sim.bitsim import po_words, simulate
from ..sim.vectors import VectorSet, exhaustive_vectors, random_vectors
from .circuit import Circuit

#: PI count at or below which the check enumerates all input vectors.
EXHAUSTIVE_LIMIT = 16


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a check.

    ``equivalent`` reflects the simulated vectors; ``proven`` is True
    only when the vector set was exhaustive.  ``counterexample`` holds
    PI bits (LSB of pi_ids order) for the first differing vector.
    """

    equivalent: bool
    proven: bool
    vectors_checked: int
    counterexample: Optional[List[int]] = None
    differing_output: Optional[str] = None


def _check_interfaces(a: Circuit, b: Circuit) -> None:
    if len(a.pi_ids) != len(b.pi_ids):
        raise ValueError(
            f"PI counts differ: {len(a.pi_ids)} vs {len(b.pi_ids)}"
        )
    if len(a.po_ids) != len(b.po_ids):
        raise ValueError(
            f"PO counts differ: {len(a.po_ids)} vs {len(b.po_ids)}"
        )


def check_equivalence(
    a: Circuit,
    b: Circuit,
    num_vectors: int = 4096,
    seed: int = 0,
) -> EquivalenceResult:
    """Compare two circuits output-for-output.

    POs are matched positionally (``po_ids`` order), PIs likewise — the
    convention every transform in this package preserves.
    """
    _check_interfaces(a, b)
    num_pis = len(a.pi_ids)
    if num_pis <= EXHAUSTIVE_LIMIT:
        vectors: VectorSet = exhaustive_vectors(num_pis)
        proven = True
    else:
        vectors = random_vectors(num_pis, num_vectors, seed)
        proven = False
    words_a = po_words(a, simulate(a, vectors))
    words_b = po_words(b, simulate(b, vectors))
    diff = words_a ^ words_b
    if not diff.any():
        return EquivalenceResult(
            equivalent=True, proven=proven,
            vectors_checked=vectors.num_vectors,
        )
    po_idx, word_idx = np.argwhere(diff != 0)[0]
    word = int(diff[po_idx, word_idx])
    bit = (word & -word).bit_length() - 1
    k = int(word_idx) * 64 + bit
    return EquivalenceResult(
        equivalent=False,
        proven=True,  # a concrete counterexample is always a proof
        vectors_checked=vectors.num_vectors,
        counterexample=vectors.vector(k),
        differing_output=a.po_names[a.po_ids[int(po_idx)]],
    )


def assert_equivalent(
    a: Circuit, b: Circuit, num_vectors: int = 4096, seed: int = 0
) -> None:
    """Raise ``AssertionError`` with the counterexample when a != b."""
    result = check_equivalence(a, b, num_vectors, seed)
    if not result.equivalent:
        raise AssertionError(
            f"circuits differ on output {result.differing_output} "
            f"for input {result.counterexample}"
        )
