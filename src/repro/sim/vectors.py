"""Input-vector sets for bit-parallel Monte-Carlo simulation.

Vectors are packed 64 per machine word, one uint64 row per primary input,
the layout VECBEE-style batch error estimators use.  Bit ``k`` of word
``w`` of a row holds that input's value in vector ``64*w + k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class VectorSet:
    """A packed batch of input vectors.

    Attributes:
        words: array of shape ``(num_inputs, num_words)``, dtype uint64.
        num_vectors: number of valid vectors (may not fill the last word).
    """

    words: np.ndarray
    num_vectors: int

    def __post_init__(self) -> None:
        if self.words.dtype != np.uint64:
            raise ValueError("vector words must be uint64")
        if self.words.ndim != 2:
            raise ValueError("vector words must be 2-D (inputs x words)")
        needed = (self.num_vectors + 63) // 64
        if self.words.shape[1] != needed:
            raise ValueError(
                f"expected {needed} words for {self.num_vectors} vectors, "
                f"got {self.words.shape[1]}"
            )

    @property
    def num_inputs(self) -> int:
        """Number of input rows."""
        return int(self.words.shape[0])

    @property
    def num_words(self) -> int:
        """Packed 64-bit words per row."""
        return int(self.words.shape[1])

    def vector(self, k: int) -> list:
        """Unpacked bit-list of vector ``k`` (for debugging/tests)."""
        if not 0 <= k < self.num_vectors:
            raise IndexError(k)
        w, b = divmod(k, 64)
        return [int((int(self.words[i, w]) >> b) & 1) for i in range(self.num_inputs)]


def random_vectors(
    num_inputs: int, num_vectors: int, seed: Optional[int] = 0
) -> VectorSet:
    """Uniform random vectors (the paper's Monte-Carlo input distribution).

    Tail bits beyond ``num_vectors`` are zeroed so PIs never carry garbage.
    """
    if num_inputs <= 0 or num_vectors <= 0:
        raise ValueError("need at least one input and one vector")
    rng = np.random.default_rng(seed)
    num_words = (num_vectors + 63) // 64
    words = rng.integers(
        0, 2**64, size=(num_inputs, num_words), dtype=np.uint64
    )
    rem = num_vectors % 64
    if rem:
        words[:, -1] &= np.uint64((1 << rem) - 1)
    return VectorSet(words, num_vectors)


def exhaustive_vectors(num_inputs: int) -> VectorSet:
    """All ``2**num_inputs`` vectors, for exact error metrics in tests.

    Limited to 20 inputs (1 M vectors) to keep memory bounded.
    """
    if not 0 < num_inputs <= 20:
        raise ValueError("exhaustive enumeration supported for 1..20 inputs")
    total = 1 << num_inputs
    num_words = (total + 63) // 64
    words = np.zeros((num_inputs, num_words), dtype=np.uint64)
    indices = np.arange(total, dtype=np.uint64)
    for i in range(num_inputs):
        bits = (indices >> np.uint64(i)) & np.uint64(1)
        packed = np.zeros(num_words, dtype=np.uint64)
        for b in range(64):
            chunk = bits[b::64]
            packed[: len(chunk)] |= chunk << np.uint64(b)
        words[i] = packed
    return VectorSet(words, total)


def count_ones(row: np.ndarray, num_vectors: int) -> int:
    """Population count of a packed row, ignoring tail bits."""
    return int(popcount_rows(tail_masked(row[np.newaxis], num_vectors))[0])


def tail_masked(packed: np.ndarray, num_vectors: int) -> np.ndarray:
    """Zero the padding bits beyond ``num_vectors`` in packed rows.

    Works on 1-D rows and 2-D row matrices (last axis = words); returns
    the input unchanged when the final word is fully populated.
    """
    rem = num_vectors % 64
    if rem:
        packed = packed.copy()
        packed[..., -1] &= np.uint64((1 << rem) - 1)
    return packed


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Per-row population count of a packed 2-D uint64 array.

    Callers mask tail bits first (:func:`tail_masked`).  Uses the
    hardware popcount when numpy >= 2.0 provides it.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    return np.unpackbits(
        packed.view(np.uint8).reshape(packed.shape[0], -1), axis=1
    ).sum(axis=1, dtype=np.int64)
