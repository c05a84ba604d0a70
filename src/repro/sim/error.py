"""Error metrics: error rate (ER) and normalized mean error distance (NMED).

Implements the paper's Eq. (1) and Eq. (2) over Monte-Carlo vector batches:
ER for random/control circuits, NMED for arithmetic circuits whose PO
vector encodes an unsigned binary number (LSB-first in ``po_ids`` order).

Each metric is a few array operations over the packed ``(num_pos,
num_words)`` PO matrices, whatever the PO count: NMED differences the
unpacked 0/1 rows in int8 and applies one ``weights @ diff`` matmul with
significance weights built once per PO count; per-PO rates are one
popcount per row, handed back as a list of Python floats.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..netlist import Circuit
from .bitsim import po_words
from .store import ValueStore
from .vectors import VectorSet, count_ones, popcount_rows, tail_masked


class ErrorMode(enum.Enum):
    """Which metric constrains the optimization (paper §II-A)."""

    ER = "er"
    NMED = "nmed"


def _unpack_matrix(mat: np.ndarray, num_vectors: int) -> np.ndarray:
    """Unpack a packed ``(num_pos, num_words)`` matrix to 0/1 uint8.

    One batched ``unpackbits`` call instead of a Python loop per PO.
    """
    bits = np.unpackbits(
        np.ascontiguousarray(mat).view(np.uint8),
        axis=1,
        bitorder="little",
    )
    return bits[:, :num_vectors]


#: What a reference-PO unpack cache looks like: ``[matrix, nv, bits]``.
#: Owned by each :class:`~repro.core.fitness.EvalContext` (one cache per
#: evaluation context) rather than module-global state, so two sessions
#: interleaving evaluations never thrash each other's cache.  Keyed by
#: object identity — callers must not mutate a matrix in place.
UnpackCache = List[object]


def make_unpack_cache() -> UnpackCache:
    """A fresh (empty) reference-PO unpack cache."""
    return [None, 0, None]


def _unpack_ref(
    mat: np.ndarray,
    num_vectors: int,
    cache: Optional[UnpackCache] = None,
) -> np.ndarray:
    """Unpack the reference PO matrix, memoized in the caller's cache.

    Every candidate evaluation of one benchmark passes the same
    long-lived ``ref`` array (``EvalContext.reference_po``), so with a
    cache the unpack is paid once per context.  Without one (ad-hoc
    metric calls) it simply unpacks.
    """
    if cache is None:
        return _unpack_matrix(mat, num_vectors)
    cached_mat, cached_nv, cached_bits = cache
    if cached_mat is mat and cached_nv == num_vectors:
        return cached_bits
    bits = _unpack_matrix(mat, num_vectors)
    cache[0] = mat
    cache[1] = num_vectors
    cache[2] = bits
    return bits


def _require_same_shape(ref: np.ndarray, app: np.ndarray) -> None:
    if ref.shape != app.shape:
        raise ValueError("PO matrices must have identical shape")


def error_rate(
    ref: np.ndarray, app: np.ndarray, num_vectors: int
) -> float:
    """Eq. (1): probability that any PO differs between ref and app.

    ``ref``/``app`` are ``(num_pos, num_words)`` packed PO matrices.
    """
    _require_same_shape(ref, app)
    diff = np.bitwise_or.reduce(ref ^ app, axis=0)
    return count_ones(diff, num_vectors) / num_vectors


def _po_rates(
    ref: np.ndarray, app: np.ndarray, num_vectors: int
) -> np.ndarray:
    """Per-PO flip probability over ``num_vectors``, as a float64 row."""
    _require_same_shape(ref, app)
    counts = popcount_rows(tail_masked(ref ^ app, num_vectors))
    return counts / float(num_vectors)


def per_po_error_rate(
    ref: np.ndarray, app: np.ndarray, num_vectors: int
) -> List[float]:
    """Per-output flip probability, used by the Level function (Eq. 3)."""
    return _po_rates(ref, app, num_vectors).tolist()


@functools.lru_cache(maxsize=32)
def _po_weights(num_pos: int, normalized: bool) -> np.ndarray:
    """LSB-first significance weights ``2^i / denom`` as a read-only row.

    ``denom`` is ``2^num_pos - 1`` when ``normalized`` (NMED) and 1
    otherwise.  Built once per PO count and shared by every call.
    """
    denom = float(2**num_pos - 1) if normalized else 1.0
    weights = np.array(
        [float(2**i) / denom for i in range(num_pos)], dtype=np.float64
    )
    weights.flags.writeable = False
    return weights


def _weighted_distance(
    ref: np.ndarray,
    app: np.ndarray,
    num_vectors: int,
    normalized: bool,
    ref_cache: Optional[UnpackCache],
) -> float:
    """Mean ``|weights @ (ref - app)|`` over the unpacked PO matrices.

    The signed difference is formed in int8 (every entry is -1, 0 or
    1) and converted to float64 once, so the one matmul sees the full
    ``(num_pos, num_vectors)`` float64 matrix, C-contiguous.  Its
    pairwise summation order differs from a per-PO accumulation loop by
    ~1e-16-class rounding; every evaluation path shares this function,
    so they agree bit for bit.
    """
    _require_same_shape(ref, app)
    rbits = _unpack_ref(ref, num_vectors, ref_cache)
    abits = _unpack_matrix(app, num_vectors)
    diff = (rbits.view(np.int8) - abits.view(np.int8)).astype(np.float64)
    acc = _po_weights(ref.shape[0], normalized) @ diff
    return float(np.abs(acc).mean())


def mean_error_distance(
    ref: np.ndarray,
    app: np.ndarray,
    num_vectors: int,
    ref_cache: Optional[UnpackCache] = None,
) -> float:
    """Unnormalized mean |V_ori - V_app| with LSB-first PO weighting."""
    return _weighted_distance(ref, app, num_vectors, False, ref_cache)


def nmed(
    ref: np.ndarray,
    app: np.ndarray,
    num_vectors: int,
    ref_cache: Optional[UnpackCache] = None,
) -> float:
    """Eq. (2): mean error distance normalized by the max output value.

    Accumulated in the normalized domain (weights ``2^i / (2^n - 1)``)
    so 128-bit outputs stay within float64 range; precision ~1e-16 is
    far below the 1e-3-class NMED constraints the paper sweeps.
    """
    return _weighted_distance(ref, app, num_vectors, True, ref_cache)


def measure_error(
    mode: ErrorMode,
    ref: np.ndarray,
    app: np.ndarray,
    num_vectors: int,
    ref_cache: Optional[UnpackCache] = None,
) -> float:
    """Dispatch to ER or NMED according to ``mode``.

    ``ref_cache`` (one per evaluation context) memoizes the reference
    matrix unpack NMED needs; ER ignores it.
    """
    if mode is ErrorMode.ER:
        return error_rate(ref, app, num_vectors)
    return nmed(ref, app, num_vectors, ref_cache)


def per_po_error(
    mode: ErrorMode, ref: np.ndarray, app: np.ndarray, num_vectors: int
) -> List[float]:
    """Per-PO error used in the reproduction Level function.

    In ER mode this is the per-output flip rate.  In NMED mode each
    output's flip rate is weighted by its significance ``2^i / (2^n-1)``
    so high-order bits register as larger errors, matching how they
    contribute to error distance.
    """
    rates = _po_rates(ref, app, num_vectors)
    if mode is ErrorMode.NMED:
        rates = rates * _po_weights(ref.shape[0], True)
    return rates.tolist()


@dataclass(frozen=True)
class ErrorReport:
    """Bundle of every metric for one approximate circuit."""

    mode: ErrorMode
    value: float
    error_rate: float
    nmed: float
    per_po: List[float]


def error_report(
    mode: ErrorMode,
    circuit_ref: Circuit,
    values_ref: ValueStore,
    circuit_app: Circuit,
    values_app: ValueStore,
    vectors: VectorSet,
) -> ErrorReport:
    """Full error report between two simulated circuits.

    The circuits must expose the same number of POs in the same order.
    """
    ref = po_words(circuit_ref, values_ref)
    app = po_words(circuit_app, values_app)
    if ref.shape != app.shape:
        raise ValueError("circuits have different PO counts")
    er = error_rate(ref, app, vectors.num_vectors)
    nm = nmed(ref, app, vectors.num_vectors)
    return ErrorReport(
        mode=mode,
        value=er if mode is ErrorMode.ER else nm,
        error_rate=er,
        nmed=nm,
        per_po=per_po_error(mode, ref, app, vectors.num_vectors),
    )
