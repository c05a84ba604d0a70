"""Structure-of-arrays value store shared by all simulation paths.

Simulated gate values live in one dense matrix per evaluation, the
analogue of the timing store (:mod:`repro.sta.store`):

* :class:`ValueStore` — one ``(rows, num_words)`` uint64 matrix holding
  every gate's packed output words, laid out by the **same** dense
  sorted-gid row numbering as the timing arrays
  (:func:`repro.sta.timing_index`, a structure memo a LAC child takes
  from its parent), so a child pays no per-child row-map build.  Two
  extra sentinel rows hold the constants: row ``n`` is CONST0 (all
  zeros), row ``n + 1`` is CONST1 (all ones).
* ``values[gid]`` — the one per-gate accessor (a row view, constants
  included) for similarity ranking, switching power and simplification
  scoring; bulk readers gather rows through ``index.row``.
* :func:`value_rows` — the gid → row map *including* the constant
  sentinel rows, cached on the index so hot walks resolve constant
  fan-ins without a branch per pin.

Layout contract: matrices have ``index.n + 2`` rows; row
``index.row[gid]`` holds gate ``gid``, row ``n`` holds CONST0 and row
``n + 1`` holds CONST1.  A store is **read-only once published** (it is
shared parent → child by the incremental and batched evaluation paths);
writers copy the matrix first (:meth:`ValueStore.fork_matrix`).  A
store never travels on its own: the shard pool and pickling move the
matrix inside an eval and lay it on the index its report
shares (:func:`repro.core.fitness.eval_payload`, ``restore_eval``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..netlist import CONST0, CONST1
from ..sta.store import TimingIndex

__all__ = ["ValueStore", "value_rows"]


def value_rows(index: TimingIndex) -> Dict[int, int]:
    """``gid -> row`` map extended with the two constant sentinel rows.

    Cached on the index object (indices are shared parent → child and
    memoized per structure version, so the O(V) dict build is paid once
    per structure, not once per evaluation).
    """
    rows = index.vrow
    if rows is None:
        rows = dict(index.row)
        rows[CONST0] = index.n
        rows[CONST1] = index.n + 1
        index.vrow = rows
    return rows


class ValueStore:
    """Packed simulation values of one circuit as a dense uint64 matrix.

    Attributes:
        index: the dense gid → row index (shared with the timing store).
        matrix: ``(index.n + 2, num_words)`` uint64; the last two rows
            are the CONST0 / CONST1 sentinels.

    ``values[gid]`` returns the row *view* of a gate or constant;
    treat it as immutable.
    """

    __slots__ = ("index", "matrix")

    def __init__(self, index: TimingIndex, matrix: np.ndarray):
        self.index = index
        self.matrix = matrix

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def fork_matrix(self) -> np.ndarray:
        """A writable copy of the matrix (stores are read-only once
        published; every derived evaluation writes into its own copy)."""
        return self.matrix.copy()

    def covers(self, circuit) -> bool:
        """True when this store has exactly one row per gate of
        ``circuit`` (the precondition for sharing the index with a
        copy-then-mutate child)."""
        return self.index.row.keys() == circuit.fanins.keys()

    def __getitem__(self, gid: int) -> np.ndarray:
        if gid >= 0:
            return self.matrix[self.index.row[gid]]
        if gid == CONST0:
            return self.matrix[self.index.n]
        if gid == CONST1:
            return self.matrix[self.index.n + 1]
        raise KeyError(gid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueStore(rows={self.matrix.shape[0]}, "
            f"num_words={self.matrix.shape[1]})"
        )
