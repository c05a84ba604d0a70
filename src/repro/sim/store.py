"""Value store shared by all simulation paths: one Python int per row.

* :class:`ValueStore` — a tuple of value rows, one Python int per gate:
  bit ``k`` is the gate's value on vector ``k``, and a row is exactly
  ``num_vectors`` bits wide.  Rows are laid out by the **same** dense
  sorted-gid row numbering as the timing tuples
  (:func:`repro.sta.timing_index`, a structure memo a LAC child takes
  from its parent); row ``n`` is CONST0 (``0``) and row ``n + 1`` is
  CONST1 (all ``num_vectors`` bits set).
* ``values[gid]`` — the one per-gate accessor (constants included) for
  similarity ranking, switching power and simplification scoring.
* :func:`value_rows` — the gid → row map *including* the constant
  sentinel rows, cached on the index so hot walks resolve constant
  fan-ins without a branch per pin.

A tuple cannot be written, so a store is read-only once published by
type: a child's walk starts from ``list(parent.rows)`` and publishes a
new tuple, sharing every row object it did not rewrite.  A store never
travels on its own: the shard pool and pickling move the rows inside an
eval (:func:`repro.core.fitness.eval_payload`).
:func:`repro.sim.po_words` is the one boundary back to uint64 words.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..netlist import CONST0, CONST1
from ..sta.store import TimingIndex

__all__ = ["ValueStore", "value_rows"]


def value_rows(index: TimingIndex) -> Dict[int, int]:
    """``gid -> row`` map extended with the two constant sentinel rows,
    cached on the index (shared parent → child, so the O(V) build is
    paid once per structure, not once per evaluation)."""
    rows = index.vrow
    if rows is None:
        rows = dict(index.row)
        rows[CONST0] = index.n
        rows[CONST1] = index.n + 1
        index.vrow = rows
    return rows


class ValueStore:
    """Simulation values of one circuit, one Python int per row.

    Attributes:
        index: the dense gid → row index (shared with the timing store).
        rows: ``index.n + 2`` ints; the last two are the CONST0 / CONST1
            sentinels.
    """

    __slots__ = ("index", "rows")

    def __init__(self, index: TimingIndex, rows: Tuple[int, ...]):
        self.index = index
        self.rows = rows

    @property
    def num_vectors(self) -> int:
        """Row width in bits: the CONST1 row has every one of them set."""
        return self.rows[-1].bit_length()

    def covers(self, circuit) -> bool:
        """True when this store has exactly one row per gate of
        ``circuit``, so a child can share its index."""
        return self.index.row.keys() == circuit.fanins.keys()

    def __getitem__(self, gid: int) -> int:
        return self.rows[value_rows(self.index)[gid]]
