"""A small catalog of past optimization runs, for warm starts.

Each completed run of a session with a cache directory leaves one
pickle in ``<dir>/catalog/``: the reference circuit's structure key, a
config summary, and the final Pareto front (circuits + metrics).
``Session.warm_start`` queries it by reference key to seed a new
population from prior fronts of the same circuit family.

An entry is written to a ``.tmp-`` file and published with
``os.replace``; readers skip ``.tmp-`` names, a failed write removes
its temporary file, and an unreadable entry is skipped with a warning.
Entries are uniquely named per writer, so concurrent runs can record
themselves without coordination and a damaged catalog can never break
a session.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class RunRecord:
    """One past run: where it started, how, and what front it reached.

    Attributes:
        reference_key: ``full_structure_key`` of the accurate circuit.
        method: canonical method name ("Ours", "HEDALS", ...).
        error_mode: the error metric's name ("er" / "nmed").
        error_bound: the run's error constraint.
        seed: the run's RNG seed.
        created_at: wall-clock time the record was written.
        front: the final Pareto front as ``(circuit, metrics)`` pairs,
            metrics holding at least fitness/fd/fa/error/area/depth.
        config_summary: whatever flow knobs the writer found notable.
    """

    reference_key: bytes
    method: str
    error_mode: str
    error_bound: float
    seed: int
    created_at: float
    front: List[Tuple[Any, Dict[str, float]]]
    config_summary: Dict[str, Any] = field(default_factory=dict)


class Catalog:
    """Reader/writer for one run catalog directory (created on the
    first :meth:`add`)."""

    def __init__(self, path: str):
        self.path = path
        self._seq = 0

    def _entries(self) -> List[str]:
        """Published entries; a writer's ``.tmp-`` file is not one
        until its rename lands."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return sorted(
            n for n in names
            if n.endswith(".pkl") and not n.startswith(".tmp-")
        )

    def count(self) -> int:
        return len(self._entries())

    def add(self, record: RunRecord) -> str:
        """Atomically publish one run record; returns its path.  A
        failed write removes its temporary file and re-raises."""
        self._seq += 1
        name = (
            f"run-{os.getpid()}-{self._seq:04d}-"
            f"{os.urandom(3).hex()}.pkl"
        )
        os.makedirs(self.path, exist_ok=True)
        final = os.path.join(self.path, name)
        tmp = os.path.join(self.path, f".tmp-{name}")
        try:
            with open(tmp, "wb") as f:
                pickle.dump(record, f, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return final

    def runs(
        self,
        reference_key: Optional[bytes] = None,
        method: Optional[str] = None,
    ) -> List[RunRecord]:
        """Matching records, newest first; unreadable files skipped."""
        records: List[Tuple[float, str, RunRecord]] = []
        for name in self._entries():
            path = os.path.join(self.path, name)
            try:
                with open(path, "rb") as f:
                    record = pickle.load(f)
            except Exception as exc:  # noqa: BLE001 - degrade, don't die
                warnings.warn(
                    f"run catalog: unreadable entry {path} "
                    f"({exc!r}); skipped",
                    RuntimeWarning,
                )
                continue
            if not isinstance(record, RunRecord):
                continue
            if (
                reference_key is not None
                and record.reference_key != reference_key
            ):
                continue
            if method is not None and record.method != method:
                continue
            records.append((record.created_at, name, record))
        records.sort(key=lambda r: (r[0], r[1]), reverse=True)
        return [r for _, _, r in records]
