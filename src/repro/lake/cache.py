"""The :class:`EvalCache`: cross-run content-addressed eval storage.

An ``EvalCache`` is a directory::

    <dir>/records/<key hex>.rec    one immutable file per evaluation
    <dir>/catalog/run-*.pkl        past-run summaries
    <dir>/stats.jsonl              one counter line per process

The filesystem is the index: a record's name is the hex of its 48-byte
composite key ``structure_key + library_digest + vector_digest``, so a
lookup opens that one file and a missing file is a plain miss.  A
record file is::

    REC_MAGIC crc32(payload) payload_len structure_key library_digest
    vector_digest payload

Writers publish each record by writing a ``.tmp-`` file in the same
directory and ``os.replace``-ing it onto its name, which is the whole
concurrency story: readers (other runs, shard workers) see a complete
record or none, and two writers racing on one key publish the same
bytes.  A record that fails validation (framing, key triple, CRC,
unpickling) warns, reads as a miss and is deleted, so the caller's
write-through republishes it — a damaged lake costs recomputation,
never a crash and never a wrong result.  Payloads are the raw SoA
arrays of an evaluation (five timing arrays + the dense value matrix),
i.e. pure functions of the composite key; the metric tail is
recomputed by the consumer so hit-path results stay bit-identical to
computed ones.  Nothing is held in memory: :meth:`EvalCache.stats`
and :meth:`EvalCache.gc` census ``records/`` (skipping ``.tmp-``
names, taking age from mtime).

Caches are process-local singletons per directory (:func:`open_cache`)
and pickle as their path, so a context spec shipped to a shard worker
reattaches the same lake there.  :func:`resolve_lake` decides which
lake, if any, one evaluation context uses; ``EvalContext.build`` calls
it once.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import struct
import time
import warnings
import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import faults
from ..analysis.sanitize import TrackedLock
from .catalog import Catalog

#: First bytes of every record file; bump the digit on layout changes.
REC_MAGIC = b"REVREC01"

#: magic, crc32(payload), payload length, key triple.
_HEADER = struct.Struct("<8sII16s16s16s")
HEADER_SIZE = _HEADER.size


class EvalCache:
    """One process's handle on a lake directory (see module docstring).

    Args:
        path: the lake directory (created if absent).
    """

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self.records_dir = os.path.join(self.path, "records")
        os.makedirs(self.records_dir, exist_ok=True)
        self.catalog = Catalog(os.path.join(self.path, "catalog"))
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "put_bytes": 0,
            "drops": 0,
        }
        self._flushed: Dict[str, int] = dict.fromkeys(self.counters, 0)
        self._pid = os.getpid()
        atexit.register(self.flush_stats)

    def __reduce__(self):
        # Pickles as its directory: a shipped cache reattaches the
        # receiving process's singleton for the same lake.
        return (open_cache, (self.path,))

    def record_path(self, skey: bytes, lib: bytes, vec: bytes) -> str:
        """Where the record for one composite key lives."""
        name = (skey + lib + vec).hex() + ".rec"
        return os.path.join(self.records_dir, name)

    def _check_pid(self) -> None:
        """Re-baseline the stats ledger after a ``fork``.

        Forked shard workers inherit the parent's singleton, but the
        inherited counters describe the *parent's* activity, and
        flushing them from the child would double-count every parent
        lookup once per worker.  On the first counter-touching call in
        a new pid the already-flushed ledger is reset to the inherited
        counters, so this process only ever reports its own deltas.
        """
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._flushed = dict(self.counters)

    def _read(self, path: str, triple: Tuple[bytes, bytes, bytes]) -> Any:
        """One record's payload, or ``None``: a missing file is a plain
        miss, and a damaged one warns, counts a drop and is deleted."""
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            return self._drop(path, f"cannot read ({exc})")
        if len(raw) < HEADER_SIZE:
            return self._drop(path, "truncated header")
        magic, crc, length, *stored = _HEADER.unpack_from(raw)
        payload = memoryview(raw)[HEADER_SIZE:]
        if magic != REC_MAGIC or tuple(stored) != triple:
            return self._drop(path, "bad framing or mismatched key")
        if len(payload) != length:
            return self._drop(path, "length mismatch")
        if zlib.crc32(payload) != crc:
            return self._drop(path, "CRC mismatch")
        try:
            return pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            return self._drop(path, f"undecodable payload ({exc!r})")

    def _drop(self, path: str, why: str) -> None:
        warnings.warn(
            f"evaluation lake: {path}: {why}; treated as a miss",
            RuntimeWarning,
            stacklevel=3,
        )
        self.counters["drops"] += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    # ------------------------------------------------------------------
    # the batch read/write surface
    # ------------------------------------------------------------------
    def get_many(
        self, lib: bytes, vec: bytes, keys: Sequence[bytes]
    ) -> Dict[bytes, Tuple]:
        """Look a batch of structure keys up under one context digest.

        Returns ``{structure_key: payload}`` for the keys found; hit and
        miss counters tally per *requested* key occurrence (what the
        bench's batch hit rate reports).  Every read validates framing,
        key triple and CRC.
        """
        self._check_pid()
        found: Dict[bytes, Tuple] = {}
        for skey in dict.fromkeys(keys):
            payload = self._read(
                self.record_path(skey, lib, vec), (skey, lib, vec)
            )
            if payload is not None:
                found[skey] = payload
        for skey in keys:
            self.counters["hits" if skey in found else "misses"] += 1
        return found

    def put_many(
        self,
        lib: bytes,
        vec: bytes,
        entries: Iterable[Tuple[bytes, Tuple]],
    ) -> int:
        """Write-through a batch of ``(structure_key, payload)`` records.

        A key whose record file exists is skipped (payloads for one
        composite key are bit-identical by construction, so there is
        nothing to update).  Each new record is published atomically on
        its own.  A write that fails (a full disk, say) is dropped like
        a damaged record and ends the batch: the results are recomputed
        when next needed, and the run goes on.  Returns the number of
        records published.
        """
        self._check_pid()
        published: List[str] = []
        for skey, payload in entries:
            final = self.record_path(skey, lib, vec)
            if os.path.exists(final):
                continue
            raw = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            tmp = os.path.join(
                self.records_dir,
                f".tmp-{os.getpid()}-{os.urandom(4).hex()}.rec",
            )
            header = _HEADER.pack(
                REC_MAGIC, zlib.crc32(raw), len(raw), skey, lib, vec
            )
            try:
                with open(tmp, "wb") as f:
                    f.write(header)
                    f.write(raw)
                os.replace(tmp, final)
            except OSError as exc:
                self._drop(tmp, f"cannot write ({exc.strerror or exc})")
                break
            published.append(final)
            self.counters["puts"] += 1
            self.counters["put_bytes"] += len(raw)
        if published and faults.should_inject("lake.corrupt"):
            # Chaos site: simulated bit rot on the first record this
            # write-through published (first payload byte → CRC
            # mismatch on read-back; the lake degrades to
            # miss-and-recompute, never to wrong data).
            faults.corrupt_file(published[0], offset=HEADER_SIZE)
        return len(published)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _census(self) -> List[Tuple[float, str, int]]:
        """``(mtime, path, size)`` of every published record; a
        writer's ``.tmp-`` file is not one until its rename lands."""
        out = []
        try:
            names = os.listdir(self.records_dir)
        except OSError:
            return out
        for name in names:
            if not name.endswith(".rec") or name.startswith(".tmp-"):
                continue
            path = os.path.join(self.records_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((st.st_mtime, path, st.st_size))
        return out

    def stats(self) -> Dict[str, Any]:
        """Current counters plus an on-disk census."""
        census = self._census()
        c = self.counters
        lookups = c["hits"] + c["misses"]
        return {
            "path": self.path,
            **c,
            "hit_rate": (c["hits"] / lookups) if lookups else 0.0,
            "records": len(census),
            "disk_bytes": sum(size for _, _, size in census),
            "catalog_runs": self.catalog.count(),
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Retention: drop records past the age bound, then the oldest
        records until the directory fits the size budget."""
        census = sorted(self._census())
        doomed: List[Tuple[float, str, int]] = []
        if max_age_s is not None:
            cutoff = time.time() - max_age_s
            doomed = [c for c in census if c[0] < cutoff]
            census = census[len(doomed):]
        if max_bytes is not None:
            total = sum(size for _, _, size in census)
            for entry in census:
                if total <= max_bytes:
                    break
                doomed.append(entry)
                total -= entry[2]
        removed_bytes = 0
        for _, path, size in doomed:
            try:
                os.unlink(path)
                removed_bytes += size
            except OSError:
                pass
        return {
            "removed_records": len(doomed),
            "removed_bytes": removed_bytes,
            "records": len(self._census()),
        }

    # ------------------------------------------------------------------
    # cross-process stats
    # ------------------------------------------------------------------
    def flush_stats(self) -> None:
        """Append this process's counter deltas to ``stats.jsonl``.

        Idempotent (only deltas since the last flush are written) and
        append-only with one ``write`` syscall per line, so concurrent
        processes — two pytest runs, shard workers — interleave whole
        lines.  :func:`aggregate_stats` sums them back up.
        """
        self._check_pid()
        delta = {
            k: self.counters[k] - self._flushed[k] for k in self.counters
        }
        if not any(delta.values()):
            return
        self._flushed = dict(self.counters)
        line = json.dumps({"pid": os.getpid(), **delta}) + "\n"
        try:
            fd = os.open(
                os.path.join(self.path, "stats.jsonl"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        except OSError:  # pragma: no cover - stats are best-effort
            pass

    def aggregate_stats(self) -> Dict[str, Any]:
        """Disk census plus counters summed over every recorded process."""
        self.flush_stats()
        totals = dict.fromkeys(self.counters, 0)
        try:
            with open(os.path.join(self.path, "stats.jsonl")) as f:
                for line in f:
                    try:
                        row = json.loads(line)
                    except ValueError:
                        continue
                    for key in totals:
                        totals[key] += int(row.get(key, 0))
        except OSError:
            pass
        stats = self.stats()
        lookups = totals["hits"] + totals["misses"]
        stats.update(totals)
        stats["hit_rate"] = (totals["hits"] / lookups) if lookups else 0.0
        return stats


#: Process-local cache registry: one ``EvalCache`` per lake directory.
_OPEN: Dict[str, EvalCache] = {}

#: Guards the registry: serve-mode jobs share one process and open
#: caches from concurrent threads, and two racing opens must not build
#: two instances (double-counted stats) for one directory.
_OPEN_LOCK = TrackedLock("lake._OPEN_LOCK")


def open_cache(path: str) -> EvalCache:
    """The process's shared :class:`EvalCache` for ``path``.

    Sharing one instance per directory keeps the hit/miss counters
    coherent across every consumer in the process (sessions,
    optimizers, the batch evaluator).  Thread-safe: concurrent callers
    for one directory always receive the same instance.
    """
    with _OPEN_LOCK:
        return _open_locked(path)


def _open_locked(path: str) -> EvalCache:
    """Registry lookup/creation; caller holds ``_OPEN_LOCK``."""
    key = os.path.abspath(path)
    cache = _OPEN.get(key)
    if cache is None:
        cache = EvalCache(key)
        _OPEN[key] = cache
    return cache


def flush_open_caches() -> None:
    """Flush every open cache's stats ledger (daemon shutdown hook)."""
    with _OPEN_LOCK:
        caches = list(_OPEN.values())
    for cache in caches:
        cache.flush_stats()


def resolve_lake(
    lake: Union[EvalCache, str, bool, None] = None
) -> Union[EvalCache, bool]:
    """The evaluation lake of one context: an ``EvalCache`` or ``False``.

    An :class:`EvalCache`, or ``False`` for no lake, is returned as
    is; a directory opens the lake there; ``None`` opens the lake that
    ``REPRO_CACHE`` names, or gives ``False`` when it is unset or
    empty.  Anything else raises ``TypeError``.
    """
    if lake is None:
        lake = os.environ.get("REPRO_CACHE", "").strip() or False
    if isinstance(lake, str):
        return open_cache(lake)
    if lake is False or isinstance(lake, EvalCache):
        return lake
    raise TypeError(f"not an evaluation lake: {lake!r}")
