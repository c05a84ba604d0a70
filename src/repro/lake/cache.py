"""The :class:`EvalCache`: cross-run content-addressed eval storage.

An ``EvalCache`` is a directory::

    <dir>/segments/seg-<pid>-<n>-<rand>.evs   append-only record batches
    <dir>/catalog/run-*.pkl                   past-run summaries
    <dir>/stats.jsonl                         one counter line per process

and three layers in front of it:

* an **in-memory index** mapping the 48-byte composite key
  ``structure_key + library_digest + vector_digest`` to the segment
  record holding its payload, refreshed lazily from the directory
  listing (so records written by *other* processes — shard workers,
  concurrent runs — become visible without any coordination);
* an **LRU admission layer** of decoded payloads, byte-budgeted, so a
  hot working set never touches disk twice;
* **maintenance** — :meth:`compact` (merge live records into one
  segment, drop dead versions), :meth:`gc` (segment-granularity
  retention by age/size), :meth:`stats` (hits/misses/bytes/segments).

Writers never share files: every :meth:`put_many` flush publishes a
fresh uniquely-named segment via ``os.replace``, which is the whole
concurrency story — two ``REPRO_JOBS=2`` runs pointed at one cache
directory interleave segments, and the worst possible race (a reader
holding an index entry for a segment a compaction just deleted) reads
a miss and recomputes.  Payloads are the raw SoA arrays of an
evaluation (five timing arrays + the dense value matrix), i.e. pure
functions of the composite key; the metric tail is recomputed by the
consumer so hit-path results stay bit-identical to computed ones.

Caches are process-local singletons per directory (:func:`open_cache`)
and pickle as their path, so a context spec shipped to a shard worker
reattaches the same lake there.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import threading
import time
import warnings
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import faults
from ..analysis.sanitize import TrackedLock
from . import segment as seg
from .catalog import Catalog

#: Default byte budget of the in-memory payload LRU.
DEFAULT_MEMORY_BUDGET = 128 * 1024 * 1024

#: ``(segment path, header offset, payload length, timestamp)``.
_IndexEntry = Tuple[str, int, int, float]


def _payload_bytes(payload: Tuple) -> int:
    return sum(int(getattr(a, "nbytes", 64)) for a in payload)


class EvalCache:
    """One process's handle on a lake directory (see module docstring).

    Args:
        path: the lake directory (created if absent).
        memory_budget: byte cap of the decoded-payload LRU.
        max_bytes: default on-disk size budget for :meth:`gc` /
            :meth:`compact` (``None``: unbounded).
        max_age_s: default record age bound for maintenance
            (``None``: keep forever).
    """

    def __init__(
        self,
        path: str,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ):
        self.path = os.path.abspath(path)
        self.segments_dir = os.path.join(self.path, "segments")
        os.makedirs(self.segments_dir, exist_ok=True)
        self.memory_budget = memory_budget
        self.max_bytes = max_bytes
        self.max_age_s = max_age_s
        self.catalog = Catalog(os.path.join(self.path, "catalog"))
        self._index: Dict[bytes, _IndexEntry] = {}
        self._seen: set = set()
        self._memory: "OrderedDict[bytes, Tuple[Tuple, int]]" = OrderedDict()
        self._memory_bytes = 0
        self._seq = 0
        self.counters: Dict[str, int] = {
            "hits": 0,
            "disk_hits": 0,
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

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _segment_files(self) -> List[str]:
        """Published segment names; a writer's ``.tmp-`` file is not one
        until its ``os.replace`` lands."""
        try:
            names = os.listdir(self.segments_dir)
        except OSError:
            return []
        return sorted(
            n
            for n in names
            if n.endswith(".evs") and not n.startswith(".tmp-")
        )

    def refresh(self) -> None:
        """Fold segments other processes published into the index.

        Newest timestamp wins per composite key, so a re-put after a
        compaction (or a concurrent writer's fresher record) shadows
        older versions deterministically.
        """
        for name in self._segment_files():
            if name in self._seen:
                continue
            self._seen.add(name)
            path = os.path.join(self.segments_dir, name)
            for (skey, lib, vec), offset, length, ts in seg.scan_segment(
                path
            ):
                comp = skey + lib + vec
                current = self._index.get(comp)
                if current is None or ts >= current[3]:
                    self._index[comp] = (path, offset, length, ts)

    def _check_pid(self) -> None:
        """Re-baseline the stats ledger after a ``fork``.

        Forked shard workers inherit the parent's singleton — index and
        LRU included, which is exactly right — but the inherited
        counters describe the *parent's* activity, and flushing them
        from the child would double-count every parent lookup once per
        worker.  On the first counter-touching call in a new pid the
        already-flushed ledger is reset to the inherited counters, so
        this process only ever reports its own deltas.
        """
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._flushed = dict(self.counters)

    def _drop_entry(self, comp: bytes) -> None:
        self._index.pop(comp, None)
        entry = self._memory.pop(comp, None)
        if entry is not None:
            self._memory_bytes -= entry[1]
        self.counters["drops"] += 1

    # ------------------------------------------------------------------
    # the batch read/write surface
    # ------------------------------------------------------------------
    def _admit(self, comp: bytes, payload: Tuple) -> None:
        nbytes = _payload_bytes(payload)
        old = self._memory.pop(comp, None)
        if old is not None:
            self._memory_bytes -= old[1]
        self._memory[comp] = (payload, nbytes)
        self._memory_bytes += nbytes
        while self._memory_bytes > self.memory_budget and len(self._memory) > 1:
            _, (_, evicted) = self._memory.popitem(last=False)
            self._memory_bytes -= evicted

    def get_many(
        self, lib: bytes, vec: bytes, keys: Sequence[bytes]
    ) -> Dict[bytes, Tuple]:
        """Look a batch of structure keys up under one context digest.

        Returns ``{structure_key: payload}`` for the keys found; hit and
        miss counters tally per *requested* key occurrence (what the
        bench's batch hit rate reports).  Every disk read re-validates
        framing, key triple and CRC — a failed validation drops the
        index entry and reports a miss.
        """
        self._check_pid()
        found: Dict[bytes, Tuple] = {}
        unique: Dict[bytes, bytes] = {}
        for skey in keys:
            if skey not in unique:
                unique[skey] = skey + lib + vec
        if any(comp not in self._index and comp not in self._memory
               for comp in unique.values()):
            self.refresh()
        for skey, comp in unique.items():
            entry = self._memory.get(comp)
            if entry is not None:
                self._memory.move_to_end(comp)
                found[skey] = entry[0]
                continue
            where = self._index.get(comp)
            if where is None:
                continue
            path, offset, length, _ts = where
            raw = seg.read_record(path, offset, (skey, lib, vec))
            if raw is None:
                self._drop_entry(comp)
                continue
            try:
                payload = pickle.loads(raw)
            except Exception as exc:  # pragma: no cover - defensive
                warnings.warn(
                    f"evaluation lake: undecodable record at "
                    f"{path}:{offset} ({exc!r}); treated as a miss",
                    RuntimeWarning,
                )
                self._drop_entry(comp)
                continue
            self._admit(comp, payload)
            self.counters["disk_hits"] += 1
            found[skey] = payload
        for skey in keys:
            if skey in found:
                self.counters["hits"] += 1
            else:
                self.counters["misses"] += 1
        return found

    def put_many(
        self,
        lib: bytes,
        vec: bytes,
        entries: Iterable[Tuple[bytes, Tuple]],
    ) -> int:
        """Write-through a batch of ``(structure_key, payload)`` records.

        Already-present keys are skipped (first write wins — payloads
        for one composite key are bit-identical by construction, so
        there is nothing to update).  All new records are published as
        one atomic segment.
        """
        self._check_pid()
        now = time.time()
        records: List[Tuple[seg.KeyTriple, float, bytes]] = []
        admitted: List[Tuple[bytes, Tuple]] = []
        for skey, payload in entries:
            comp = skey + lib + vec
            if comp in self._index or comp in self._memory:
                continue
            records.append(
                (
                    (skey, lib, vec),
                    now,
                    pickle.dumps(payload, pickle.HIGHEST_PROTOCOL),
                )
            )
            admitted.append((comp, payload))
        if not records:
            return 0
        self._seq += 1
        name = (
            f"seg-{os.getpid()}-{self._seq:06d}-"
            f"{os.urandom(3).hex()}.evs"
        )
        path = seg.write_segment(self.segments_dir, records, name)
        if path is None:  # pragma: no cover - records is non-empty
            return 0
        if faults.should_inject("lake.corrupt"):
            # Chaos site: simulated bit rot on the just-published
            # segment (first payload byte → CRC mismatch on read-back;
            # the lake degrades to miss-and-recompute, never to wrong
            # data).
            faults.corrupt_file(
                path, offset=len(seg.FILE_MAGIC) + seg.HEADER_SIZE
            )
        self._seen.add(name)
        offset = len(seg.FILE_MAGIC)
        for ((triple, ts, raw), (comp, payload)) in zip(records, admitted):
            self._index[comp] = (path, offset, len(raw), ts)
            self._admit(comp, payload)
            offset += seg.HEADER_SIZE + len(raw)
        self.counters["puts"] += len(records)
        self.counters["put_bytes"] += sum(len(r[2]) for r in records)
        return len(records)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Current counters plus an on-disk census."""
        self.refresh()
        files = self._segment_files()
        disk_bytes = 0
        for name in files:
            try:
                disk_bytes += os.path.getsize(
                    os.path.join(self.segments_dir, name)
                )
            except OSError:
                pass
        c = self.counters
        lookups = c["hits"] + c["misses"]
        return {
            "path": self.path,
            "hits": c["hits"],
            "disk_hits": c["disk_hits"],
            "misses": c["misses"],
            "hit_rate": (c["hits"] / lookups) if lookups else 0.0,
            "puts": c["puts"],
            "put_bytes": c["put_bytes"],
            "drops": c["drops"],
            "segments": len(files),
            "records": len(self._index),
            "disk_bytes": disk_bytes,
            "memory_records": len(self._memory),
            "memory_bytes": self._memory_bytes,
            "catalog_runs": self.catalog.count(),
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Segment-granularity retention: drop old/over-budget segments.

        Whole segments are the eviction unit (cheap: no rewrites); a
        segment survives an age bound as long as its newest record is
        young enough.  Size eviction removes oldest-written segments
        first until the directory fits the budget.
        """
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_age_s = max_age_s if max_age_s is not None else self.max_age_s
        self.refresh()
        now = time.time()
        census: List[Tuple[float, str, int]] = []  # (newest ts, name, size)
        for name in self._segment_files():
            path = os.path.join(self.segments_dir, name)
            entries = seg.scan_segment(path)
            newest = max((e[3] for e in entries), default=0.0)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            census.append((newest, name, size))
        doomed: List[str] = []
        if max_age_s is not None:
            cutoff = now - max_age_s
            doomed.extend(n for ts, n, _ in census if ts < cutoff)
        if max_bytes is not None:
            alive = [c for c in census if c[1] not in doomed]
            total = sum(size for _, _, size in alive)
            for ts, name, size in sorted(alive):
                if total <= max_bytes:
                    break
                doomed.append(name)
                total -= size
        removed_bytes = 0
        for name in doomed:
            path = os.path.join(self.segments_dir, name)
            try:
                removed_bytes += os.path.getsize(path)
                os.unlink(path)
            except OSError:
                pass
            self._seen.discard(name)
        if doomed:
            doomed_paths = {
                os.path.join(self.segments_dir, n) for n in doomed
            }
            for comp in [
                comp
                for comp, (path, *_rest) in self._index.items()
                if path in doomed_paths
            ]:
                self._index.pop(comp, None)
        return {
            "removed_segments": len(doomed),
            "removed_bytes": removed_bytes,
            "segments": len(self._segment_files()),
        }

    def compact(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Merge every live record into one segment; drop dead versions.

        "Dead" covers records shadowed by a newer write of the same
        composite key, records past the age bound, and — when a size
        budget is given — the oldest records beyond it.  Run this from
        the process that owns the lake (the session parent / the CLI):
        concurrent readers of replaced segments degrade to misses.
        """
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_age_s = max_age_s if max_age_s is not None else self.max_age_s
        self.refresh()
        before = self._segment_files()
        now = time.time()
        live: List[Tuple[float, bytes, seg.KeyTriple, bytes]] = []
        for comp, (path, offset, _length, ts) in self._index.items():
            if max_age_s is not None and ts < now - max_age_s:
                continue
            triple = (comp[:16], comp[16:32], comp[32:48])
            raw = seg.read_record(path, offset, triple)
            if raw is None:
                continue
            live.append((ts, comp, triple, raw))
        live.sort(key=lambda r: (r[0], r[1]), reverse=True)  # newest first
        if max_bytes is not None:
            kept: List[Tuple[float, bytes, seg.KeyTriple, bytes]] = []
            total = len(seg.FILE_MAGIC)
            for rec in live:
                cost = seg.HEADER_SIZE + len(rec[3])
                if total + cost > max_bytes and kept:
                    break
                total += cost
                kept.append(rec)
            live = kept
        self._seq += 1
        name = (
            f"seg-{os.getpid()}-{self._seq:06d}-"
            f"{os.urandom(3).hex()}.evs"
        )
        new_index: Dict[bytes, _IndexEntry] = {}
        if live:
            path = seg.write_segment(
                self.segments_dir,
                [(triple, ts, raw) for ts, _comp, triple, raw in live],
                name,
            )
            offset = len(seg.FILE_MAGIC)
            for ts, comp, _triple, raw in live:
                new_index[comp] = (path, offset, len(raw), ts)
                offset += seg.HEADER_SIZE + len(raw)
        removed = 0
        for old in before:
            if old == name:
                continue
            try:
                os.unlink(os.path.join(self.segments_dir, old))
                removed += 1
            except OSError:
                pass
        self._index = new_index
        self._seen = {name} if live else set()
        return {
            "records": len(new_index),
            "removed_segments": removed,
            "segments": len(self._segment_files()),
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

#: Guards the registry and the lazy ``ctx.lake`` resolution below:
#: serve-mode jobs share one process and open/resolve caches from
#: concurrent threads, and two racing opens must not build two
#: instances (two indexes, two LRUs, double-counted stats) for one
#: directory.
_OPEN_LOCK = TrackedLock("lake._OPEN_LOCK")


def open_cache(path: str, **knobs: Any) -> EvalCache:
    """The process's shared :class:`EvalCache` for ``path``.

    Sharing one instance per directory keeps the index, the LRU and the
    hit/miss counters coherent across every consumer in the process
    (sessions, optimizers, the batch evaluator).  ``knobs`` apply only
    when this call creates the instance.  Thread-safe: concurrent
    callers for one directory always receive the same instance.
    """
    with _OPEN_LOCK:
        return _open_locked(path, **knobs)


def _open_locked(path: str, **knobs: Any) -> EvalCache:
    """Registry lookup/creation; caller holds ``_OPEN_LOCK``."""
    key = os.path.abspath(path)
    cache = _OPEN.get(key)
    if cache is None:
        cache = EvalCache(key, **knobs)
        _OPEN[key] = cache
    return cache


def flush_open_caches() -> None:
    """Flush every open cache's stats ledger (daemon shutdown hook)."""
    with _OPEN_LOCK:
        caches = list(_OPEN.values())
    for cache in caches:
        cache.flush_stats()


def resolve_cache_dir(
    cache_dir: Optional[str] = None, config: Any = None
) -> Optional[str]:
    """Lake-directory resolution: argument > config > ``REPRO_CACHE``."""
    if cache_dir:
        return cache_dir
    if config is not None:
        cfg_dir = getattr(config, "cache_dir", None)
        if cfg_dir:
            return cfg_dir
    env = os.environ.get("REPRO_CACHE", "").strip()
    return env or None


def context_cache(ctx: Any) -> Optional[EvalCache]:
    """The context's attached lake, resolving ``REPRO_CACHE`` lazily.

    ``ctx.lake`` is tri-state: an :class:`EvalCache` (attached), ``False``
    (caching explicitly disabled — the env is *not* consulted), or
    ``None`` (unset: resolve the environment once and memoize).  The
    lazy mutation is lock-protected (double-checked) so concurrent
    jobs sharing one context resolve the environment exactly once.
    """
    lake = getattr(ctx, "lake", None)
    if lake is None:
        with _OPEN_LOCK:
            lake = getattr(ctx, "lake", None)
            if lake is None:
                env = os.environ.get("REPRO_CACHE", "").strip()
                lake = _open_locked(env) if env else False
                ctx.lake = lake
    return lake or None
