"""The PR-7 evaluation lakehouse: segments, cache, session wiring.

Contracts pinned here:

* **segment format** — round-trip, and every corruption mode (truncated
  tail, CRC flip, bad file magic, tampered header, mismatched key
  triple) degrades to a warned miss, never a crash;
* **EvalCache** — batch get/put, cross-instance visibility via
  ``refresh``, the LRU admission layer, ``gc``/``compact`` retention,
  pickling as the directory path, cross-process stats aggregation;
* **staleness guard** — a mutated library changes the digest, so lake
  records written under the old library are misses;
* **batch path** — with a lake attached, ``evaluate_batch`` is
  bit-identical cold (write-through) and warm (hits from disk), corrupt
  records are recomputed, and duplicate keys share one rebuilt eval;
* **session wiring** — ``cache_dir=``/``cache=``/``REPRO_CACHE``
  resolution (once, at context build), cold/warm full-run
  bit-identity, checkpoint/resume
  reattachment, the run catalog and ``warm_start`` seeding;
* **concurrent writers** — two ``REPRO_JOBS=2`` processes sharing one
  cache directory interleave segments and agree bit-for-bit;
* the ``repro cache {stats,compact,gc}`` CLI subcommands.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from reference_circuits import build_adder

import repro
from repro import FlowConfig, Session
from repro.__main__ import main
from repro.cells import Library, default_library
from repro.core import (
    EvalContext,
    LAC,
    applied_copy,
    evaluate_batch,
    is_safe,
)
from repro.lake import (
    EvalCache,
    context_digests,
    library_digest,
    open_cache,
    resolve_lake,
    vectors_digest,
)
from repro.lake import segment as seg
from repro.sim import ErrorMode, best_switch


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _ctx(circuit, library, seed=4, num_vectors=256):
    return EvalContext.build(
        circuit, library, ErrorMode.NMED, num_vectors=num_vectors, seed=seed
    )


def _lac_children(ctx, count, seed=3):
    """``count`` distinct single-LAC children of the reference."""
    rng = random.Random(seed)
    parent = ctx.reference_eval()
    circuit = ctx.reference
    children, seen = [], set()
    logic = circuit.logic_ids()
    attempts = 0
    while len(children) < count and attempts < 200 * count:
        attempts += 1
        target = logic[rng.randrange(len(logic))]
        found = best_switch(
            circuit, parent.values, target, ctx.vectors.num_vectors
        )
        if found is None:
            continue
        lac = LAC(target=target, switch=found[0])
        if not is_safe(circuit, lac):
            continue
        child = applied_copy(circuit, lac)
        key = child.structure_key()
        if key in seen:
            continue
        seen.add(key)
        children.append(child)
    assert len(children) == count
    return children


def _assert_same_eval(a, b):
    assert a.fitness == b.fitness
    assert a.fd == b.fd
    assert a.fa == b.fa
    assert a.depth == b.depth
    assert a.area == b.area
    assert a.error == b.error
    assert a.per_po_error == b.per_po_error
    assert a.report.cpd == b.report.cpd
    ra, rb = a.report.index.row, b.report.index.row
    for gid in a.circuit.gate_ids():
        assert a.report.arrival_a[ra[gid]] == b.report.arrival_a[rb[gid]], gid
        assert (a.values[gid] == b.values[gid]).all(), gid


def _flow_signature(result):
    return (
        result.ratio_cpd,
        result.cpd_ori,
        result.cpd_fac,
        result.error,
        result.area_ori,
        result.area_fac,
        result.circuit.structure_key(),
    )


#: A config whose seeded DCGWO trajectory actually improves the adder
#: (ratio_cpd < 1), so bit-identity checks exercise non-trivial work.
ER_CFG = dict(
    error_mode=ErrorMode.ER,
    error_bound=0.15,
    num_vectors=256,
    effort=0.3,
    seed=1,
)


def _bench_adder():
    from repro.bench import build_benchmark

    return build_benchmark("Adder", "scaled")


def _triple(i=0, lib=b"L" * 16, vec=b"V" * 16):
    return (bytes([i]) * 16, lib, vec)


def _payloads(n, size=32, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(size), rng.integers(0, 9, size))
        for _ in range(n)
    ]


def _same_payload(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# ----------------------------------------------------------------------
# segment format
# ----------------------------------------------------------------------
class TestSegmentFormat:
    def _write(self, tmp_path, n=3):
        records = [
            (_triple(i), 100.0 + i, pickle.dumps(_payloads(1, seed=i)))
            for i in range(n)
        ]
        path = seg.write_segment(str(tmp_path), records, "seg-test.evs")
        return path, records

    def test_round_trip(self, tmp_path):
        path, records = self._write(tmp_path)
        entries = seg.scan_segment(path)
        assert len(entries) == 3
        for (triple, _ts, payload), (stored, offset, length, ts) in zip(
            records, entries
        ):
            assert stored == triple
            assert length == len(payload)
            assert ts == _ts
            assert seg.read_record(path, offset, triple) == payload
        assert not any(
            name.startswith(".tmp-") for name in os.listdir(tmp_path)
        )

    def test_empty_write_leaves_nothing(self, tmp_path):
        assert seg.write_segment(str(tmp_path), [], "empty.evs") is None
        assert os.listdir(tmp_path) == []

    def test_truncated_tail_skips_rest(self, tmp_path):
        path, records = self._write(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 5)
        with pytest.warns(RuntimeWarning, match="truncated"):
            entries = seg.scan_segment(path)
        assert len(entries) == 2
        triple, offset, _length, _ts = entries[0]
        assert seg.read_record(path, offset, triple) == records[0][2]

    def test_crc_mismatch_is_a_miss(self, tmp_path):
        path, records = self._write(tmp_path)
        entries = seg.scan_segment(path)
        triple, offset, length, _ts = entries[1]
        with open(path, "r+b") as f:
            f.seek(offset + seg.HEADER_SIZE + length // 2)
            byte = f.read(1)
            f.seek(offset + seg.HEADER_SIZE + length // 2)
            f.write(bytes([byte[0] ^ 0xFF]))
        with pytest.warns(RuntimeWarning, match="CRC mismatch"):
            assert seg.read_record(path, offset, triple) is None
        # The neighbouring record is untouched.
        t0, o0, _l0, _ts0 = entries[0]
        assert seg.read_record(path, o0, t0) == records[0][2]

    def test_bad_file_magic_ignored(self, tmp_path):
        path = tmp_path / "junk.evs"
        path.write_bytes(b"NOTALAKE" + os.urandom(64))
        with pytest.warns(RuntimeWarning, match="no segment magic"):
            assert seg.scan_segment(str(path)) == []

    def test_tampered_header_stops_scan(self, tmp_path):
        path, _records = self._write(tmp_path)
        entries = seg.scan_segment(path)
        _t, offset, _l, _ts = entries[1]
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(b"XXXX")
        with pytest.warns(RuntimeWarning, match="bad record framing"):
            entries = seg.scan_segment(path)
        assert len(entries) == 1

    def test_mismatched_triple_is_a_miss(self, tmp_path):
        path, _records = self._write(tmp_path)
        triple, offset, _l, _ts = seg.scan_segment(path)[0]
        wrong = (triple[0], b"Z" * 16, triple[2])
        with pytest.warns(RuntimeWarning, match="stale or mismatched"):
            assert seg.read_record(path, offset, wrong) is None

    def test_missing_file_is_a_miss(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="cannot read"):
            assert (
                seg.read_record(str(tmp_path / "gone.evs"), 8, _triple())
                is None
            )


# ----------------------------------------------------------------------
# the cache layer
# ----------------------------------------------------------------------
LIB = b"l" * 16
VEC = b"v" * 16


class TestEvalCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = EvalCache(str(tmp_path / "lake"))
        payloads = _payloads(3)
        keys = [bytes([i]) * 16 for i in range(3)]
        assert cache.put_many(LIB, VEC, zip(keys, payloads)) == 3
        found = cache.get_many(LIB, VEC, keys + [b"?" * 16])
        assert set(found) == set(keys)
        for key, payload in zip(keys, payloads):
            _same_payload(found[key], payload)
        st = cache.stats()
        assert st["hits"] == 3 and st["misses"] == 1
        assert st["puts"] == 3 and st["segments"] == 1
        assert 0.0 < st["hit_rate"] < 1.0

    def test_duplicate_put_skipped(self, tmp_path):
        cache = EvalCache(str(tmp_path / "lake"))
        key = b"k" * 16
        (payload,) = _payloads(1)
        assert cache.put_many(LIB, VEC, [(key, payload)]) == 1
        assert cache.put_many(LIB, VEC, [(key, payload)]) == 0
        assert cache.stats()["segments"] == 1

    def test_other_digest_is_a_miss(self, tmp_path):
        cache = EvalCache(str(tmp_path / "lake"))
        key = b"k" * 16
        cache.put_many(LIB, VEC, [(key, _payloads(1)[0])])
        assert cache.get_many(b"M" * 16, VEC, [key]) == {}
        assert cache.get_many(LIB, b"W" * 16, [key]) == {}
        assert key in cache.get_many(LIB, VEC, [key])

    def test_cross_instance_visibility(self, tmp_path):
        a = EvalCache(str(tmp_path / "lake"))
        b = EvalCache(str(tmp_path / "lake"))
        keys = [bytes([i]) * 16 for i in range(2)]
        a.put_many(LIB, VEC, zip(keys, _payloads(2)))
        found = b.get_many(LIB, VEC, keys)
        assert set(found) == set(keys)
        assert b.counters["disk_hits"] == 2  # refreshed from disk

    def test_lru_eviction_keeps_serving_from_disk(self, tmp_path):
        cache = EvalCache(str(tmp_path / "lake"), memory_budget=1)
        keys = [bytes([i]) * 16 for i in range(4)]
        cache.put_many(LIB, VEC, zip(keys, _payloads(4)))
        assert len(cache._memory) <= 1  # budget admits at most one
        found = cache.get_many(LIB, VEC, keys)
        assert set(found) == set(keys)
        assert cache.counters["disk_hits"] >= 3

    def test_pickles_as_its_path(self, tmp_path):
        cache = open_cache(str(tmp_path / "lake"))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone is cache  # per-process singleton per directory

    def test_gc_by_size_and_age(self, tmp_path):
        cache = EvalCache(str(tmp_path / "lake"))
        for i in range(3):
            cache.put_many(
                LIB, VEC, [(bytes([i]) * 16, _payloads(1, seed=i)[0])]
            )
        assert cache.stats()["segments"] == 3
        out = cache.gc(max_bytes=0)
        assert out["removed_segments"] == 3
        assert cache.stats()["records"] == 0
        cache.put_many(LIB, VEC, [(b"x" * 16, _payloads(1)[0])])
        assert cache.gc(max_age_s=10_000.0)["removed_segments"] == 0
        assert cache.gc(max_age_s=0.0)["removed_segments"] == 1

    def test_compact_merges_and_stays_readable(self, tmp_path):
        cache = EvalCache(str(tmp_path / "lake"))
        keys = [bytes([i]) * 16 for i in range(3)]
        payloads = _payloads(3)
        for key, payload in zip(keys, payloads):
            cache.put_many(LIB, VEC, [(key, payload)])
        out = cache.compact()
        assert out["records"] == 3 and out["segments"] == 1
        fresh = EvalCache(str(tmp_path / "lake"))
        found = fresh.get_many(LIB, VEC, keys)
        assert set(found) == set(keys)
        for key, payload in zip(keys, payloads):
            _same_payload(found[key], payload)

    def test_maintenance_skips_writers_temp_files(self, tmp_path):
        """A segment still being written is invisible to maintenance:
        deleting it would fail the writer's ``os.replace``."""
        cache = EvalCache(str(tmp_path / "lake"))
        cache.put_many(LIB, VEC, [(b"k" * 16, _payloads(1)[0])])
        name = ".tmp-seg-99999-000001-abcd.evs"
        partial = os.path.join(cache.segments_dir, name)
        with open(partial, "wb") as f:
            f.write(seg.FILE_MAGIC + b"REC1")  # header cut short
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.refresh()
        assert name not in cache._seen
        assert cache.stats()["segments"] == 1
        cache.compact()
        assert os.path.exists(partial)
        cache.gc(max_bytes=0)
        assert os.path.exists(partial)
        assert cache.stats()["segments"] == 0

    def test_stats_aggregate_across_instances(self, tmp_path):
        a = EvalCache(str(tmp_path / "lake"))
        a.put_many(LIB, VEC, [(b"k" * 16, _payloads(1)[0])])
        a.get_many(LIB, VEC, [b"k" * 16, b"m" * 16])
        a.flush_stats()
        a.flush_stats()  # idempotent: only deltas are appended
        b = EvalCache(str(tmp_path / "lake"))
        b.get_many(LIB, VEC, [b"k" * 16])
        totals = b.aggregate_stats()
        assert totals["hits"] == 2 and totals["misses"] == 1
        assert totals["puts"] == 1
        assert totals["hit_rate"] == pytest.approx(2 / 3)

    def test_resolve_lake_chain(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_lake() is False
        monkeypatch.setenv("REPRO_CACHE", "")
        assert resolve_lake(None) is False
        env_dir = str(tmp_path / "env")
        monkeypatch.setenv("REPRO_CACHE", env_dir)
        assert resolve_lake() is open_cache(env_dir)
        arg_dir = str(tmp_path / "arg")
        assert resolve_lake(arg_dir) is open_cache(arg_dir)
        given = EvalCache(str(tmp_path / "given"))
        assert resolve_lake(given) is given
        assert resolve_lake(False) is False
        with pytest.raises(TypeError):
            resolve_lake(True)


# ----------------------------------------------------------------------
# digests (the staleness guard's address space)
# ----------------------------------------------------------------------
class TestDigests:
    def test_library_mutation_changes_digest(self, library):
        base = library_digest(library)
        assert library_digest(default_library()) == base  # deterministic
        cells = library.cells()
        bumped = [dataclasses.replace(cells[0], area=cells[0].area + 1.0)]
        mutated = Library(library.name, bumped + cells[1:])
        assert library_digest(mutated) != base

    def test_sta_knobs_reach_the_digest(self, library):
        from repro.sta import STAEngine

        base = library_digest(library)
        sta = STAEngine(library)
        sta.input_slew = sta.input_slew + 1.0
        assert library_digest(library, sta) != base

    def test_vector_digest_tracks_words(self, adder4, library):
        ctx = _ctx(adder4, library)
        base = vectors_digest(ctx.vectors)
        other = _ctx(adder4, library, seed=5)
        assert vectors_digest(other.vectors) != base

    def test_context_digests_memoized(self, adder4, library):
        ctx = _ctx(adder4, library)
        assert context_digests(ctx) is context_digests(ctx)
        lib, vec = context_digests(ctx)
        assert len(lib) == 16 and len(vec) == 16


# ----------------------------------------------------------------------
# the batch evaluation path
# ----------------------------------------------------------------------
class TestBatchWithLake:
    def _evaluate(self, circuit, library, lake, children=None):
        """One batch of LAC singles through a context with ``lake``."""
        ctx = _ctx(circuit, library)
        ctx.lake = lake
        children = (
            children
            if children is not None
            else _lac_children(ctx, 6)
        )
        return children, evaluate_batch(
            ctx, [(c, None) for c in children]
        )

    def test_cold_matches_disabled_and_writes_through(
        self, adder8, library, tmp_path
    ):
        children, plain = self._evaluate(adder8, library, False)
        lake = EvalCache(str(tmp_path / "lake"))
        reruns = [c.copy() for c in children]
        _, cold = self._evaluate(adder8, library, lake, reruns)
        for a, b in zip(plain, cold):
            _assert_same_eval(a, b)
        assert lake.counters["puts"] == len(children)
        assert lake.counters["misses"] == len(children)

    def test_warm_hits_from_disk_bit_identical(
        self, adder8, library, tmp_path
    ):
        children, plain = self._evaluate(adder8, library, False)
        lake = EvalCache(str(tmp_path / "lake"))
        self._evaluate(adder8, library, lake, [c.copy() for c in children])
        fresh = EvalCache(str(tmp_path / "lake"))  # empty memory + index
        reruns = [c.copy() for c in children]
        _, warm = self._evaluate(adder8, library, fresh, reruns)
        for a, b in zip(plain, warm):
            _assert_same_eval(a, b)
        assert fresh.counters["hits"] == len(children)
        assert fresh.counters["disk_hits"] == len(children)
        assert fresh.counters["misses"] == 0
        # Hits carry the requesting circuit, not the original.
        for circuit, ev in zip(reruns, warm):
            assert ev.circuit is circuit
            assert ev.circuit_version == circuit.version

    def test_mutated_library_is_a_wall_of_misses(
        self, adder8, library, tmp_path
    ):
        """The staleness guard: new library digest, zero stale hits."""
        children, _ = self._evaluate(adder8, library, False)
        lake = EvalCache(str(tmp_path / "lake"))
        self._evaluate(adder8, library, lake, [c.copy() for c in children])
        cells = library.cells()
        slower = dataclasses.replace(
            cells[0], area=cells[0].area * 2.0
        )
        mutated = Library(library.name, [slower] + cells[1:])
        fresh = EvalCache(str(tmp_path / "lake"))
        reruns = [c.copy() for c in children]
        _, evals = self._evaluate(adder8, mutated, fresh, reruns)
        assert fresh.counters["hits"] == 0
        assert fresh.counters["misses"] == len(children)
        # The recomputation used the *mutated* library.
        mutated_ctx = _ctx(adder8, mutated)
        expected = evaluate_batch(
            mutated_ctx, [(c.copy(), None) for c in children]
        )
        for a, b in zip(expected, evals):
            _assert_same_eval(a, b)

    def test_corrupt_segment_degrades_to_recompute(
        self, adder8, library, tmp_path
    ):
        children, plain = self._evaluate(adder8, library, False)
        lake = EvalCache(str(tmp_path / "lake"))
        self._evaluate(adder8, library, lake, [c.copy() for c in children])
        segments = [
            os.path.join(lake.segments_dir, n)
            for n in os.listdir(lake.segments_dir)
        ]
        assert segments
        for path in segments:
            size = os.path.getsize(path)
            with open(path, "r+b") as f:
                f.seek(size // 2)  # clobber headers and payloads alike
                f.write(os.urandom(size - size // 2))
        fresh = EvalCache(str(tmp_path / "lake"))
        with pytest.warns(RuntimeWarning):
            _, warm = self._evaluate(
                adder8, library, fresh, [c.copy() for c in children]
            )
        for a, b in zip(plain, warm):
            _assert_same_eval(a, b)
        assert fresh.counters["misses"] > 0

    def test_duplicate_keys_share_one_rebuilt_eval(
        self, adder8, library, tmp_path
    ):
        ctx = _ctx(adder8, library)
        lake = EvalCache(str(tmp_path / "lake"))
        ctx.lake = lake
        (child,) = _lac_children(ctx, 1)
        evaluate_batch(ctx, [(child, None)])  # populate
        twin_a, twin_b = child.copy(), child.copy()
        evals = evaluate_batch(ctx, [(twin_a, None), (twin_b, None)])
        assert evals[0].report is evals[1].report
        assert evals[0].values is evals[1].values
        assert evals[0].circuit is twin_a
        assert evals[1].circuit is twin_b
        _assert_same_eval(evals[0], evals[1])

    def test_build_decides_lake_once(
        self, adder4, library, monkeypatch, tmp_path
    ):
        env_dir = str(tmp_path / "env")
        monkeypatch.setenv("REPRO_CACHE", "")
        ctx = _ctx(adder4, library)
        assert ctx.lake is False
        monkeypatch.setenv("REPRO_CACHE", env_dir)
        (child,) = _lac_children(ctx, 1)
        evaluate_batch(ctx, [(child, None)])
        assert ctx.lake is False  # the env is read at build, not later
        assert not os.path.exists(env_dir)

        assert _ctx(adder4, library).lake is open_cache(env_dir)
        off = EvalContext.build(
            adder4, library, ErrorMode.NMED, num_vectors=64, lake=False
        )
        assert off.lake is False  # False wins over the env
        arg_dir = str(tmp_path / "arg")
        by_dir = EvalContext.build(
            adder4, library, ErrorMode.NMED, num_vectors=64, lake=arg_dir
        )
        assert by_dir.lake is open_cache(arg_dir)


# ----------------------------------------------------------------------
# session wiring
# ----------------------------------------------------------------------
class TestSessionLake:
    def test_cold_run_bit_identical_and_catalogued(self, tmp_path):
        plain = Session(_bench_adder(), FlowConfig(**ER_CFG))
        ref = plain.run("Ours")
        plain.close()
        assert ref.ratio_cpd < 1.0  # the config does non-trivial work

        lake_dir = str(tmp_path / "lake")
        session = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        cold = session.run("Ours")
        # Aggregated stats fold in shard-worker flushes, so the
        # assertions hold with or without REPRO_JOBS sharding.
        stats = session.cache.aggregate_stats()
        session.close()
        assert _flow_signature(cold) == _flow_signature(ref)
        assert stats["puts"] > 0 and stats["records"] > 0
        assert stats["catalog_runs"] == 1

        warm = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        before = warm.cache.aggregate_stats()
        second = warm.run("Ours")
        after = warm.cache.aggregate_stats()
        warm.close()
        assert _flow_signature(second) == _flow_signature(ref)
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]  # fully warm
        assert after["puts"] == before["puts"]

    def test_config_cache_dir_attaches_lake(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        lake_dir = str(tmp_path / "lake")
        cfg = FlowConfig(effort=0.2, cache_dir=lake_dir)
        session = Session(build_adder(4), cfg)
        assert session.cache is open_cache(lake_dir)
        assert session.ctx.lake is session.cache
        session.close()
        # The argument wins over the config field.
        arg_dir = str(tmp_path / "arg")
        session = Session(build_adder(4), cfg, cache_dir=arg_dir)
        assert session.cache is open_cache(arg_dir)
        session.close()

    def test_cache_false_ignores_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envlake"))
        session = Session(build_adder(4), FlowConfig(), cache=False)
        assert session.cache is None
        session.close()
        assert not os.path.exists(str(tmp_path / "envlake"))

    def test_env_cache_resolution(self, monkeypatch, tmp_path):
        lake_dir = str(tmp_path / "envlake")
        monkeypatch.setenv("REPRO_CACHE", lake_dir)
        session = Session(build_adder(4), FlowConfig())
        assert session.cache is not None
        assert session.cache.path == os.path.abspath(lake_dir)
        session.close()

    def test_explicit_cache_object(self, tmp_path):
        lake = open_cache(str(tmp_path / "lake"))
        session = Session(build_adder(4), FlowConfig(), cache=lake)
        assert session.cache is lake
        session.close()

    def test_checkpoint_resume_reattaches_lake(self, tmp_path):
        plain = Session(_bench_adder(), FlowConfig(**ER_CFG))
        ref = plain.run("Ours")
        plain.close()

        lake_dir = str(tmp_path / "lake")
        ckpt = str(tmp_path / "run.ckpt")
        first = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        partial = first.optimize("Ours", stop_after=2)
        assert not partial.completed
        first.checkpoint(ckpt)
        first.close()

        resumed = Session.resume(ckpt)
        assert resumed.cache is not None
        assert resumed.cache.path == os.path.abspath(lake_dir)
        result = resumed.run("Ours")
        resumed.close()
        assert _flow_signature(result) == _flow_signature(ref)

    def test_checkpoint_without_cache_stays_uncached(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        ckpt = str(tmp_path / "run.ckpt")
        session = Session(build_adder(4), FlowConfig(effort=0.2))
        session.checkpoint(ckpt)
        session.close()
        resumed = Session.resume(ckpt)
        assert resumed.cache is None
        resumed.close()

    def test_checkpoint_keeps_cache_false(self, monkeypatch, tmp_path):
        # A session built with cache=False resumes without a lake even
        # when REPRO_CACHE names one, and its results are unchanged.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cfg = FlowConfig(num_vectors=64, effort=0.2)
        plain = Session(build_adder(4), cfg, cache=False)
        ref = plain.run("Ours")
        plain.close()
        ckpt = str(tmp_path / "run.ckpt")
        first = Session(build_adder(4), cfg, cache=False)
        assert not first.optimize("Ours", stop_after=1).completed
        first.checkpoint(ckpt)
        first.close()
        env_lake = tmp_path / "envlake"
        monkeypatch.setenv("REPRO_CACHE", str(env_lake))
        resumed = Session.resume(ckpt)
        assert resumed.cache is None
        result = resumed.run("Ours")
        resumed.close()
        assert not env_lake.exists()
        assert _flow_signature(result) == _flow_signature(ref)

    def test_warm_start_seeds_from_catalog(self, tmp_path):
        lake_dir = str(tmp_path / "lake")
        first = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        first.run("Ours")
        first.close()

        session = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        seeds = session.warm_start()
        assert seeds
        keys = {c.full_structure_key() for c in seeds}
        assert len(keys) == len(seeds)  # deduplicated
        assert session.warm_start(method="Ours")
        assert session.warm_start(method="HEDALS") == []
        result = session.optimize("Ours", seeds=seeds)
        assert result.completed
        session.close()

    def test_warm_start_other_reference_is_empty(self, tmp_path):
        lake_dir = str(tmp_path / "lake")
        first = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        first.run("Ours")
        first.close()
        other = Session(
            build_adder(4), FlowConfig(**ER_CFG), cache_dir=lake_dir
        )
        assert other.warm_start() == []
        other.close()


# ----------------------------------------------------------------------
# the lake decision crosses the shard pipe
# ----------------------------------------------------------------------
class TestShardLake:
    """Shard workers use the lake their parent's context decided on,
    never one of their own from ``REPRO_CACHE``."""

    @staticmethod
    def _evaluate_sharded(session):
        children = _lac_children(session.ctx, 4)
        parent = session.ctx.reference_eval()
        evals = session.evaluate_batch(children, parent, jobs=2)
        assert len(evals) == 4

    def test_cache_false_reaches_workers(self, monkeypatch, tmp_path):
        env_dir = str(tmp_path / "envlake")
        monkeypatch.setenv("REPRO_CACHE", env_dir)
        cfg = FlowConfig(num_vectors=64)
        with Session(build_adder(6), cfg, cache=False) as session:
            self._evaluate_sharded(session)
        assert not os.path.exists(env_dir)

    def test_cache_dir_reaches_workers(self, monkeypatch, tmp_path):
        env_dir = str(tmp_path / "envlake")
        monkeypatch.setenv("REPRO_CACHE", env_dir)
        lake_dir = str(tmp_path / "lake")
        cfg = FlowConfig(num_vectors=64)
        with Session(build_adder(6), cfg, cache_dir=lake_dir) as session:
            self._evaluate_sharded(session)
        segments = os.listdir(os.path.join(lake_dir, "segments"))
        writers = {int(name.split("-")[1]) for name in segments}
        assert writers and os.getpid() not in writers  # workers wrote
        assert not os.path.exists(env_dir)


# ----------------------------------------------------------------------
# concurrent writer processes (satellite 3)
# ----------------------------------------------------------------------
_DRIVER = """
import sys
from repro.bench import build_benchmark
from repro.session import Session, FlowConfig
from repro.sim import ErrorMode

cfg = FlowConfig(
    error_mode=ErrorMode.ER, error_bound=0.15,
    num_vectors=256, effort=0.3, seed=1,
)
session = Session(build_benchmark("Adder", "scaled"), cfg)
result = session.run("Ours")
session.close()
print(f"{result.ratio_cpd!r} {result.error!r} {result.area_fac!r}")
"""


class TestConcurrentWriters:
    def test_two_jobs2_runs_share_one_lake(self, tmp_path):
        lake_dir = str(tmp_path / "lake")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=src,
            REPRO_JOBS="2",
            REPRO_CACHE=lake_dir,
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _DRIVER],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        assert outs[0][0] == outs[1][0]  # bit-identical results

        lake = EvalCache(lake_dir)
        stats = lake.stats()
        assert stats["records"] > 0
        assert stats["segments"] > 0
        # Interleaved segments from both processes scan cleanly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lake.refresh()
        totals = lake.aggregate_stats()
        # Racing writers may both persist a key before seeing each
        # other's segment; newest-timestamp-wins dedups at read time.
        assert totals["puts"] >= stats["records"] > 0

        # A serial cache-free run agrees with both workers' answers.
        plain = Session(_bench_adder(), FlowConfig(**ER_CFG))
        ref = plain.run("Ours")
        plain.close()
        line = f"{ref.ratio_cpd!r} {ref.error!r} {ref.area_fac!r}\n"
        assert outs[0][0] == line


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestCacheCLI:
    def _populate(self, lake_dir):
        cache = EvalCache(lake_dir)
        cache.put_many(
            LIB, VEC, [(b"k" * 16, _payloads(1)[0])]
        )
        cache.get_many(LIB, VEC, [b"k" * 16])
        cache.flush_stats()

    def test_stats(self, tmp_path, capsys):
        lake_dir = str(tmp_path / "lake")
        self._populate(lake_dir)
        assert main(["cache", "stats", lake_dir]) == 0
        out = capsys.readouterr().out
        assert "hits: 1" in out
        assert "segments: 1" in out

    def test_compact_and_gc(self, tmp_path, capsys):
        lake_dir = str(tmp_path / "lake")
        self._populate(lake_dir)
        assert main(["cache", "compact", lake_dir]) == 0
        assert "records: 1" in capsys.readouterr().out
        assert main(["cache", "gc", lake_dir, "--max-bytes", "0"]) == 0
        assert "removed_segments: 1" in capsys.readouterr().out

    def test_no_directory_errors_out(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err

    def test_env_fallback(self, monkeypatch, tmp_path, capsys):
        lake_dir = str(tmp_path / "lake")
        self._populate(lake_dir)
        monkeypatch.setenv("REPRO_CACHE", lake_dir)
        assert main(["cache", "stats"]) == 0
        assert "records: 1" in capsys.readouterr().out

    def test_optimize_cache_dir_flag(self, tmp_path, capsys):
        from repro.netlist import write_verilog

        netlist = tmp_path / "adder.v"
        netlist.write_text(write_verilog(build_adder(4)))
        lake_dir = str(tmp_path / "lake")
        assert (
            main(
                [
                    "optimize", str(netlist), "--effort", "0.2",
                    "--vectors", "256", "--cache-dir", lake_dir,
                    "--quiet",
                ]
            )
            == 0
        )
        assert os.path.isdir(os.path.join(lake_dir, "segments"))
