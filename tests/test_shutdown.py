"""Error-path teardown: no orphan workers, no unflushed ledgers.

PR 8's bugfix half.  The CLI wraps every run in ``try/finally`` around
``session.close()`` and installs a SIGINT/SIGTERM guard that turns the
first signal into a cooperative pause; the lake's process-wide registry
is lock-protected, so contexts built concurrently share one lake.  Each
test here kills a run some way — an exception mid-flow, a real SIGINT —
and asserts the world is clean afterwards: zero live worker processes,
a flushed stats ledger, and (with ``--checkpoint``) a checkpoint that
resumes bit-identically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from reference_circuits import build_adder

from repro.__main__ import EXIT_INTERRUPTED, main
from repro.lake import open_cache
from repro.netlist import write_verilog
from repro.session import FlowConfig, Session


def _no_worker_children(before=frozenset()) -> bool:
    # Dispatcher workers are daemon Process children; after close()
    # none may remain (a grace poll absorbs reaping latency).  Children
    # in ``before`` predate the run: pools that earlier tests left to
    # the garbage collector (under REPRO_JOBS every bare context gets
    # one) are not this run's leak.
    for _ in range(50):
        if not set(multiprocessing.active_children()) - before:
            return True
        time.sleep(0.1)
    return False


@pytest.fixture
def adder4_v(tmp_path):
    path = tmp_path / "adder4.v"
    path.write_text(write_verilog(build_adder(4)))
    return str(path)


QUICK_FLAGS = ["--vectors", "64", "--effort", "0.1"]


# ----------------------------------------------------------------------
# exceptions mid-run still tear the pool down
# ----------------------------------------------------------------------
class TestErrorTeardown:
    def _raise_after_spawn(self, monkeypatch):
        """Make Session.run spawn the shard pool, then blow up."""

        def fake_run(session, method, **kwargs):
            session.evaluate_batch(
                [session.circuit.copy(), session.circuit.copy()], jobs=2
            )
            assert multiprocessing.active_children(), "pool never spawned"
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(Session, "run", fake_run)

    def test_optimize_failure_leaves_no_orphans(
        self, adder4_v, monkeypatch
    ):
        self._raise_after_spawn(monkeypatch)
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="mid-run failure"):
            main(["optimize", adder4_v, "--jobs", "2", *QUICK_FLAGS])
        assert _no_worker_children(before), "optimize leaked shard workers"

    def test_compare_failure_leaves_no_orphans(
        self, adder4_v, monkeypatch
    ):
        self._raise_after_spawn(monkeypatch)
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="mid-run failure"):
            main([
                "compare", adder4_v, "--methods", "Ours", *QUICK_FLAGS,
            ])
        assert _no_worker_children(before), "compare leaked shard workers"

    def test_session_close_flushes_stats_ledger(self, tmp_path):
        """close() on any path (including the CLI ``finally``) leaves
        the lake's ledger flushed — counters survive a crash."""
        lake_dir = tmp_path / "lake"
        session = Session(
            build_adder(4),
            FlowConfig(num_vectors=64),
            cache_dir=str(lake_dir),
        )
        try:
            session.evaluate_batch([session.circuit.copy()])
        finally:
            session.close()
        ledger = lake_dir / "stats.jsonl"
        assert ledger.exists(), "close() did not flush the stats ledger"
        assert session.cache is not None
        assert session.cache.aggregate_stats()["misses"] >= 1


# ----------------------------------------------------------------------
# SIGINT → cooperative pause → resumable checkpoint (real process)
# ----------------------------------------------------------------------
class TestInterrupt:
    def test_sigint_checkpoints_and_resumes_bit_identically(
        self, adder4_v, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        # A warm lake (e.g. CI's cold+warm cached job) could finish the
        # run before SIGINT lands; signal handling is cache-independent,
        # so pin the subprocess cold.
        env.pop("REPRO_CACHE", None)
        # Long enough that SIGINT lands mid-optimization.
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro", "optimize", adder4_v,
                "--vectors", "256", "--effort", "0.6", "--seed", "3",
                "--checkpoint", str(ckpt),
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as proc:
            try:
                for line in proc.stderr:
                    if "] iter " in line:  # first completed iteration
                        proc.send_signal(signal.SIGINT)
                        break
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            assert code == EXIT_INTERRUPTED, proc.stderr.read()
        assert ckpt.exists(), "SIGINT did not write the checkpoint"

        session = Session.resume(str(ckpt))
        try:
            assert session.pending_methods() == ("Ours",)
            resumed = session.run("Ours")
        finally:
            session.close()
        # Ground truth: the same flow, never interrupted.
        serial = Session(
            build_adder(4),
            FlowConfig(num_vectors=256, effort=0.6, seed=3),
        )
        try:
            uninterrupted = serial.run("Ours")
        finally:
            serial.close()
        assert write_verilog(resumed.circuit) == write_verilog(
            uninterrupted.circuit
        )
        assert resumed.error == uninterrupted.error
        assert (
            resumed.optimization.evaluations
            == uninterrupted.optimization.evaluations
        )

    def test_interrupt_with_no_active_run_is_a_noop(self):
        session = Session(build_adder(4), FlowConfig(num_vectors=64))
        try:
            assert session.interrupt() is False
        finally:
            session.close()


# ----------------------------------------------------------------------
# thread-safety of the lake registry
# ----------------------------------------------------------------------
class TestLakeThreadSafety:
    N = 16

    def _hammer(self, fn):
        barrier = threading.Barrier(self.N)
        out = [None] * self.N
        errors = []

        def work(i):
            try:
                barrier.wait(timeout=30)
                out[i] = fn()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(self.N)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        return out

    def test_open_cache_race_returns_one_instance(self, tmp_path):
        path = str(tmp_path / "lake")
        caches = self._hammer(lambda: open_cache(path))
        assert all(c is caches[0] for c in caches)

    def _build(self, **kwargs):
        return Session(build_adder(4), FlowConfig(num_vectors=64), **kwargs)

    def test_context_cache_resolves_env_exactly_once(
        self, tmp_path, monkeypatch
    ):
        lake_dir = str(tmp_path / "envlake")
        monkeypatch.setenv("REPRO_CACHE", lake_dir)
        sessions = self._hammer(self._build)
        try:
            lake = open_cache(lake_dir)
            assert all(s.ctx.lake is lake for s in sessions)
            # decided at build: the env is not read again afterwards
            monkeypatch.delenv("REPRO_CACHE")
            assert all(s.cache is lake for s in sessions)
        finally:
            for session in sessions:
                session.close()

    def test_context_cache_disabled_stays_disabled(
        self, tmp_path, monkeypatch
    ):
        lake_dir = str(tmp_path / "never")
        monkeypatch.setenv("REPRO_CACHE", lake_dir)
        sessions = self._hammer(lambda: self._build(cache=False))
        try:
            assert all(s.ctx.lake is False for s in sessions)
            assert all(s.cache is None for s in sessions)
            assert not os.path.exists(lake_dir)
        finally:
            for session in sessions:
                session.close()
