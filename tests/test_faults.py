"""The self-healing execution layer, validated by fault injection.

The contract under test: under *any* deterministic fault schedule —
workers SIGKILLed, SIGSTOPped, hung or answering poisoned replies —
the sharded evaluation path completes with results **bit-identical**
to the unfaulted serial run, recovery counters record what happened,
and nothing (processes, locks) leaks.  Plus the :mod:`repro.faults` harness itself:
the ``REPRO_FAULTS`` grammar, per-``(site, scope)`` hit counting and
seeded probabilistic triggers must be exactly reproducible, because a
chaos-CI failure nobody can replay is noise.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from reference_circuits import build_adder

from repro import FlowConfig, Session, faults
from repro.core import (
    ShardDispatcher,
    WorkerCrashError,
    evaluate_batch,
)
from repro.faults import (
    FaultSchedule,
    FaultSpecError,
    InjectedFault,
    TransientError,
)
from repro.netlist import write_verilog
from repro.sim import ErrorMode

from test_parallel_eval import _assert_same_eval, _ctx, _lac_children


@pytest.fixture(autouse=True)
def _isolated_schedule():
    """Every test starts and ends with no installed fault schedule."""
    faults.install(None)
    yield
    faults.reset()


QUICK_CFG = FlowConfig(
    error_mode=ErrorMode.NMED,
    error_bound=0.0244,
    num_vectors=128,
    effort=0.15,
    seed=7,
)


# ----------------------------------------------------------------------
# the schedule grammar
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_hit_and_range_triggers(self):
        s = FaultSchedule("a.b=2,5-6")
        fired = [s.check("a.b") for _ in range(7)]
        assert fired == [False, True, False, False, True, True, False]

    def test_star_fires_every_hit(self):
        s = FaultSchedule("a.b=*")
        assert all(s.check("a.b") for _ in range(5))

    def test_hits_counted_per_scope(self):
        # Two scopes cannot steal each other's trigger positions:
        # "first hit" means first hit *of that worker/job*.
        s = FaultSchedule("a.b=1")
        assert s.check("a.b", scope="0")
        assert s.check("a.b", scope="1")  # its own first hit
        assert not s.check("a.b", scope="0")

    def test_scope_qualified_rule_wins(self):
        s = FaultSchedule("a.b@1=1;a.b=2")
        assert s.check("a.b", scope="1")  # qualified: fires on hit 1
        assert not s.check("a.b", scope="0")  # bare rule: hit 1 quiet
        assert s.check("a.b", scope="0")  # bare rule: hit 2 fires

    def test_probability_deterministic_per_seed(self):
        a = FaultSchedule("seed=9;a.b=p0.3")
        b = FaultSchedule("seed=9;a.b=p0.3")
        c = FaultSchedule("seed=10;a.b=p0.3")
        rolls_a = [a.check("a.b", "w") for _ in range(64)]
        rolls_b = [b.check("a.b", "w") for _ in range(64)]
        rolls_c = [c.check("a.b", "w") for _ in range(64)]
        assert rolls_a == rolls_b  # same seed → same schedule
        assert rolls_c != rolls_a  # seed actually feeds the RNG
        assert any(rolls_a) and not all(rolls_a)

    def test_fired_counters(self):
        s = FaultSchedule("a.b@0=1-2;c.d=1")
        s.check("a.b", "0"), s.check("a.b", "0"), s.check("a.b", "1")
        s.check("c.d")
        assert s.fired() == {"a.b@0": 2, "c.d": 1}

    @pytest.mark.parametrize(
        "spec",
        [
            "nonsense",  # no '='
            "a.b=p2.0",  # probability out of range
            "a.b=zero",  # not a trigger
            "a.b=0",  # hits are 1-based
            "a.b=5-3",  # inverted range
            "seed=sometimes",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultSchedule(spec)

    def test_env_is_lazy_and_resettable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "a.b=1")
        faults.reset()
        assert faults.should_inject("a.b")
        assert not faults.should_inject("a.b")
        assert faults.fire_counts() == {"a.b": 1}
        faults.install(None)  # disarmed overrides the environment
        assert not faults.should_inject("a.b")
        assert faults.fire_counts() == {}

    def test_disarmed_is_free(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset()
        assert faults.get_schedule() is None
        assert not faults.should_inject("anything")

    def test_is_transient_classification(self):
        assert faults.is_transient(InjectedFault("x"))
        assert faults.is_transient(TransientError("x"))
        assert faults.is_transient(ConnectionResetError())
        assert faults.is_transient(TimeoutError())
        assert not faults.is_transient(RuntimeError("poisoned"))
        assert not faults.is_transient(ValueError("bad spec"))


# ----------------------------------------------------------------------
# dispatcher recovery — every injected fault heals bit-identically
# ----------------------------------------------------------------------
def _dispatcher(ctx, jobs=2, **kw):
    kw.setdefault("worker_timeout", 1.0)
    kw.setdefault("retries", 2)
    kw.setdefault("backoff", 0.01)
    return ShardDispatcher(ctx, jobs, **kw)


def _eval_round(library, schedule, **disp_kw):
    """One faulted parallel generation vs its unfaulted serial twin."""
    ctx_a = _ctx(build_adder(8), library)
    ctx_b = _ctx(build_adder(8), library)
    kids_a = _lac_children(ctx_a, 6)
    kids_b = _lac_children(ctx_b, 6)
    serial = evaluate_batch(
        ctx_b, [(c, ctx_b.reference_eval()) for c in kids_b]
    )
    faults.install(schedule)
    dispatcher = _dispatcher(ctx_a, **disp_kw)
    try:
        got = dispatcher.evaluate_items(
            [(c, ctx_a.reference_eval()) for c in kids_a]
        )
    finally:
        faults.install(None)
        dispatcher.close()
    for ours, ref in zip(got, serial):
        _assert_same_eval(ours, ref)
    return dispatcher


class TestDispatcherRecovery:
    def test_injected_kill_heals(self, library):
        d = _eval_round(library, FaultSchedule("worker.kill@0=1"))
        assert d.stats["respawns"] >= 1
        assert d.stats["serial_fallbacks"] == 0

    def test_injected_hang_trips_deadline_and_heals(self, library):
        d = _eval_round(library, FaultSchedule("worker.hang@0=1"))
        assert d.stats["timeouts"] >= 1
        assert d.stats["respawns"] >= 1
        assert d.stats["serial_fallbacks"] == 0

    def test_injected_error_reply_is_replayed_once(self, library):
        # One poisoned reply is transient (replayed, injection off);
        # the run completes without tearing the pool down.
        d = _eval_round(library, FaultSchedule("worker.poison@0=1"))
        assert d.stats["replays"] == 1
        assert d.stats["serial_fallbacks"] == 0

    def test_sigstopped_worker_hits_deadline_and_heals(self, library):
        """The satellite fix: a live-but-wedged worker (SIGSTOP) used
        to block ``_recv_reply`` forever; now it trips the per-reply
        deadline, is SIGKILLed, and the run completes bit-identically.
        """
        ctx = _ctx(build_adder(8), library)
        kids = _lac_children(ctx, 6)
        parent = ctx.reference_eval()
        serial = evaluate_batch(ctx, [(c, parent) for c in kids])
        dispatcher = _dispatcher(ctx)
        try:
            dispatcher.warmup()
            stopped = dispatcher._workers[0][0].pid
            os.kill(stopped, signal.SIGSTOP)
            begin = time.monotonic()
            got = dispatcher.evaluate_items([(c, parent) for c in kids])
            elapsed = time.monotonic() - begin
        finally:
            dispatcher.close()
        assert elapsed < 30, "deadline did not bound the hang"
        assert dispatcher.stats["timeouts"] >= 1
        assert dispatcher.stats["respawns"] >= 1
        for ours, ref in zip(got, serial):
            _assert_same_eval(ours, ref)

    def test_relentless_kills_degrade_to_serial(self, library):
        # Every dispatch dies; after the retry budget the dispatcher
        # evaluates in the parent — loudly, and still bit-identically.
        with pytest.warns(RuntimeWarning, match="serially in the parent"):
            d = _eval_round(
                library, FaultSchedule("worker.kill=*"), retries=1
            )
        assert d.stats["serial_fallbacks"] == 1

    @pytest.mark.parametrize(
        "schedule, replays",
        [("worker.kill@0=1", 0), ("worker.poison@0=1", 1)],
        ids=["kill", "poison"],
    )
    def test_parallel_compare_heals_after_kill(
        self, library, schedule, replays
    ):
        # A killed method run is resent; a poisoned reply is replayed
        # once with injection off.  Either way the compare equals the
        # serial one.
        methods = ("HEDALS", "Ours")
        with Session(build_adder(6), QUICK_CFG) as session:
            want = session.compare(methods, jobs=1)
        faults.install(FaultSchedule(schedule))
        try:
            with Session(build_adder(6), QUICK_CFG) as session:
                got = session.compare(methods, jobs=2)
                stats = session.fault_stats()
        finally:
            faults.install(None)
        assert stats["respawns"] >= 1
        assert stats["replays"] == replays
        for m in methods:
            assert write_verilog(got[m].circuit) == write_verilog(
                want[m].circuit
            )
            assert got[m].error == want[m].error
            assert (
                got[m].optimization.evaluations
                == want[m].optimization.evaluations
            )

    def test_parallel_compare_raises_past_retry_budget(self, monkeypatch):
        """A method whose worker dies on every send exhausts its
        resends: compare raises WorkerCrashError, closes the pool and
        leaves no worker behind."""
        monkeypatch.setenv("REPRO_WORKER_RETRIES", "1")
        before = {p.pid for p in multiprocessing.active_children()}
        faults.install(FaultSchedule("worker.kill=*"))
        try:
            with Session(build_adder(6), QUICK_CFG) as session:
                with pytest.raises(WorkerCrashError):
                    session.compare(("HEDALS", "Ours"), jobs=2)
                assert session.ctx._dispatcher.closed
        finally:
            faults.install(None)
        deadline = time.monotonic() + 5.0
        while True:
            alive = [
                p
                for p in multiprocessing.active_children()
                if p.name.startswith("repro-shard-") and p.pid not in before
            ]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert not alive, f"worker processes left behind: {alive}"

    def test_env_knobs_parse_with_warnings(self, monkeypatch, library):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "soon")
        monkeypatch.setenv("REPRO_WORKER_RETRIES", "3")
        ctx = _ctx(build_adder(6), library, num_vectors=64)
        with pytest.warns(RuntimeWarning, match="REPRO_WORKER_TIMEOUT"):
            dispatcher = ShardDispatcher(ctx, 2)
        try:
            assert dispatcher.worker_timeout == 600.0  # the default
            assert dispatcher.retries == 3
        finally:
            dispatcher.close()


# ----------------------------------------------------------------------
# acceptance: a full DCGWO run under kill + hang chaos
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_seeded_run_under_kill_and_hang_matches_serial(
        self, library, monkeypatch
    ):
        """The PR's acceptance pin: ``jobs=4`` under an injected
        worker-SIGKILL + worker-hang schedule returns the unfaulted
        serial run's exact result."""
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "1.5")
        with Session(build_adder(8), QUICK_CFG) as session:
            want = session.run("Ours")  # serial, unfaulted
        # Per-scope hits: every worker is killed on its 2nd eval
        # dispatch and hangs on its 4th — both recovery paths fire
        # during one run.
        faults.install(FaultSchedule("worker.kill=2;worker.hang=4"))
        try:
            with Session(build_adder(8), QUICK_CFG) as session:
                got = session.run("Ours", jobs=4)
                stats = session.fault_stats()
        finally:
            faults.install(None)
        assert stats["respawns"] >= 2
        assert stats["timeouts"] >= 1
        assert write_verilog(got.circuit) == write_verilog(want.circuit)
        assert got.error == want.error
        assert (
            got.optimization.evaluations
            == want.optimization.evaluations
        )
        assert got.optimization.history == want.optimization.history

