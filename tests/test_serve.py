"""The optimization service: concurrency, streaming, bit-identity.

The contract under test is the serve subsystem's whole reason to exist:
results delivered through the daemon — including runs that were evicted
to a checkpoint mid-flight and resumed later — are **bit-identical** to
the same specs run serially through ``Session.run``, and shutting the
daemon down at any point leaks neither worker processes nor unflushed
state.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from reference_circuits import build_adder

from repro import faults
from repro.core.protocol import RunCallback
from repro.faults import FaultSchedule
from repro.netlist import write_verilog
from repro.serve import (
    JobSpec,
    OptimizationService,
    ServeApp,
    ServeClient,
    ServeError,
    SpecError,
)
from repro.session import FlowConfig, Session
from repro.sim import ErrorMode

ADDER4 = write_verilog(build_adder(4))

#: Small-but-real flow knobs: enough iterations to observe streaming
#: and interrupt mid-run, small enough for CI.
QUICK = dict(vectors=64, effort=0.1, bound=0.05)


def quick_spec(seed=0, **overrides) -> JobSpec:
    payload = {"netlist": ADDER4, "method": "Ours", "seed": seed}
    payload.update(QUICK)
    payload.update(overrides)
    return JobSpec.from_payload(payload)


def serial_flow(spec: JobSpec):
    """The ground truth: the same spec through a plain serial session."""
    session = Session(spec.build_circuit(), spec.flow_config())
    try:
        return session.run(spec.method)
    finally:
        session.close()


class _Recorder(RunCallback):
    def __init__(self):
        self.rows = []

    def on_iteration(self, event) -> None:
        self.rows.append(
            (
                event.iteration,
                event.stats.best_fitness,
                event.stats.best_error,
                event.stats.evaluations,
            )
        )


async def _drive(service: OptimizationService, specs, waiter=None):
    """Submit specs and wait until every job is terminal."""
    await service.start()
    jobs = []
    for spec in specs:
        jobs.append(service.submit(spec))
        if waiter is not None:
            await waiter(jobs[-1])
    deadline = time.monotonic() + 300
    for job in jobs:
        cursor = 0
        while not job.terminal:
            assert time.monotonic() < deadline, "serve job hung"
            got = await job.wait_events(cursor)
            cursor += len(got)
    await service.shutdown()
    return jobs


def events_of(job, kind):
    return [e for e in job.events if e["type"] == kind]


def hold_run_starts(monkeypatch, release_after=None):
    """Hold every served run in ``on_run_start`` until a gate opens.

    Returns the gate (a ``threading.Event``).  It opens by itself once
    ``release_after`` runs have arrived, or when the test sets it.  A
    held run cannot finish, so the jobs' interleaving is a known fact
    instead of a race against the wall clock: runs held together
    overlap in time, and a held run keeps its slot busy.  Every wait is
    bounded, so a broken premise fails the test instead of hanging it.
    """
    from repro.serve import service as service_mod

    gate = threading.Event()
    arrived = []
    lock = threading.Lock()
    orig = service_mod._StreamCallback.on_run_start

    def held(cb_self, method, total_iterations, state):
        orig(cb_self, method, total_iterations, state)
        with lock:
            arrived.append(cb_self.job.id)
            if release_after is not None and len(arrived) >= release_after:
                gate.set()
        gate.wait(timeout=60)

    monkeypatch.setattr(service_mod._StreamCallback, "on_run_start", held)
    return gate


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_roundtrip(self):
        spec = quick_spec(seed=7, tag="x")
        again = JobSpec.from_payload(spec.to_payload())
        assert again == spec

    @pytest.mark.parametrize(
        "payload, needle",
        [
            ({}, "exactly one of"),
            ({"netlist": "x", "bench": "Adder"}, "exactly one of"),
            ({"bench": "NoSuch"}, "unknown benchmark"),
            ({"netlist": "x", "mode": "med"}, "mode must be"),
            ({"netlist": "x", "vectors": "lots"}, "must be a int"),
            ({"netlist": "x", "method": "NoSuch"}, "unknown method"),
            (
                {"netlist": "x", "kind": "compare", "methods": []},
                "non-empty list",
            ),
            ([1, 2], "JSON object"),
        ],
    )
    def test_rejects(self, payload, needle):
        with pytest.raises(SpecError, match=needle):
            JobSpec.from_payload(payload)

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("vectors", 0, "num_vectors must be >= 1"),
            ("effort", 0.0, "effort must be > 0"),
            ("effort", -1.0, "effort must be > 0"),
            ("bound", -0.1, "error_bound must be >= 0"),
            ("bound", float("nan"), "error_bound must be >= 0"),
            ("jobs", -3, "'jobs' must be >= 0"),
        ],
    )
    def test_invalid_flow_settings_rejected(self, field, value, needle):
        # Refused when the spec is built, not inside the running job.
        with pytest.raises(SpecError, match=needle):
            JobSpec.from_payload({"netlist": ADDER4, field: value})

    def test_flow_config_mapping(self):
        spec = quick_spec(seed=3, mode="nmed", bound=0.02)
        cfg = spec.flow_config()
        assert cfg == FlowConfig(
            error_mode=ErrorMode.NMED,
            error_bound=0.02,
            num_vectors=64,
            effort=0.1,
            seed=3,
        )


# ----------------------------------------------------------------------
# the service engine (in-process, no HTTP)
# ----------------------------------------------------------------------
class TestService:
    def test_serve_results_bit_identical_to_serial(self, tmp_path):
        """A served job streams exactly what an in-process callback sees
        and returns exactly what ``Session.run`` returns."""
        spec = quick_spec(seed=5)
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        (job,) = asyncio.run(_drive(service, [spec]))
        assert job.state == "done"

        flow = serial_flow(spec)
        (result,) = events_of(job, "result")
        # The final netlist crosses the wire bit-identically.
        assert result["netlist"] == write_verilog(flow.circuit)
        assert result["error"] == flow.error
        assert result["ratio_cpd"] == flow.ratio_cpd
        assert result["evaluations"] == flow.optimization.evaluations
        # And the live-streamed iteration stats equal the serial run's.
        recorder = _Recorder()
        session = Session(spec.build_circuit(), spec.flow_config())
        try:
            session.run(spec.method, callbacks=recorder)
        finally:
            session.close()
        streamed = [
            (
                e["iteration"],
                e["best_fitness"],
                e["best_error"],
                e["evaluations"],
            )
            for e in events_of(job, "iteration")
        ]
        assert streamed == recorder.rows

    def test_concurrent_jobs_overlap_and_match_serial(
        self, tmp_path, monkeypatch
    ):
        """capacity=2: two jobs actually run at the same time, and the
        concurrency changes nothing about either result."""
        specs = [quick_spec(seed=11), quick_spec(seed=12)]
        service = OptimizationService(
            capacity=2, spool=str(tmp_path / "spool")
        )
        # Neither run may finish before both have started.
        hold_run_starts(monkeypatch, release_after=2)

        async def wait_running(job):
            cursor = 0
            while job.state not in ("running",) and not job.terminal:
                cursor += len(await job.wait_events(cursor))

        jobs = asyncio.run(_drive(service, specs, waiter=wait_running))
        assert [j.state for j in jobs] == ["done", "done"]
        # Both wall-clock intervals overlap: true concurrency.
        a, b = jobs
        assert a.started_at < b.finished_at
        assert b.started_at < a.finished_at
        for job, spec in zip(jobs, specs):
            flow = serial_flow(spec)
            (result,) = events_of(job, "result")
            assert result["netlist"] == write_verilog(flow.circuit)
            assert result["error"] == flow.error

    def test_eviction_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        """The eviction story: a running job checkpointed mid-flight to
        make room, then resumed, ends bit-identical to never having
        been touched."""
        from repro.serve import service as service_mod

        long_spec = quick_spec(
            seed=21, effort=0.4, vectors=128, tag="victim"
        )
        short_spec = quick_spec(seed=22)
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        # Hold the victim inside its run until the newcomer has been
        # submitted (and the eviction requested) — without this gate a
        # fast run can finish before the preemption lands and the test
        # goes flaky.
        gate = threading.Event()
        orig = service_mod._StreamCallback.on_iteration

        def gated(cb_self, event):
            orig(cb_self, event)
            if cb_self.job.spec.tag == "victim" and not gate.is_set():
                gate.wait(timeout=60)

        monkeypatch.setattr(
            service_mod._StreamCallback, "on_iteration", gated
        )

        async def scenario():
            await service.start()
            victim = service.submit(long_spec)
            # Let it get properly under way (≥1 iteration streamed).
            cursor = 0
            while not events_of(victim, "iteration"):
                cursor += len(await victim.wait_events(cursor))
            newcomer = service.submit(short_spec)  # requests eviction
            gate.set()  # release the victim to hit the stop flag
            for job in (victim, newcomer):
                cursor = 0
                while not job.terminal:
                    cursor += len(await job.wait_events(cursor))
            await service.shutdown()
            return victim, newcomer

        victim, newcomer = asyncio.run(scenario())
        assert victim.state == "done"
        assert newcomer.state == "done"
        assert victim.evictions >= 1
        assert victim.checkpoint_path is not None
        # The run was split across two sessions via a spool checkpoint,
        # yet the outcome is the uninterrupted serial run's, bit for bit.
        flow = serial_flow(long_spec)
        (result,) = events_of(victim, "result")
        assert result["netlist"] == write_verilog(flow.circuit)
        assert result["error"] == flow.error
        assert result["evaluations"] == flow.optimization.evaluations
        # The streamed history is seamless across the eviction too.
        iters = [e["iteration"] for e in events_of(victim, "iteration")]
        assert iters == sorted(set(iters)), "resume replayed iterations"

    def test_cancel_queued_job(self, tmp_path):
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )

        async def scenario():
            await service.start()
            running = service.submit(quick_spec(seed=31))
            queued = service.submit(quick_spec(seed=32))
            service.cancel(queued)
            for job in (running, queued):
                cursor = 0
                while not job.terminal:
                    cursor += len(await job.wait_events(cursor))
            await service.shutdown()
            return running, queued

        running, queued = asyncio.run(scenario())
        assert running.state == "done"
        assert queued.state == "cancelled"
        assert not events_of(queued, "result")

    def test_queue_full(self, tmp_path):
        from repro.serve import QueueFull

        service = OptimizationService(
            capacity=1, max_pending=1, spool=str(tmp_path / "spool")
        )

        async def scenario():
            # Not started: nothing dequeues, so depth is deterministic.
            service.submit(quick_spec(seed=41))
            with pytest.raises(QueueFull):
                service.submit(quick_spec(seed=42))

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# self-healing: retry-from-checkpoint, retry exhaustion, job deadlines
# ----------------------------------------------------------------------
class TestRetry:
    @pytest.fixture(autouse=True)
    def _own_schedule(self):
        """Each test installs its own schedule; restore the env after
        (chaos CI runs this file under an env schedule on purpose)."""
        yield
        faults.reset()

    def test_transient_failure_retries_and_matches_serial(
        self, tmp_path
    ):
        """A job whose run dies transiently mid-stream is requeued and
        finishes bit-identical to the unfaulted serial run."""
        spec = quick_spec(seed=81, tag="flaky")
        # The 2nd streamed iteration raises an InjectedFault (transient)
        # — only once, so the retry runs clean.
        faults.install(FaultSchedule("serve.crash@flaky=2"))
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        (job,) = asyncio.run(_drive(service, [spec]))
        assert job.state == "done"
        assert job.retries == 1
        (retry,) = events_of(job, "retry")
        assert retry["attempt"] == 1
        assert retry["max_retries"] == spec.max_retries
        assert "InjectedFault" in retry["error"]
        assert job.snapshot()["retries"] == 1
        flow = serial_flow(spec)
        (result,) = events_of(job, "result")
        assert result["netlist"] == write_verilog(flow.circuit)
        assert result["error"] == flow.error
        assert result["evaluations"] == flow.optimization.evaluations

    def test_retry_resumes_from_eviction_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """The acceptance pin: evict (checkpoint spooled), resume, crash
        transiently in the *resumed* run — the retry warm-starts from
        the checkpoint and the result is still the serial run's, bit
        for bit."""
        from repro.serve import service as service_mod

        long_spec = quick_spec(
            seed=21, effort=0.4, vectors=128, tag="victim"
        )
        short_spec = quick_spec(seed=22)
        # Hit 5 of serve.crash@victim lands after the eviction (the
        # gate below caps the pre-eviction segment at a couple of
        # iterations; the run streams 8 total), i.e. inside the
        # checkpoint-resumed session.
        faults.install(FaultSchedule("serve.crash@victim=5"))
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        gate = threading.Event()
        orig = service_mod._StreamCallback.on_iteration

        def gated(cb_self, event):
            orig(cb_self, event)
            if cb_self.job.spec.tag == "victim" and not gate.is_set():
                gate.wait(timeout=60)

        monkeypatch.setattr(
            service_mod._StreamCallback, "on_iteration", gated
        )

        async def scenario():
            await service.start()
            victim = service.submit(long_spec)
            cursor = 0
            while not events_of(victim, "iteration"):
                cursor += len(await victim.wait_events(cursor))
            newcomer = service.submit(short_spec)  # requests eviction
            gate.set()
            for job in (victim, newcomer):
                cursor = 0
                while not job.terminal:
                    cursor += len(await job.wait_events(cursor))
            await service.shutdown()
            return victim, newcomer

        victim, newcomer = asyncio.run(scenario())
        assert newcomer.state == "done"
        assert victim.state == "done"
        assert victim.evictions >= 1
        assert victim.retries == 1
        (retry,) = events_of(victim, "retry")
        assert retry["from_checkpoint"] is True
        flow = serial_flow(long_spec)
        (result,) = events_of(victim, "result")
        assert result["netlist"] == write_verilog(flow.circuit)
        assert result["error"] == flow.error
        assert result["evaluations"] == flow.optimization.evaluations

    def test_retry_budget_exhausts_to_failed(self, tmp_path):
        spec = quick_spec(seed=82, tag="doomed", max_retries=0)
        faults.install(FaultSchedule("serve.crash@doomed=1"))
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        (job,) = asyncio.run(_drive(service, [spec]))
        assert job.state == "failed"
        assert job.retries == 0
        assert not events_of(job, "retry")
        assert "InjectedFault" in job.error

    def test_deterministic_failure_is_not_retried(self, tmp_path):
        """The transient/deterministic split: a bad netlist fails
        immediately, never consuming the retry budget."""
        spec = JobSpec.from_payload(
            {"netlist": "module busted(", "max_retries": 5, **QUICK}
        )
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        (job,) = asyncio.run(_drive(service, [spec]))
        assert job.state == "failed"
        assert job.retries == 0
        assert not events_of(job, "retry")

    def test_job_deadline_fails_the_job(self, tmp_path, monkeypatch):
        """A per-job wall-clock deadline interrupts the run and marks
        the job failed — it does not park as paused or retry forever."""
        from repro.serve import service as service_mod

        spec = quick_spec(seed=83, deadline_s=0.05)
        # Pace the run so it is still mid-flight when the watchdog's
        # first scan lands (a quick job can finish inside one scan
        # interval and the deadline would never be observed).
        orig = service_mod._StreamCallback.on_iteration

        def slowed(cb_self, event):
            orig(cb_self, event)
            time.sleep(0.3)

        monkeypatch.setattr(
            service_mod._StreamCallback, "on_iteration", slowed
        )
        service = OptimizationService(
            capacity=1, spool=str(tmp_path / "spool")
        )
        (job,) = asyncio.run(_drive(service, [spec]))
        assert job.state == "failed"
        assert "deadline" in job.error
        (end,) = events_of(job, "end")
        assert end["state"] == "failed"


# ----------------------------------------------------------------------
# the HTTP layer (real sockets, real clients on threads)
# ----------------------------------------------------------------------
class _Daemon:
    """An in-process daemon on a real socket, for client-side tests."""

    def __init__(self, tmp_path, capacity=2, **service_kw):
        self.service = OptimizationService(
            capacity=capacity, spool=str(tmp_path / "spool"), **service_kw
        )
        self.port = None
        self._ready = threading.Event()
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        await self.service.start()
        server = await asyncio.start_server(
            ServeApp(self.service).handle, "127.0.0.1", 0
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()
            server.close()
            await server.wait_closed()
            await self.service.shutdown()

    def __enter__(self) -> "ServeClient":
        self._thread.start()
        assert self._ready.wait(10), "daemon thread never listened"
        return ServeClient(f"http://127.0.0.1:{self.port}", timeout=120)

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "daemon thread hung"


class TestHttp:
    def test_two_clients_stream_live_and_match_serial(
        self, tmp_path, monkeypatch
    ):
        """Two concurrent clients, each streaming its own job; both
        streams are complete, ordered, and equal to serial ground
        truth."""
        # Neither run may finish before both have started.
        hold_run_starts(monkeypatch, release_after=2)
        with _Daemon(tmp_path, capacity=2) as client:
            assert client.health()["status"] == "ok"
            assert "Ours" in client.methods()
            specs = {0: quick_spec(seed=51), 1: quick_spec(seed=52)}
            # Submit both up front (capacity covers both, so they run
            # side by side), then stream each from its own client
            # thread — replay-from-start makes this race-free.
            ids = {
                idx: client.submit(spec)["id"]
                for idx, spec in specs.items()
            }
            out = {}

            def drive(idx):
                events = list(
                    ServeClient(
                        f"http://127.0.0.1:{client.port}", timeout=120
                    ).events(ids[idx])
                )
                (end,) = [e for e in events if e["type"] == "end"]
                out[idx] = (end["state"], events)

            threads = [
                threading.Thread(target=drive, args=(i,)) for i in specs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            snapshots = client.jobs()
        assert len(snapshots) == 2
        for idx, spec in specs.items():
            final, events = out[idx]
            assert final == "done"
            kinds = [e["type"] for e in events]
            assert kinds[0] == "state" and kinds[-1] == "end"
            assert "run_start" in kinds and "run_end" in kinds
            flow = serial_flow(spec)
            (result,) = [e for e in events if e["type"] == "result"]
            assert result["netlist"] == write_verilog(flow.circuit)
            assert result["error"] == flow.error
        # capacity=2 and both submitted together: they ran concurrently.
        spans = [
            (s["started_at"], s["finished_at"]) for s in snapshots
        ]
        assert spans[0][0] < spans[1][1] and spans[1][0] < spans[0][1]

    def test_http_errors(self, tmp_path):
        with _Daemon(tmp_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.submit(JobSpec(netlist="module busted"))
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.job("j99999")
            assert excinfo.value.status == 404

    def test_invalid_flow_setting_is_a_400(self, tmp_path):
        with _Daemon(tmp_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.submit(JobSpec(netlist=ADDER4, vectors=0))
            assert excinfo.value.status == 400
            assert "num_vectors must be >= 1" in str(excinfo.value)
            assert client.jobs() == []

    def test_replay_after_completion(self, tmp_path):
        """A late subscriber still gets the full event history."""
        with _Daemon(tmp_path) as client:
            job = client.submit(quick_spec(seed=61))
            first = list(client.events(job["id"]))
            again = list(client.events(job["id"]))
        assert first == again
        assert first[-1]["type"] == "end"

    def test_offset_resumes_mid_log(self, tmp_path):
        """``?offset=N`` replays from the Nth event — the server half
        of reconnect-and-resume — and a garbage offset is a 400."""
        with _Daemon(tmp_path) as client:
            job = client.submit(quick_spec(seed=62))
            full = list(client.events(job["id"]))
            tail = list(client.events(job["id"], start=3))
            assert tail == full[3:]
            # Resuming exactly at the end marker yields just the end.
            last = list(client.events(job["id"], start=len(full) - 1))
            assert last == full[-1:]
            with pytest.raises(ServeError) as excinfo:
                client._request(
                    "GET", f"/jobs/{job['id']}/events?offset=soon"
                )
            assert excinfo.value.status == 400

    def test_queue_full_503_carries_retry_after(
        self, tmp_path, monkeypatch
    ):
        """Back-pressure is advertised, not just thrown: the 503 tells
        clients how long to back off, and the client surfaces it."""
        # The first run holds the only slot until every submit is in,
        # so the one pending place fills and stays full.
        gate = hold_run_starts(monkeypatch)
        with _Daemon(tmp_path, capacity=1, max_pending=1) as client:
            ids, excinfo = [], None
            try:
                for seed in range(91, 96):
                    try:
                        ids.append(
                            client.submit(quick_spec(seed=seed))["id"]
                        )
                    except ServeError as exc:
                        excinfo = exc
                        break
            finally:
                gate.set()
            assert excinfo is not None, "queue never filled"
            assert excinfo.status == 503
            assert excinfo.retry_after == 1.0
            # The queue drains: everything accepted still completes.
            for job_id in ids:
                events = list(client.events(job_id))
                assert events[-1]["type"] == "end"


# ----------------------------------------------------------------------
# client self-healing (reconnect/resume and its failure mode)
# ----------------------------------------------------------------------
class _ScriptedResp:
    """A fake streaming response: yields frames, then EOF or an error."""

    def __init__(self, frames):
        self._frames = list(frames)

    def readline(self):
        if not self._frames:
            return b""
        frame = self._frames.pop(0)
        if isinstance(frame, Exception):
            raise frame
        return frame


class _ScriptedConn:
    def close(self):
        pass


def _frame(i, kind="iteration"):
    return json.dumps({"type": kind, "n": i}).encode() + b"\n"


class TestClientReconnect:
    def _client(self, monkeypatch, scripts):
        """A ServeClient whose connections follow ``scripts``: each
        entry is an exception (connect fails) or a frame list; the
        requested offsets are recorded."""
        client = ServeClient("http://127.0.0.1:1")
        offsets = []

        def scripted_request(method, path, **kw):
            offsets.append(int(path.rpartition("=")[2]))
            step = scripts.pop(0)
            if isinstance(step, Exception):
                raise step
            return _ScriptedConn(), _ScriptedResp(step)

        monkeypatch.setattr(client, "_request", scripted_request)
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: None
        )
        return client, offsets

    def test_resumes_after_truncation_and_dead_daemon(
        self, monkeypatch
    ):
        """A mid-event cut, then a refused reconnect, then recovery:
        the stream is delivered exactly once, in order, resuming from
        the last complete event."""
        client, offsets = self._client(
            monkeypatch,
            [
                [_frame(0), _frame(1), b'{"type": "itera'],  # cut
                ConnectionRefusedError("daemon restarting"),
                [_frame(2), _frame(3, "end")],
            ],
        )
        events = list(client.events("j1"))
        assert [e["n"] for e in events] == [0, 1, 2, 3]
        assert events[-1]["type"] == "end"
        assert offsets == [0, 2, 2]

    def test_progress_refills_the_reconnect_budget(self, monkeypatch):
        """Each delivered event resets the attempt counter, so a long
        flaky stream outlives ``max_reconnects`` total drops."""
        scripts = []
        for i in range(4):
            scripts.append([_frame(i)])  # one event, then EOF
            scripts.append(ConnectionRefusedError("blip"))
        scripts.append([_frame(4, "end")])
        client, offsets = self._client(monkeypatch, scripts)
        events = list(client.events("j1", max_reconnects=2))
        assert [e["n"] for e in events] == [0, 1, 2, 3, 4]
        assert offsets == [0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_exhausted_budget_raises_connection_error(
        self, monkeypatch
    ):
        client, _ = self._client(
            monkeypatch,
            [
                [_frame(0)],
                ConnectionRefusedError("down"),
                ConnectionRefusedError("still down"),
                ConnectionRefusedError("gone"),
            ],
        )
        seen = []
        with pytest.raises(ConnectionError, match="after 1 events"):
            for event in client.events("j1", max_reconnects=2):
                seen.append(event)
        assert [e["n"] for e in seen] == [0]

    def test_4xx_propagates_without_retry(self, monkeypatch):
        client, offsets = self._client(
            monkeypatch, [ServeError(404, "no such job")]
        )
        with pytest.raises(ServeError):
            list(client.events("j404"))
        assert offsets == [0]  # one attempt, no retry loop

    def test_sigkilled_daemon_surfaces_clean_client_error(
        self, tmp_path
    ):
        """The ungraceful end: SIGKILL the daemon mid-stream.  The
        client burns its reconnect budget and raises ConnectionError —
        no hang, no garbled partial event escaping to the caller.  The
        daemon holds the run after its first streamed iteration, so the
        kill lands mid-stream however fast the run is."""
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        with subprocess.Popen(
            [
                sys.executable, "-c", _HELD_DAEMON, "serve",
                "--port", "0", "--capacity", "1",
                "--spool", str(tmp_path / "spool"), "--quiet",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as proc:
            try:
                line = proc.stderr.readline()
                assert "listening on " in line, line
                url = line.rsplit(" ", 1)[-1].strip()
                client = ServeClient(url, timeout=30)
                spec = quick_spec(seed=72, effort=0.6, vectors=256)
                job = client.submit(spec)
                with pytest.raises(ConnectionError, match="reconnect"):
                    for event in client.events(job["id"], max_reconnects=2):
                        if event["type"] == "iteration":
                            proc.kill()  # SIGKILL: no drain, no goodbye
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# graceful drain (the real daemon process, real signals)
# ----------------------------------------------------------------------
#: Runs ``repro`` with every served run held after its first streamed
#: iteration until the drain interrupts it (or the daemon is killed),
#: so SIGTERM or SIGKILL provably lands mid-run however fast the run
#: is.  Bounded, like hold_run_starts.
_HELD_DAEMON = """
import sys, threading
from repro.__main__ import main
from repro.serve import service
from repro.session import Session

interrupted = threading.Event()
orig_interrupt = Session.interrupt
orig_iteration = service._StreamCallback.on_iteration

def interrupt(self):
    try:
        return orig_interrupt(self)
    finally:
        interrupted.set()

def on_iteration(self, event):
    orig_iteration(self, event)
    interrupted.wait(timeout=60)

Session.interrupt = interrupt
service._StreamCallback.on_iteration = on_iteration
sys.exit(main(sys.argv[1:]))
"""


class TestDrain:
    def test_sigterm_drains_to_resumable_checkpoint(self, tmp_path):
        """SIGTERM mid-run: the daemon checkpoints the in-flight job,
        exits 0 with no orphan workers, and the checkpoint resumes to
        the exact serial result."""
        spool = tmp_path / "spool"
        netlist_path = tmp_path / "adder4.v"
        netlist_path.write_text(ADDER4)
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        with subprocess.Popen(
            [
                sys.executable, "-c", _HELD_DAEMON, "serve",
                "--port", "0", "--capacity", "1",
                "--spool", str(spool), "--quiet",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as proc:
            try:
                line = proc.stderr.readline()
                assert "listening on " in line, line
                url = line.rsplit(" ", 1)[-1].strip()
                # A job long enough that SIGTERM lands mid-run.
                spec = quick_spec(seed=71, effort=0.6, vectors=256)
                client = ServeClient(url, timeout=120)
                job = client.submit(spec)
                for event in client.events(job["id"]):
                    if event["type"] == "iteration":
                        break  # properly under way
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            assert code == 0, proc.stderr.read()
        ckpt = spool / f"{job['id']}.ckpt"
        assert ckpt.exists(), "drain did not spool a checkpoint"
        # The drained checkpoint carries the paused run; finishing it
        # serially yields the uninterrupted run's exact result.
        session = Session.resume(str(ckpt))
        try:
            assert session.pending_methods() == ("Ours",)
            resumed = session.run("Ours")
        finally:
            session.close()
        flow = serial_flow(spec)
        assert write_verilog(resumed.circuit) == write_verilog(
            flow.circuit
        )
        assert resumed.error == flow.error
        assert (
            resumed.optimization.evaluations
            == flow.optimization.evaluations
        )
