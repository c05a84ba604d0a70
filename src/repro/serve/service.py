"""The optimization service: a bounded run queue over ``Session``.

:class:`OptimizationService` is the daemon's engine, deliberately
transport-free (the HTTP layer in :mod:`repro.serve.server` is one thin
consumer; tests drive the service directly).  The contract:

* **Concurrency with bit-identical results.**  ``capacity`` jobs run at
  once, each in its own worker thread with its own :class:`Session`
  (own context, own shard pool) — an optimization's trajectory is a
  pure function of its spec, so concurrent serve-mode runs equal the
  same runs executed serially through ``Session.run`` bit for bit
  (pinned by ``tests/test_serve.py``).
* **A bounded queue.**  ``max_pending`` caps waiting jobs; submits
  beyond it raise :class:`QueueFull` (HTTP 503) instead of accepting
  unbounded memory.
* **Checkpoint/resume is the eviction story.**  When every slot is
  busy and new work arrives, the longest-running preemptible job is
  asked to pause (:meth:`Session.interrupt` — the same cooperative
  stop Ctrl-C uses), its session is checkpointed into the spool
  directory, and the job re-queues at the tail.  When a slot frees up
  the checkpoint resumes **bit-identically**, so eviction never
  changes a result — it only reorders wall-clock time.
* **Graceful drain.**  :meth:`shutdown` stops intake, interrupts every
  in-flight run to a spool checkpoint, cancels what never started,
  and closes every session (tearing down shard pools) — the same
  teardown path the CLI's SIGINT handling installs, multiplied across
  jobs.
* **Retry-from-checkpoint.**  A *transient* failure (a crashed shard
  pool, an I/O error — :func:`repro.faults.is_transient`) does not fail
  the job: it re-queues, up to ``spec.max_retries`` times, resuming
  from the latest spool checkpoint when one exists (checkpoints are
  written at evictions and drains; completed methods are never re-run).
  Resume is bit-identical, so a retried job returns exactly the result
  the unfaulted run would have.  Deterministic failures (a bad spec, a
  poisoned library) still fail immediately — retrying them only burns
  a slot.  Each retry posts a ``retry`` event carrying the attempt
  count and the swallowed error.
* **A job watchdog.**  Jobs may carry a wall-clock budget
  (``spec.deadline_s``, else the service-wide ``job_deadline_s``);
  a watchdog task interrupts any run past its budget and the job fails
  with a deadline error instead of occupying a slot forever.  The
  interrupt is the same cooperative stop eviction uses, so even a
  deadline kill leaves a clean teardown behind.

Events are published per job as JSON-safe dicts (see
:mod:`repro.serve.protocol`), appended to a replayable per-job log:
late subscribers always see the full stream from the beginning, and
every stream ends with an ``end`` event.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from .. import faults
from ..core.protocol import RunCallback
from ..netlist import write_verilog
from ..session import FlowResult, RunInterrupted, Session
from .protocol import JobSpec

#: Job lifecycle states (string enum keeps the JSON face trivial).
QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States after which a job's event stream closes.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Internal ``_execute`` outcome (never a public state): a transient
#: failure that should requeue the job from its checkpoint.
_RETRY = "retry"


class QueueFull(RuntimeError):
    """The bounded run queue is at ``max_pending`` (HTTP 503)."""


class ServiceClosed(RuntimeError):
    """The service is draining and accepts no new jobs (HTTP 503)."""


class Job:
    """One submitted optimize/compare request and its event log."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.state = QUEUED
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Replayable event log; subscribers stream it from index 0.
        self.events: List[Dict[str, Any]] = []
        self._cond = asyncio.Condition()
        #: Per-method flow results (JSON-safe), filled as they finish.
        self.results: Dict[str, Dict[str, Any]] = {}
        self.error: Optional[str] = None
        #: Spool checkpoint of a paused (evicted/drained) run.
        self.checkpoint_path: Optional[str] = None
        #: Times this job was evicted to a checkpoint and re-queued.
        self.evictions = 0
        #: Transient-failure retries consumed (vs ``spec.max_retries``).
        self.retries = 0
        #: First moment the job ever ran; the watchdog's deadline epoch.
        self.first_started_at: Optional[float] = None
        #: Set by the watchdog; a deadline kill fails instead of pausing.
        self.deadline_hit = False
        #: The live session while the job runs (interrupt target).
        self.session: Optional[Session] = None
        self.cancel_requested = False
        self.preempt_requested = False

    # -- introspection --------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe job summary for ``GET /jobs/<id>``."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.summary(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
            "evictions": self.evictions,
            "retries": self.retries,
            "max_retries": self.spec.max_retries,
            "results": self.results,
            "error": self.error,
        }

    # -- event log ------------------------------------------------------
    async def post(self, event: Dict[str, Any]) -> None:
        """Append one event and wake every waiting subscriber."""
        async with self._cond:
            self.events.append(event)
            self._cond.notify_all()

    async def wait_events(self, start: int) -> List[Dict[str, Any]]:
        """Events from index ``start``; blocks until at least one more.

        Returns an empty list only when the job is terminal and fully
        consumed — the subscriber should then close its stream.
        """
        async with self._cond:
            while start >= len(self.events):
                if self.terminal:
                    return []
                await self._cond.wait()
            return self.events[start:]


def _result_payload(flow: FlowResult) -> Dict[str, Any]:
    """A finished flow's metrics + final netlist, JSON-safe."""
    return {
        "method": flow.method,
        "ratio_cpd": flow.ratio_cpd,
        "cpd_ori": flow.cpd_ori,
        "cpd_fac": flow.cpd_fac,
        "area_ori": flow.area_ori,
        "area_fac": flow.area_fac,
        "error": flow.error,
        "runtime_s": flow.runtime_s,
        "evaluations": flow.optimization.evaluations,
        "netlist": write_verilog(flow.circuit),
    }


class _StreamCallback(RunCallback):
    """Bridges ``RunCallback`` events from a worker thread to the log.

    Each hook schedules the JSON-safe event onto the service loop with
    ``run_coroutine_threadsafe`` — fire-and-forget, order-preserving —
    so the optimizer thread never blocks on slow subscribers.
    """

    def __init__(self, service: "OptimizationService", job: Job):
        self.service = service
        self.job = job

    def on_run_start(self, method, total_iterations, state) -> None:
        self.service.post_threadsafe(self.job, {
            "type": "run_start",
            "job": self.job.id,
            "method": method,
            "total_iterations": total_iterations,
            "iteration": state.iteration,
        })

    def on_iteration(self, event) -> None:
        stats = event.stats
        self.service.post_threadsafe(self.job, {
            "type": "iteration",
            "job": self.job.id,
            "method": event.method,
            "iteration": event.iteration,
            "total_iterations": event.total_iterations,
            "best_fitness": stats.best_fitness,
            "best_fd": stats.best_fd,
            "best_fa": stats.best_fa,
            "best_error": stats.best_error,
            "error_constraint": stats.error_constraint,
            "evaluations": stats.evaluations,
            "elapsed_s": event.elapsed_s,
        })
        # Chaos site: a served job dying mid-run, *after* the iteration
        # was streamed — callback exceptions propagate out of the
        # optimizer loop, so this lands on the job-level failure wall
        # and (being transient) exercises retry-from-checkpoint.
        scope = self.job.spec.tag or self.job.id
        if faults.should_inject("serve.crash", scope):
            raise faults.InjectedFault(
                f"injected crash in job {self.job.id} at iteration "
                f"{event.iteration}"
            )

    def on_run_end(self, result) -> None:
        self.service.post_threadsafe(self.job, {
            "type": "run_end",
            "job": self.job.id,
            "method": result.method,
            "completed": result.completed,
            "evaluations": result.evaluations,
            "runtime_s": result.runtime_s,
        })


class OptimizationService:
    """The run queue + scheduler (see module docstring).

    Args:
        capacity: jobs running concurrently (each on its own thread
            with its own session).
        max_pending: bounded queue depth for waiting jobs.
        spool: directory for eviction/drain checkpoints (default: a
            fresh temp dir under the system temp root).
        jobs: default per-job shard-worker count when a spec leaves
            ``jobs`` at 0 (``None``: fall through to ``REPRO_JOBS``).
        cache_dir: cache directory whose run catalog records every
            job's completed runs (``None``: ``REPRO_CACHE``).
        logger: optional ``callable(str)`` for one-line request logs.
        job_deadline_s: default wall-clock budget per job, measured
            from the moment it first runs (``None``: no deadline);
            a spec's ``deadline_s`` overrides it per job.
    """

    def __init__(
        self,
        capacity: int = 2,
        max_pending: int = 64,
        spool: Optional[str] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        logger: Optional[Callable[[str], None]] = None,
        job_deadline_s: Optional[float] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.max_pending = max_pending
        self.spool = spool or tempfile.mkdtemp(prefix="repro-serve-")
        self.default_jobs = jobs
        self.cache_dir = cache_dir
        self.job_deadline_s = job_deadline_s
        self._log = logger or (lambda line: None)
        self.started_at = time.time()
        self.jobs_by_id: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._queue: "asyncio.Queue[Optional[Job]]" = asyncio.Queue()
        self._running: Dict[str, Job] = {}
        self._workers: List[asyncio.Task] = []
        self._watchdog: Optional[asyncio.Task] = None
        self._draining = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind to the running loop and spawn the worker slots."""
        self.loop = asyncio.get_running_loop()
        os.makedirs(self.spool, exist_ok=True)
        for slot in range(self.capacity):
            self._workers.append(
                asyncio.create_task(self._worker(slot), name=f"slot-{slot}")
            )
        self._watchdog = asyncio.create_task(
            self._watch_deadlines(), name="job-watchdog"
        )

    async def shutdown(self, drain: bool = True) -> None:
        """Stop intake, drain in-flight runs to checkpoints, tear down.

        With ``drain`` every running job is interrupted cooperatively
        and checkpointed into the spool (state ``paused`` — a later
        daemon pointed at the same spool could resume it); without it
        running jobs are simply cancelled.  Queued jobs are cancelled
        either way, and every worker slot exits.
        """
        self._draining = True
        for job in list(self._running.values()):
            job.preempt_requested = True
            if not drain:
                job.cancel_requested = True
            session = job.session
            if session is not None:
                session.interrupt()
        # Cancel jobs that never started; their streams must end too.
        pending: List[Job] = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None:
                pending.append(item)
        for job in pending:
            await self._finish(job, CANCELLED, error="server shutdown")
        for _ in self._workers:
            self._queue.put_nowait(None)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
            self._watchdog = None
        self._log("service drained")

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Enqueue one job; may evict a running job to make progress.

        Raises :class:`ServiceClosed` while draining and
        :class:`QueueFull` when ``max_pending`` jobs are already
        waiting.
        """
        if self._draining:
            raise ServiceClosed("service is draining; try another host")
        if self._queue.qsize() >= self.max_pending:
            raise QueueFull(
                f"run queue is full ({self.max_pending} waiting)"
            )
        job = Job(f"j{next(self._ids):05d}", spec)
        self.jobs_by_id[job.id] = job
        self._queue.put_nowait(job)
        job.events.append(self._state_event(job))
        self._log(f"{job.id} submitted ({spec.kind}, {spec.method_list()})")
        if len(self._running) >= self.capacity:
            # The queue is starved: every slot is busy and work is now
            # waiting.  Evict the longest-running preemptible job to a
            # checkpoint; it re-queues behind the new arrival.
            self._evict_one()
        return job

    def _evict_one(self) -> None:
        candidates = [
            j
            for j in self._running.values()
            if not j.preempt_requested
            and not j.cancel_requested
            and j.session is not None
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda j: j.started_at or 0.0)
        victim.preempt_requested = True
        session = victim.session
        if session is not None and session.interrupt():
            self._log(f"{victim.id} evicting to checkpoint (queue starved)")

    def cancel(self, job: Job) -> bool:
        """Request cancellation; immediate for queued/paused jobs."""
        if job.terminal:
            return False
        job.cancel_requested = True
        session = job.session
        if session is not None:
            session.interrupt()
        return True

    # ------------------------------------------------------------------
    # the worker slots
    # ------------------------------------------------------------------
    async def _worker(self, slot: int) -> None:
        while True:
            job = await self._queue.get()
            if job is None:  # shutdown sentinel
                return
            if job.cancel_requested:
                await self._finish(job, CANCELLED)
                continue
            await self._run_job(job)

    async def _watch_deadlines(self) -> None:
        """Interrupt any running job past its wall-clock budget.

        Cooperative, like eviction: the interrupt stops the optimizer
        at the next iteration boundary (a *wedged* pool is the shard
        dispatcher's per-reply deadline's problem, not this one's).
        The deadline clock starts when the job first runs and keeps
        ticking across evictions and retries — a budget, not a lease.
        """
        while True:
            await asyncio.sleep(0.2)
            now = time.time()
            for job in list(self._running.values()):
                deadline = (
                    job.spec.deadline_s
                    if job.spec.deadline_s is not None
                    else self.job_deadline_s
                )
                if (
                    deadline is None
                    or job.deadline_hit
                    or job.first_started_at is None
                    or now - job.first_started_at <= deadline
                ):
                    continue
                job.deadline_hit = True
                self._log(f"{job.id} exceeded its {deadline:.1f}s deadline")
                session = job.session
                if session is not None:
                    session.interrupt()

    async def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started_at = time.time()
        if job.first_started_at is None:
            job.first_started_at = job.started_at
        job.preempt_requested = False
        self._running[job.id] = job
        await job.post(self._state_event(job))
        try:
            outcome = await asyncio.to_thread(self._execute, job)
        finally:
            self._running.pop(job.id, None)
        if job.deadline_hit and outcome in (PAUSED, _RETRY):
            # A deadline kill is terminal however the run unwound.
            await self._finish(
                job, FAILED, error="job exceeded its wall-clock deadline"
            )
        elif outcome == _RETRY and self._draining:
            # Nobody will drain the queue again; fail loudly instead of
            # parking the job behind the shutdown sentinels.
            await self._finish(job, FAILED, error=job.error)
        elif outcome == _RETRY:
            job.retries += 1
            await job.post({
                "type": "retry",
                "job": job.id,
                "attempt": job.retries,
                "max_retries": job.spec.max_retries,
                "error": job.error,
                "from_checkpoint": bool(
                    job.checkpoint_path
                    and os.path.exists(job.checkpoint_path)
                ),
            })
            self._log(
                f"{job.id} transient failure ({job.error}); retry "
                f"{job.retries}/{job.spec.max_retries}"
            )
            job.error = None
            job.state = QUEUED
            await job.post(self._state_event(job))
            self._queue.put_nowait(job)
        elif outcome == PAUSED and not job.cancel_requested:
            if self._draining:
                # Leave the checkpoint in the spool; the stream stays
                # open-ended only until shutdown posts the end marker.
                await self._finish(job, PAUSED)
            else:
                job.state = PAUSED
                job.evictions += 1
                await job.post(self._state_event(job))
                job.state = QUEUED
                await job.post(self._state_event(job))
                self._queue.put_nowait(job)  # resume when a slot frees
        elif outcome == PAUSED:  # paused by a cancel request
            await self._finish(job, CANCELLED)
        elif outcome == CANCELLED:
            await self._finish(job, CANCELLED)
        elif outcome == FAILED:
            await self._finish(job, FAILED, error=job.error)
        else:
            await self._finish(job, DONE)

    async def _finish(
        self, job: Job, state: str, error: Optional[str] = None
    ) -> None:
        job.state = state
        job.finished_at = time.time()
        if error:
            job.error = error
            await job.post({
                "type": "error", "job": job.id, "message": error,
            })
        await job.post(self._state_event(job))
        await job.post({"type": "end", "job": job.id, "state": state})
        self._log(f"{job.id} {state}")

    def _state_event(self, job: Job) -> Dict[str, Any]:
        return {
            "type": "state",
            "job": job.id,
            "state": job.state,
            "ts": time.time(),
        }

    # ------------------------------------------------------------------
    # blocking execution (worker threads)
    # ------------------------------------------------------------------
    def post_threadsafe(self, job: Job, event: Dict[str, Any]) -> None:
        """Publish one event from a worker thread, order-preserving."""
        assert self.loop is not None
        asyncio.run_coroutine_threadsafe(job.post(event), self.loop)

    def _open_session(self, job: Job) -> Session:
        path = job.checkpoint_path
        if path and os.path.exists(path):
            return Session.resume(path)
        return Session(
            job.spec.build_circuit(),
            job.spec.flow_config(),
            cache_dir=self.cache_dir,
        )

    def _execute(self, job: Job) -> str:
        """Run (or continue) one job to done/paused/failed; blocking.

        Runs on a worker thread.  Every exit path closes the session —
        shard pools torn down — and a cooperative
        interrupt (eviction, cancel, drain) checkpoints the paused
        state into the spool so the continuation is bit-identical.

        A *transient* failure (:func:`repro.faults.is_transient`) with
        retry budget left returns ``_RETRY`` instead of ``FAILED``;
        the job requeues and resumes from its latest spool checkpoint
        (mid-step optimizer state is never captured on the exception
        path — it may be half-mutated — so the resume point is the
        last eviction/drain checkpoint, else a method restart; either
        replays a bit-identical trajectory).
        """
        spec = job.spec
        try:
            session = self._open_session(job)
        except Exception as exc:  # bad netlist, unreadable checkpoint
            job.error = f"{type(exc).__name__}: {exc}"
            return FAILED
        job.session = session
        callback = _StreamCallback(self, job)
        jobs_arg = (
            spec.jobs if spec.jobs > 0 else self.default_jobs
        )
        try:
            for method in spec.method_list():
                if method in job.results:
                    continue  # finished before an earlier eviction
                if job.cancel_requested:
                    return CANCELLED
                try:
                    flow = session.run(
                        method, callbacks=callback, jobs=jobs_arg
                    )
                except RunInterrupted:
                    return self._pause(job, session)
                payload = _result_payload(flow)
                job.results[method] = {
                    k: v for k, v in payload.items() if k != "netlist"
                }
                self.post_threadsafe(
                    job, {"type": "result", "job": job.id, **payload}
                )
            return DONE
        except Exception as exc:  # noqa: BLE001 - job-level failure wall
            job.error = f"{type(exc).__name__}: {exc}"
            if (
                faults.is_transient(exc)
                and job.retries < spec.max_retries
                and not job.cancel_requested
                and not job.deadline_hit
                and not self._draining
            ):
                return _RETRY
            return FAILED
        finally:
            job.session = None
            session.close()

    def _pause(self, job: Job, session: Session) -> str:
        if job.cancel_requested:
            return CANCELLED
        path = os.path.join(self.spool, f"{job.id}.ckpt")
        session.checkpoint(path)
        job.checkpoint_path = path
        return PAUSED

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.time() - self.started_at,
            "capacity": self.capacity,
            "running": len(self._running),
            "queued": self._queue.qsize(),
            "jobs": len(self.jobs_by_id),
            "spool": self.spool,
        }
