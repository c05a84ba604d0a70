"""Multi-process sharded generation evaluation (the ShardDispatcher).

``Session.compare`` and the per-generation batch groups built by
:mod:`repro.core.batch` are embarrassingly parallel.
:class:`ShardDispatcher` forks ``jobs`` long-lived worker processes and
dispatches work to them under the contract everything in this codebase
is pinned to: **parallel results are bit-identical to serial results**,
regardless of worker count, OS scheduling or worker failures.

How determinism is preserved:

* **Workers own cloned contexts.**  Each worker rebuilds its own
  :class:`~repro.core.fitness.EvalContext` from the session's reference
  circuit, library and Monte-Carlo vector set — the same recipe
  ``Session.resume`` uses — so reference values, STA baselines and
  metric tails are bit-identical to the parent process's.
* **The partition is computed in the parent.**
  :func:`repro.core.batch.group_by_parent` decides which child is
  incrementally evaluable against which parent and which needs a full
  evaluation, exactly as the serial path does; workers never make
  path decisions of their own.
* **Parents travel once, children every generation.**  A provenance
  group is shipped as (parent key, children-with-changed-sets).  The
  first time a parent reaches a worker its eval rides along and is
  cached worker-side as it unpickles (the parent process mirrors the
  cache bookkeeping, so it knows which worker owns which parent);
  subsequent generations ship only the children.  Workers
  re-stamp each child's provenance against their cached parent copy
  and run the ordinary batch path
  (:func:`repro.core.batch.evaluate_batch`) — the same code, the same
  floats.  Full-evaluation singles ride as one parentless group.
* **Evals travel as payload and fields.**  A parent eval is pickled
  (its circuit, :func:`~repro.core.fitness.eval_payload` and
  :func:`~repro.core.fitness.eval_fields`); a reply ships payload and
  fields alone, and :func:`~repro.core.fitness.rebuild_eval` restores
  it without re-running the metric tail, on the circuit the parent
  submitted and the row index that circuit derived from its parent's.
* **Results merge by item index**, so completion order is irrelevant.

Evaluating each gate's value and timing is a pure function of circuit
structure + vectors + library, so a worker's output for an item equals
what the serial path would have produced for it (pinned by
``tests/test_parallel_eval.py``: batch equivalence under jobs=2/4/
jobs>children, stale-provenance fallbacks, mixed parent groups, and a
seeded DCGWO run-identity test).

Supervision is one loop, :meth:`ShardDispatcher._supervise`, which
warm-up, generation evaluation and whole-method runs all drive.  Each
unit of work is a task: the worker it must run on (or any idle one), a
function that builds its message at each send, a reply handler and a
reply deadline (``REPRO_WORKER_TIMEOUT`` for pings and evaluations,
``REPRO_METHOD_TIMEOUT`` for method runs), measured from the send.  The
loop sends each task as soon as its worker is idle and waits on every
in-flight pipe at once.  A worker that dies, misses its deadline (it is
SIGKILLed) or cannot be sent to is respawned with an empty cache mirror
and the task resent after a backoff, up to ``REPRO_WORKER_RETRIES``
times per task; because every routing and caching decision lives in
the parent, a resend just re-plans the task's items onto the fresh
worker.  Past the budget, generation evaluation finishes the leftover
items serially in the parent (with a ``RuntimeWarning``), while
warm-up and method runs raise :class:`WorkerCrashError`.  An error
*reply* is replayed once with fault injection off for the rest of the
call; an error reply to an injection-free send is deterministic — a
poisoned cell library, a bug — so the pool is torn down and the
original exception re-raised.  Any other exception that cuts a
dispatch short (an interrupt while the parent waits) also closes the
pool, because replies left in the pipes would answer the next
dispatch.  Workers are daemonic as a last-resort backstop, and
deterministic fault injection (:mod:`repro.faults`, sites
``worker.kill``/``worker.hang``/``worker.poison``) exercises every one
of these paths in the chaos CI job.

Job-count resolution (:func:`resolve_jobs`): an explicit ``jobs=``
argument wins, then the optimizer/flow config's ``jobs`` field, then
the ``REPRO_JOBS`` environment variable, else serial.  Inside a worker
the answer is always 1 — nested pools are never spawned.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import faults
from ..analysis.sanitize import TrackedLock
from ..netlist import Circuit
from ..netlist.circuit import Provenance
from ..sim import ErrorMode, VectorSet
from .batch import BatchItem, evaluate_batch, group_by_parent
from .fitness import (
    CircuitEval,
    DepthMode,
    EvalContext,
    EvalFields,
    EvalPayload,
    eval_fields,
    eval_payload,
    rebuild_eval,
)

#: Set in worker processes so :func:`resolve_jobs` never nests pools.
_IN_WORKER = False

#: Seconds an idle worker waits on its pipe between checks that its
#: owning process is still alive.
_ORPHAN_POLL_S = 0.5

#: Seconds the supervision loop waits for a reply between liveness and
#: deadline checks.
_WAIT_S = 0.05

#: Parent-eval cache entries kept per worker (FIFO eviction, mirrored
#: by the dispatcher so both sides agree on what is resident).
_CACHE_LIMIT = 128

#: Per-send reply deadline for pings and evaluations
#: (``REPRO_WORKER_TIMEOUT`` overrides; <= 0 disables).  Generous — a
#: legitimate shard reply is seconds — but finite, so a live-yet-wedged
#: worker (SIGSTOP, a stuck syscall) becomes a recoverable failure
#: instead of a hung session.
DEFAULT_WORKER_TIMEOUT = 600.0

#: Per-send reply deadline for one whole-method run (``Session.compare``
#: path; ``REPRO_METHOD_TIMEOUT`` overrides, <= 0 disables).  Method
#: runs are full optimization flows, so the ceiling is much higher.
DEFAULT_METHOD_TIMEOUT = 3600.0

#: Resends per task after its worker died, hung or lost its pipe
#: (``REPRO_WORKER_RETRIES``).
DEFAULT_WORKER_RETRIES = 2


class WorkerCrashError(faults.TransientError):
    """The pool kept failing past its retry budget (transient class:
    a serve job hitting this may retry from its checkpoint)."""


def _env_number(name: str, default: Union[int, float]) -> Union[int, float]:
    """``name`` from the environment, parsed as ``default``'s type."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return type(default)(raw)
    except ValueError:
        warnings.warn(
            f"{name}={raw!r} is not a valid {type(default).__name__}; "
            f"using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def resolve_jobs(jobs: Optional[int] = None, config: Any = None) -> int:
    """Effective worker count: explicit arg > config ``jobs`` > env > 1.

    ``REPRO_JOBS`` provides the environment override the CI parallel
    job uses; inside a shard worker the answer is always 1 so a
    parallel ``compare`` never spawns pools-within-pools.
    """
    if _IN_WORKER:
        return 1
    if jobs is not None:
        return max(1, int(jobs))
    if config is not None:
        cfg_jobs = getattr(config, "jobs", 0) or 0
        if cfg_jobs:
            return max(1, int(cfg_jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            # Never silently lose parallelism: a typo'd REPRO_JOBS in a
            # CI matrix would otherwise quietly run everything serial.
            warnings.warn(
                f"REPRO_JOBS={env!r} is not an integer; "
                "falling back to serial evaluation",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
    return 1


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass
class _ContextSpec:
    """Everything a worker needs to rebuild the session's EvalContext.

    The context itself is never shipped: it is fully determined by
    (reference circuit, library, error mode, vectors, weights), and the
    rebuild in the worker reproduces every baseline bit-for-bit — the
    same invariant ``Session.resume`` relies on.  The vector words are
    shipped verbatim rather than re-drawn from a seed so contexts built
    around externally supplied vector sets parallelize too.
    """

    reference: Circuit
    library: Any
    error_mode: ErrorMode
    vector_words: np.ndarray
    num_vectors: int
    wd: float
    depth_mode: DepthMode

    @classmethod
    def from_ctx(cls, ctx: EvalContext) -> "_ContextSpec":
        return cls(
            reference=ctx.reference,
            library=ctx.library,
            error_mode=ctx.error_mode,
            vector_words=ctx.vectors.words,
            num_vectors=ctx.vectors.num_vectors,
            wd=ctx.wd,
            depth_mode=ctx.depth_mode,
        )

    def build(self) -> EvalContext:
        return EvalContext.build(
            self.reference,
            self.library,
            self.error_mode,
            vectors=VectorSet(self.vector_words, self.num_vectors),
            wd=self.wd,
            depth_mode=self.depth_mode,
        )


#: A reply's eval on its way back through a pipe.
_Shipped = Tuple[EvalPayload, EvalFields]


def _reattach_provenance(
    circuit: Circuit, parent: CircuitEval, changed: FrozenSet[int]
) -> None:
    """Re-stamp a shipped child against the worker's parent copy.

    Pickling deliberately drops provenance (it is only meaningful
    relative to an in-memory parent object); the dispatcher shipped the
    ``changed`` set alongside, and the worker's cached parent is
    structurally identical to the original, so the re-stamped record
    drives exactly the cone walk the serial path would have run.
    """
    circuit.provenance = Provenance(
        parent.circuit, parent.circuit_version, changed
    )
    circuit._prov_version = circuit._version


def _worker_eval(
    ctx: EvalContext,
    ref_key: bytes,
    cache: "Dict[bytes, CircuitEval]",
    evicts: Sequence[bytes],
    groups: Sequence[Tuple[Optional[bytes], Optional[CircuitEval], List]],
) -> List[Tuple[int, _Shipped]]:
    """Evaluate one shard: provenance groups, then full-eval singles.

    A group keyed ``None`` holds the shard's full-evaluation singles.
    They go through the batch evaluator too, so the shard shares
    duplicate-key work exactly like the serial path (pickling dropped
    any provenance, so every such item stays a full-evaluation single —
    bit-identical either way).
    """
    for key in evicts:
        cache.pop(key, None)
    results: List[Tuple[int, _Shipped]] = []
    for key, parent, members in groups:
        if parent is not None:
            cache[key] = parent
        elif key == ref_key:
            parent = ctx.reference_eval()
        elif key is not None:
            parent = cache.get(key)
            if parent is None:
                raise RuntimeError(
                    "shard cache desync: dispatcher referenced a parent "
                    "this worker does not hold"
                )
        items: List[BatchItem] = []
        for _, circuit, changed, _ in members:
            if parent is not None:
                _reattach_provenance(circuit, parent, changed)
            items.append((circuit, parent))
        evals = evaluate_batch(ctx, items)
        for (index, _, _, child_key), ev in zip(members, evals):
            cache[child_key] = ev
            results.append((index, (eval_payload(ev), eval_fields(ev))))
    return results


def _apply_worker_fault(fault: Any) -> None:
    """Execute a parent-shipped fault instruction (chaos testing).

    The *parent* evaluates the fault schedule at send time and ships
    the verdict, so a respawned worker never re-reads counters and
    re-kills itself forever; the worker just acts it out.
    """
    if fault is None:
        return
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault == "poison":
        raise faults.InjectedFault("injected worker error reply")
    elif isinstance(fault, tuple) and fault[0] == "hang":
        # Sleep far past the parent's reply deadline; the parent
        # SIGKILLs the straggler, so the sleep never runs to term.
        time.sleep(float(fault[1]))
    else:  # pragma: no cover - schedule/worker version skew
        raise RuntimeError(f"unknown fault instruction {fault!r}")


def _worker_run(ctx: EvalContext, method: str, flow_config: Any) -> Any:
    """Run one whole method (optimizer + post-opt) against the worker
    ctx.  The session has no run catalog: the parent's ``compare``
    records the returned run."""
    from ..session import Session

    session = Session(
        ctx.reference, config=flow_config, library=ctx.library, ctx=ctx,
        cache=False,
    )
    return session.run(method)


def _worker_main(conn: Connection, spec: _ContextSpec) -> None:
    """Worker loop: build the cloned context lazily, then serve
    ``(kind, fault, *args)`` messages until ``stop`` or EOF.

    The context build is *not* done eagerly at process start: a failing
    build (e.g. a poisoned cell library) must surface as an ordinary
    error reply to the first message — raising out of the loop would
    leave the dispatcher waiting on a dead pipe.

    The loop waits with ``poll`` rather than a bare ``recv``: a forked
    worker inherits its own pipe's parent end, so an owner that dies
    without closing the pool (SIGKILL) never delivers EOF.  A worker
    whose parent PID changed has been orphaned and exits.
    """
    global _IN_WORKER
    _IN_WORKER = True
    owner = os.getppid()
    ctx: Optional[EvalContext] = None
    ref_key: Optional[bytes] = None
    init_error: Optional[BaseException] = None
    cache: Dict[bytes, CircuitEval] = {}
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != owner:
                    return
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None or msg[0] == "stop":
            break
        try:
            if ctx is None and init_error is None:
                try:
                    ctx = spec.build()
                    ref_key = ctx.reference.full_structure_key()
                except BaseException as exc:  # noqa: BLE001 - report, don't die
                    init_error = exc
            if init_error is not None:
                raise init_error
            kind, fault, *args = msg
            _apply_worker_fault(fault)
            if kind == "ping":
                result: Any = None
            elif kind == "eval":
                result = _worker_eval(ctx, ref_key, cache, *args)
            elif kind == "run":
                result = _worker_run(ctx, *args)
            else:
                raise RuntimeError(f"unknown shard message {kind!r}")
            reply: Tuple = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - marshal to parent
            reply = ("err", (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except Exception as send_exc:  # unpicklable result/exception
            try:
                conn.send(
                    (
                        "err",
                        (
                            RuntimeError(
                                "worker reply could not be serialized: "
                                f"{send_exc!r}"
                            ),
                            traceback.format_exc(),
                        ),
                    )
                )
            except Exception:
                break


# ----------------------------------------------------------------------
# dispatcher (parent side)
# ----------------------------------------------------------------------
@dataclass
class _WorkerPlan:
    """One worker's share of a dispatch, built deterministically."""

    evicts: List[bytes] = field(default_factory=list)
    #: ``(parent key, shipped parent eval or None, members)``; the key
    #: is ``None`` for the group of full-evaluation singles.
    groups: List[Tuple[Optional[bytes], Optional[CircuitEval], List]] = (
        field(default_factory=list)
    )


@dataclass(eq=False)
class _Task:
    """One unit of pool work for ``ShardDispatcher._supervise``."""

    #: The worker the task must run on, or ``None`` for any idle one.
    worker: Optional[int]
    #: ``(worker, suppress) -> message``, called at every send.
    build: Callable[[int, bool], Tuple]
    #: Consumes the payload of an ``("ok", payload)`` reply.
    handle: Callable[[Any], None]
    #: Reply deadline in seconds, measured from each send (<= 0: none).
    timeout: float
    failures: int = 0
    #: Whether the latest send went out with fault injection off.
    quiet: bool = False


def _start_method() -> str:
    """Prefer fork (cheap, inherits the interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ShardDispatcher:
    """A pool of evaluation workers with deterministic shard routing.

    Args:
        ctx: the evaluation context whose workload is being sharded;
            each worker rebuilds its own clone from the same inputs.
        jobs: number of worker processes (>= 1; a 1-worker dispatcher
            is legal but pointless — callers gate on ``jobs > 1``).
        worker_timeout: reply deadline in seconds for pings and
            evaluations, measured from each send (default
            ``REPRO_WORKER_TIMEOUT``, else :data:`DEFAULT_WORKER_TIMEOUT`;
            <= 0 disables).
        method_timeout: reply deadline for whole-method runs (default
            ``REPRO_METHOD_TIMEOUT``).
        retries: resends per task after its worker died, hung or lost
            its pipe (default ``REPRO_WORKER_RETRIES``).
        backoff: seconds per failure to wait before a resend.

    The dispatcher is deliberately single-brained: every routing,
    caching and eviction decision is made in the parent process and
    shipped to workers as explicit instructions, which is what makes a
    run's dispatch sequence — and therefore its results — a pure
    function of the item stream, independent of scheduling.  The same
    property makes workers disposable.  :meth:`warmup`,
    :meth:`evaluate_items` and :meth:`run_methods` each turn their work
    into tasks for one supervision loop (:meth:`_supervise`), which
    sends, waits, respawns and resends; a resend can change a task's
    routing, never its result.  Recovery counters live in :attr:`stats`
    (``respawns``/``retries``/``timeouts``/``replays``/
    ``serial_fallbacks``) for the chaos CI job's summary.
    """

    def __init__(
        self,
        ctx: EvalContext,
        jobs: int,
        worker_timeout: Optional[float] = None,
        method_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: float = 0.05,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.worker_timeout = (
            worker_timeout
            if worker_timeout is not None
            else _env_number("REPRO_WORKER_TIMEOUT", DEFAULT_WORKER_TIMEOUT)
        )
        self.method_timeout = (
            method_timeout
            if method_timeout is not None
            else _env_number("REPRO_METHOD_TIMEOUT", DEFAULT_METHOD_TIMEOUT)
        )
        self.retries = (
            retries
            if retries is not None
            else max(
                0, _env_number("REPRO_WORKER_RETRIES", DEFAULT_WORKER_RETRIES)
            )
        )
        self.backoff = backoff
        #: Recovery counters (cumulative over the dispatcher's life).
        self.stats: Dict[str, int] = {
            "respawns": 0,
            "retries": 0,
            "timeouts": 0,
            "replays": 0,
            "serial_fallbacks": 0,
        }
        self._closed = False
        #: Serializes pool access: the pipes, routing tables and cache
        #: mirrors assume one dispatch in flight, so concurrent callers
        #: (serve-mode jobs sharing a pool, a signal-driven close racing
        #: an evaluation) queue here instead of interleaving messages.
        #: Reentrant because the error path closes from inside a
        #: dispatch.
        self._lock = TrackedLock("ShardDispatcher._lock", reentrant=True)
        self._ref_key = ctx.reference.full_structure_key()
        #: Mirror of each worker's cache keys, in insertion (FIFO) order.
        self._known: List["OrderedDict[bytes, None]"] = [
            OrderedDict() for _ in range(jobs)
        ]
        self._rr = 0  # round-robin counter for full-eval singles
        #: Kept for serial-fallback evaluation; weak, so the context
        #: (which holds its dispatcher) is in no reference cycle and a
        #: context dropped unclosed frees its pool at once.
        self._ctx = weakref.ref(ctx)
        self._spec = _ContextSpec.from_ctx(ctx)
        self._mp = multiprocessing.get_context(_start_method())
        self._workers: List[Tuple[Any, Connection]] = []
        for i in range(jobs):
            self._workers.append(self._spawn(i))

    def _spawn(self, index: int) -> Tuple[Any, Connection]:
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, self._spec),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _respawn(self, worker: int) -> None:
        """Replace a failed worker with a fresh process + empty mirror.

        SIGKILL (not SIGTERM) so even a SIGSTOP'd straggler dies, and
        the cache mirror is reset so the planner re-ships any parent
        the dead worker was supposed to hold — the parent-side
        bookkeeping *is* the replay recipe.
        """
        proc, conn = self._workers[worker]
        try:
            conn.close()
        except Exception:
            pass
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        self._known[worker] = OrderedDict()
        self._workers[worker] = self._spawn(worker)
        self.stats["respawns"] += 1

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _register(
        self,
        worker: int,
        key: bytes,
        plan: _WorkerPlan,
        pinned: set,
    ) -> None:
        """Record that ``worker`` will hold ``key`` after this dispatch.

        FIFO-evicts the oldest unpinned entries beyond the cache limit;
        keys touched by the current dispatch are pinned so an eviction
        can never invalidate a group scheduled moments earlier.
        """
        known = self._known[worker]
        if key in known:
            pinned.add(key)
            return
        known[key] = None
        pinned.add(key)
        while len(known) > _CACHE_LIMIT:
            victim = next(
                (old for old in known if old not in pinned), None
            )
            if victim is None:
                break
            del known[victim]
            plan.evicts.append(victim)

    def _plan(
        self,
        items: Sequence[BatchItem],
        ids: Sequence[int],
        only: Optional[int] = None,
    ) -> List[_WorkerPlan]:
        """Deterministically partition ``items[i] for i in ids`` into
        worker shards, in one pass over the groups in group order.

        ``only`` confines the shards to one worker: a resend re-plans
        its task's items onto the respawned worker, whose empty mirror
        makes every parent ride along.
        """
        workers = range(self.jobs) if only is None else (only,)
        groups, singles = group_by_parent([items[i] for i in ids])
        plans = [_WorkerPlan() for _ in range(self.jobs)]
        pinned: set = set()
        for parent, members in groups:
            key = parent.circuit.full_structure_key()
            packed = [
                (ids[i], circuit, changed, circuit.full_structure_key())
                for i, circuit, changed in members
            ]
            if key == self._ref_key:
                # Every worker rebuilds the reference eval locally, so
                # the (large) initial-population group splits for free.
                chunk = -(-len(packed) // len(workers))  # ceil div
                for j, w in enumerate(workers):
                    part = packed[j * chunk : (j + 1) * chunk]
                    if not part:
                        continue
                    plans[w].groups.append((key, None, part))
                    for _, _, _, child_key in part:
                        self._register(w, child_key, plans[w], pinned)
                continue
            owner = next((w for w in workers if key in self._known[w]), None)
            shipped: Optional[CircuitEval] = None
            if owner is None:
                # First sighting: route by key hash, ship the parent.
                owner = workers[int.from_bytes(key[:8], "big") % len(workers)]
                shipped = parent
                self._register(owner, key, plans[owner], pinned)
            else:
                pinned.add(key)
            plans[owner].groups.append((key, shipped, packed))
            for _, _, _, child_key in packed:
                self._register(owner, child_key, plans[owner], pinned)
        for i, circuit in singles:
            w = workers[self._rr % len(workers)]
            self._rr += 1
            child_key = circuit.full_structure_key()
            shard = plans[w].groups
            if not shard or shard[-1][0] is not None:
                shard.append((None, None, []))
            shard[-1][2].append((ids[i], circuit, None, child_key))
            self._register(w, child_key, plans[w], pinned)
        return plans

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _send(self, worker: int, msg: Tuple) -> bool:
        """Best-effort send; ``False`` means the worker's pipe is gone
        (the caller treats that exactly like a death and respawns)."""
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        try:
            self._workers[worker][1].send(msg)
            return True
        except (OSError, ValueError):
            return False

    def _raise_worker_error(self, exc: BaseException, tb: str) -> None:
        """Deterministic worker error: re-raise it with the worker's
        traceback attached (the supervision loop closes the pool)."""
        if tb and hasattr(exc, "add_note"):
            exc.add_note(
                "raised in a shard worker; worker traceback:\n" + tb
            )
        raise exc

    def _fault(self, worker: int, suppress: bool, hang: bool) -> Any:
        """Fault instruction for one send (``None`` when disarmed).

        Evaluated parent-side so the hit counters have a single
        authority; ``suppress`` turns injection off for diagnostic
        replays (an injected kill must not mask the question "was that
        error reply deterministic?"), and ``hang=False`` skips the hang
        site for method runs, where it would stall CI for the whole
        method deadline.
        """
        if suppress:
            return None
        scope = str(worker)
        if faults.should_inject("worker.kill", scope):
            return "kill"
        if hang and faults.should_inject("worker.hang", scope):
            hang_s = (
                max(1.0, 4.0 * self.worker_timeout)
                if self.worker_timeout > 0
                else 600.0
            )
            return ("hang", hang_s)
        if faults.should_inject("worker.poison", scope):
            return "poison"
        return None

    def _supervise(self, tasks: Sequence[_Task], fatal: bool) -> None:
        """Run ``tasks`` on the pool: the one send/wait/recover loop.

        A task is sent as soon as its worker is idle; the loop then
        waits on every in-flight pipe at once.  A worker that is dead
        with no pending reply (its pipe may never reach EOF while forked
        siblings hold inherited fds), misses its task's deadline, or
        cannot be sent to is respawned, and the task resent after
        ``backoff * failures`` seconds, at most :attr:`retries` times.
        Past that the task is dropped — the caller finds its results
        missing — or, when ``fatal``, the pool is closed and
        :class:`WorkerCrashError` raised at once.  The first error reply
        respawns its worker, counts a replay and resends; every later
        send in the call goes out with fault injection off, and an
        error reply to such a send re-raises the worker's exception.
        Any exception leaving the loop closes the pool first.
        """
        queue: List[_Task] = list(tasks)
        inflight: Dict[int, Tuple[_Task, float]] = {}  # worker -> (task, sent)
        suppress = False

        def failed(worker: int, task: _Task) -> None:
            self._respawn(worker)
            task.failures += 1
            if task.failures <= self.retries:
                self.stats["retries"] += 1
                time.sleep(self.backoff * task.failures)
                queue.insert(0, task)
            elif fatal:
                raise WorkerCrashError(
                    f"shard worker {worker} kept failing after "
                    f"{self.retries} retries"
                )

        try:
            while queue or inflight:
                for task in list(queue):
                    idle = [i for i in range(self.jobs) if i not in inflight]
                    w = task.worker
                    if w is None and idle:
                        w = idle[0]
                    if w not in idle:
                        continue
                    queue.remove(task)
                    task.quiet = suppress
                    if self._send(w, task.build(w, suppress)):
                        # lint: allow[R4] supervision deadline, never a result
                        inflight[w] = (task, time.monotonic())
                    else:
                        failed(w, task)
                ready = connection_wait(
                    [self._workers[w][1] for w in inflight], timeout=_WAIT_S
                )
                for w, (task, sent) in list(inflight.items()):
                    proc, conn = self._workers[w]
                    if conn in ready:
                        del inflight[w]
                        try:
                            kind, payload = conn.recv()
                        except (EOFError, OSError):
                            failed(w, task)
                            continue
                        if kind == "ok":
                            task.handle(payload)
                        elif task.quiet:
                            self._raise_worker_error(*payload)
                        else:
                            self.stats["replays"] += 1
                            suppress = True
                            self._respawn(w)
                            queue.insert(0, task)
                    elif not proc.is_alive() and not conn.poll(0):
                        del inflight[w]
                        failed(w, task)
                    # lint: allow[R4] supervision deadline, never a result
                    elif 0 < task.timeout < time.monotonic() - sent:
                        self.stats["timeouts"] += 1
                        del inflight[w]
                        failed(w, task)  # the respawn SIGKILLs the straggler
        except BaseException:
            # A dispatch cut short can leave replies, or half a message,
            # in the pipes, which the next dispatch would read as its
            # own: such a pool is never reused.
            self.close(force=True)
            raise

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def warmup(self) -> None:
        """Force every worker to build its context now (optional).

        Useful before timed regions (the runtime-scaling bench measures
        steady-state throughput) and to surface context-build errors
        eagerly; :meth:`evaluate_items` works without it.  Supervised
        like any dispatch: dead/hung workers are respawned and
        re-pinged, a repeated error reply is deterministic and raises,
        and a worker that keeps failing raises
        :class:`WorkerCrashError`.
        """
        with self._lock:
            tasks = [
                _Task(
                    w,
                    lambda worker, suppress: ("ping", None),
                    lambda reply: None,
                    self.worker_timeout,
                )
                for w in range(self.jobs)
            ]
            self._supervise(tasks, fatal=True)

    def evaluate_items(self, items: Sequence[BatchItem]) -> List[CircuitEval]:
        """Evaluate a generation across the pool; bit-identical to serial.

        One task per worker shard of :meth:`_plan`; a resend re-plans
        the shard's items onto the respawned worker.  Items whose shard
        ran out of retries are evaluated serially in the parent — the
        serial batch path is the definition of correctness, so degraded
        results are still bit-identical.
        """
        if not items:
            return []
        with self._lock:
            ctx = self._ctx()
            out: List[Optional[CircuitEval]] = [None] * len(items)

            def handle(reply: List[Tuple[int, _Shipped]]) -> None:
                for index, shipped in reply:
                    out[index] = rebuild_eval(ctx, items[index][0], *shipped)

            plans = self._plan(items, range(len(items)))
            tasks = [
                _Task(
                    w,
                    self._eval_build(items, plan),
                    handle,
                    self.worker_timeout,
                )
                for w, plan in enumerate(plans)
                if plan.groups
            ]
            self._supervise(tasks, fatal=False)
            left = [i for i, ev in enumerate(out) if ev is None]
            if left:
                self.stats["serial_fallbacks"] += 1
                warnings.warn(
                    f"shard pool kept failing after {self.retries} "
                    f"resends; evaluating {len(left)} items serially in "
                    "the parent",
                    RuntimeWarning,
                    stacklevel=2,
                )
                serial = evaluate_batch(ctx, [items[i] for i in left])
                for index, ev in zip(left, serial):
                    out[index] = ev
        return out  # type: ignore[return-value]

    def _eval_build(
        self, items: Sequence[BatchItem], plan: _WorkerPlan
    ) -> Callable[[int, bool], Tuple]:
        """Message builder for one shard: the planned message first, a
        re-plan of the same items onto the worker at every resend."""
        ids = [i for _, _, members in plan.groups for i, *_ in members]

        def build(worker: int, suppress: bool) -> Tuple:
            nonlocal plan
            if plan is None:  # a resend
                plan = self._plan(items, ids, only=worker)[worker]
            shard, plan = plan, None
            fault = self._fault(worker, suppress, hang=True)
            return ("eval", fault, shard.evicts, shard.groups)

        return build

    def run_methods(
        self, methods: Sequence[str], flow_config: Any
    ) -> Dict[str, Any]:
        """Run whole methods concurrently (``Session.compare`` backend).

        Each method's full flow (optimizer + post-optimization) runs in
        one worker against that worker's cloned context; methods beyond
        the pool size queue up and start as workers free up.  Results
        come back keyed and are returned in the requested method order.
        Individual runs are seeded and independent, so concurrency —
        and a resend after a worker death or a missed
        ``method_timeout`` deadline — cannot change any result.  A
        method whose worker keeps failing past the retry budget raises
        :class:`WorkerCrashError` (there is no serial fallback here: a
        method run *is* a serial run, just elsewhere).
        """
        with self._lock:
            results: Dict[str, Any] = {}

            def task(method: str) -> _Task:
                def build(worker: int, suppress: bool) -> Tuple:
                    fault = self._fault(worker, suppress, hang=False)
                    return ("run", fault, method, flow_config)

                def handle(reply: Any) -> None:
                    results[method] = reply

                return _Task(None, build, handle, self.method_timeout)

            self._supervise([task(m) for m in methods], fatal=True)
            return {m: results[m] for m in methods}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Shut the pool down; idempotent.

        Graceful close asks workers to exit and joins them; ``force``
        (the error path) skips the goodbye and terminates stragglers so
        a poisoned pool can never leave hung processes behind.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _, conn in self._workers:
                if not force:
                    try:
                        conn.send(("stop", None))
                    except Exception:
                        pass
                try:
                    conn.close()
                except Exception:
                    pass
            for proc, _ in self._workers:
                proc.join(timeout=0.2 if force else 2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
                if proc.is_alive():
                    # SIGTERM is ignorable (and undeliverable to a
                    # SIGSTOP'd process); SIGKILL is not.
                    proc.kill()
                    proc.join(timeout=2.0)

    def __enter__(self) -> "ShardDispatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close(force=True)
        except Exception:
            pass


#: Guards the per-context dispatcher slot: two threads resolving
#: ``jobs > 1`` on one context must share one pool, not fork two.
_DISPATCHER_LOCK = TrackedLock("parallel._DISPATCHER_LOCK")


def get_dispatcher(ctx: EvalContext, jobs: int) -> ShardDispatcher:
    """The context's dispatcher, (re)built when absent, closed or resized.

    The dispatcher lives on the :class:`EvalContext` so every consumer
    of one context — optimizer generations, ``Session.evaluate_batch``,
    ``Session.compare`` — shares one warm pool, and the worker-side
    parent caches stay hot across generations.  Thread-safe: concurrent
    callers get the same pool, and each dispatch serializes on the
    dispatcher's own lock.
    """
    with _DISPATCHER_LOCK:
        existing = getattr(ctx, "_dispatcher", None)
        if (
            existing is not None
            and not existing.closed
            and existing.jobs == jobs
        ):
            return existing
        if existing is not None:
            existing.close()
        dispatcher = ShardDispatcher(ctx, jobs)
        ctx._dispatcher = dispatcher
        return dispatcher


def close_dispatcher(ctx: EvalContext) -> None:
    """Close and detach the context's dispatcher, if any."""
    with _DISPATCHER_LOCK:
        existing = getattr(ctx, "_dispatcher", None)
        if existing is not None:
            existing.close()
            ctx._dispatcher = None
