"""The optimizer protocol: ABC, streaming callbacks, serializable state.

Every method (DCGWO and all four baselines) implements the same small
surface so the flow, the :class:`~repro.session.Session` facade, and any
third-party plug-in interoperate:

* :class:`Optimizer` — construct with ``(ctx, error_bound, config)``,
  call :meth:`Optimizer.optimize`.  Subclasses implement only
  :meth:`Optimizer._init_state` (build the serializable loop state) and
  :meth:`Optimizer._step` (advance it by one iteration); the base class
  owns the driver loop, callback dispatch, pause/resume, and the result
  assembly, so every method gets checkpointing and streaming for free.
* :class:`OptimizerState` — everything the loop needs between
  iterations (population, archive, RNG, history).  It is deliberately
  plain data: pickling it, rebuilding the :class:`EvalContext` from the
  same seed, and calling ``optimize(state=...)`` resumes a run
  bit-identically (pinned by ``tests/test_session_api.py``).
* :class:`RunCallback` — observer of one run: ``on_run_start`` /
  ``on_iteration`` / ``on_run_end``, consumed by the CLI progress view
  and available to any embedding service.

Evaluation enters through two funnels: :meth:`Optimizer._evaluate` for
one candidate (cone-limited when provenance allows) and
:meth:`Optimizer._evaluate_generation` for a whole generation, which
shards the generation across a process pool when the config requests
``jobs > 1`` (:mod:`repro.core.parallel`) and otherwise runs the
in-process batch evaluator (:func:`repro.core.batch.evaluate_batch`).
Both are bit-identical to the full path.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..netlist import Circuit
from .batch import evaluate_batch
from .fitness import (
    CircuitEval,
    EvalContext,
    ParentEvals,
    evaluate_incremental,
)
from .result import IterationStats, OptimizationResult


# ----------------------------------------------------------------------
# streaming callbacks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IterationEvent:
    """One per-iteration progress event streamed to run callbacks.

    Attributes:
        method: the emitting optimizer's method name.
        iteration: 1-based iteration just completed.
        total_iterations: the run's iteration budget.
        stats: the history row the iteration appended.
        best: best error-feasible circuit archived so far (may be
            ``None`` early in a run under a tight constraint).
        elapsed_s: wall-clock seconds since ``optimize()`` was entered.
    """

    method: str
    iteration: int
    total_iterations: int
    stats: IterationStats
    best: Optional[CircuitEval]
    elapsed_s: float


class RunCallback:
    """Observer of one optimizer run; override any subset of hooks.

    Events arrive in a fixed order: exactly one :meth:`on_run_start`,
    then zero or more :meth:`on_iteration` with strictly increasing
    ``iteration``, then exactly one :meth:`on_run_end` — per
    ``optimize()`` call (a resumed run is a fresh event sequence).
    """

    def on_run_start(
        self, method: str, total_iterations: int, state: "OptimizerState"
    ) -> None:
        """Called once before the first iteration of this call."""

    def on_iteration(self, event: IterationEvent) -> None:
        """Called after every completed iteration."""

    def on_run_end(self, result: OptimizationResult) -> None:
        """Called once with the (possibly partial) result."""


class CallbackList(RunCallback):
    """Fan one run's events out to several callbacks, in order."""

    def __init__(self, callbacks: Iterable[Optional[RunCallback]]):
        self.callbacks: List[RunCallback] = [
            cb for cb in callbacks if cb is not None
        ]

    def on_run_start(self, method, total_iterations, state) -> None:
        for cb in self.callbacks:
            cb.on_run_start(method, total_iterations, state)

    def on_iteration(self, event: IterationEvent) -> None:
        for cb in self.callbacks:
            cb.on_iteration(event)

    def on_run_end(self, result: OptimizationResult) -> None:
        for cb in self.callbacks:
            cb.on_run_end(result)


#: What ``optimize(callbacks=...)`` accepts.
Callbacks = Union[RunCallback, Sequence[Optional[RunCallback]], None]


def as_callback(callbacks: Callbacks) -> RunCallback:
    """Normalize the ``callbacks`` argument to a single dispatcher."""
    if callbacks is None:
        return RunCallback()
    if isinstance(callbacks, RunCallback):
        return callbacks
    return CallbackList(list(callbacks))


# ----------------------------------------------------------------------
# serializable loop state
# ----------------------------------------------------------------------
@dataclass
class OptimizerState:
    """Snapshot of an optimizer loop between two iterations.

    Plain data by design: everything here pickles (circuits drop their
    caches and provenance on serialization and rebuild them lazily), so
    ``Session.checkpoint`` can persist a paused run and
    ``Session.resume`` can continue it bit-identically.

    Attributes:
        iteration: iterations completed so far (0 before the first).
        limit: the iteration budget (``imax`` / generations / rounds).
        evaluations: candidate evaluations spent so far.
        done: set by ``_step`` when the method converged early (greedy
            methods stop when no acceptable move remains).
        rng: the run's own ``random.Random`` (picklable, exact state).
        population: current population (greedy methods keep their
            current circuit in ``extra`` instead).
        best: best error-feasible evaluation archived anywhere so far.
        history: one :class:`IterationStats` row per iteration.
        extra: method-specific loop state (weights, current circuit...).
    """

    iteration: int = 0
    limit: int = 0
    evaluations: int = 0
    done: bool = False
    rng: Optional[random.Random] = None
    population: List[CircuitEval] = field(default_factory=list)
    best: Optional[CircuitEval] = None
    history: List[IterationStats] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        """True once the loop cannot advance any further."""
        return self.done or self.iteration >= self.limit


# ----------------------------------------------------------------------
# the optimizer ABC
# ----------------------------------------------------------------------
class Optimizer(ABC):
    """Base class of every optimization method.

    Args:
        ctx: shared evaluation context built around the accurate circuit.
        error_bound: maximum error (ER or NMED, per ``ctx.error_mode``).
        config: method hyper-parameters (``config_cls`` instance).

    Subclasses set :attr:`method_name` / :attr:`config_cls` and
    implement :meth:`_init_state` and :meth:`_step`.  Registration with
    :func:`repro.registry.register_method` makes the method reachable
    from the flow, CLI, and :class:`~repro.session.Session` by name.
    """

    #: Paper column name; also the registry's canonical key.
    method_name: ClassVar[str] = "?"
    #: The dataclass this optimizer is configured with.
    config_cls: ClassVar[Optional[Type]] = None

    def __init__(
        self,
        ctx: EvalContext,
        error_bound: float,
        config: Optional[Any] = None,
    ):
        if config is None:
            if self.config_cls is None:
                raise TypeError(
                    f"{type(self).__name__} declares no config_cls; "
                    "pass a config explicitly"
                )
            config = self.config_cls()
        self.ctx = ctx
        self.error_bound = error_bound
        self.config = config
        self._evaluations = 0
        #: Cooperative-stop flag (see :meth:`request_stop`); checked at
        #: every iteration boundary of the driver loop.
        self._stop_requested = False
        #: The state of the most recent ``optimize()`` call; the session
        #: reads this back to checkpoint a paused run.
        self.last_state: Optional[OptimizerState] = None
        #: Circuits to fold into the initial population (warm starts;
        #: see ``Session.warm_start``).  Methods that build populations
        #: consume them in ``_init_state``; greedy methods ignore them.
        self.seed_circuits: List[Circuit] = []

    # ------------------------------------------------------------------
    # evaluation funnels
    # ------------------------------------------------------------------
    def _evaluate(
        self, circuit: Circuit, parents: ParentEvals = None
    ) -> CircuitEval:
        """Evaluate one candidate, cone-limited when a parent is known.

        With a valid provenance record, only the changed gates' fan-out
        cones are resimulated and retimed; results are bit-identical to
        the full path.
        """
        self._evaluations += 1
        return evaluate_incremental(self.ctx, circuit, parents)

    def _evaluate_generation(
        self, items: Sequence[Tuple[Circuit, ParentEvals]]
    ) -> List[CircuitEval]:
        """Evaluate a whole candidate generation.

        The preferred entry point of the protocol: with ``jobs > 1``
        resolved from the config (or the ``REPRO_JOBS`` environment),
        the generation is sharded across the context's worker pool;
        otherwise it goes through the in-process batch evaluator.  A
        one-candidate generation is a plain :meth:`_evaluate`.  All
        paths are bit-identical.
        """
        if len(items) <= 1:
            return [self._evaluate(c, p) for c, p in items]
        from .parallel import get_dispatcher, resolve_jobs

        jobs = resolve_jobs(config=self.config)
        if jobs > 1:
            evals = get_dispatcher(self.ctx, jobs).evaluate_items(items)
        else:
            evals = evaluate_batch(self.ctx, items)
        self._evaluations += len(items)
        return evals

    # ------------------------------------------------------------------
    # loop protocol (subclass responsibility)
    # ------------------------------------------------------------------
    @abstractmethod
    def _init_state(self) -> OptimizerState:
        """Build iteration-zero state (initial population/archive)."""

    @abstractmethod
    def _step(self, state: OptimizerState) -> Optional[IterationStats]:
        """Advance the loop by one iteration.

        Mutates ``state`` (population, best, history, iteration) and
        returns the history row it appended, or ``None`` when the
        method converged without producing one (``state.done`` set).
        """

    def _fallback_best(self, state: OptimizerState) -> CircuitEval:
        """Best-of-last-resort when no feasible candidate was archived.

        The accurate circuit itself (zero error, ratio 1.0) keeps
        downstream stages working; subclasses may override.
        """
        return self._evaluate(
            self.ctx.reference.copy(), self.ctx.reference_eval()
        )

    def _result_population(
        self, state: OptimizerState
    ) -> List[CircuitEval]:
        """What :class:`OptimizationResult` reports as the population."""
        return list(state.population)

    # ------------------------------------------------------------------
    # the shared driver
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask a running :meth:`optimize` loop to pause cooperatively.

        Safe to call from any thread (or a signal handler): the flag is
        checked at the next iteration boundary, so the loop returns a
        partial result exactly as ``stop_after`` would — ``last_state``
        holds a consistent snapshot that checkpoints and resumes
        bit-identically.  This is what Ctrl-C in the CLI and run
        eviction in ``repro serve`` are built on.
        """
        self._stop_requested = True

    def start(self) -> OptimizerState:
        """Build (but do not run) iteration-zero state."""
        self._evaluations = 0
        state = self._init_state()
        state.evaluations = self._evaluations
        return state

    def optimize(
        self,
        callbacks: Callbacks = None,
        state: Optional[OptimizerState] = None,
        stop_after: Optional[int] = None,
    ) -> OptimizationResult:
        """Run (or resume) the loop, streaming per-iteration events.

        Args:
            callbacks: a :class:`RunCallback` (or sequence of them).
            state: resume from this snapshot instead of starting fresh.
            stop_after: pause once ``state.iteration`` reaches this
                absolute count; the returned result then has
                ``completed=False`` and :attr:`last_state` holds the
                snapshot to resume from.

        Returns:
            The archived best + final population + history.  Partial
            (paused) results carry ``completed=False`` and may have
            ``best=None`` when nothing feasible was found yet.
        """
        cb = as_callback(callbacks)
        self._stop_requested = False
        # lint: allow[R4] run-metadata wall time, never feeds evaluation
        begin = time.perf_counter()
        if state is None:
            state = self.start()
        self._evaluations = state.evaluations
        self.last_state = state
        cb.on_run_start(self.method_name, state.limit, state)
        while not state.exhausted:
            if stop_after is not None and state.iteration >= stop_after:
                break
            if self._stop_requested:
                break
            stats = self._step(state)
            state.evaluations = self._evaluations
            if stats is not None:
                cb.on_iteration(
                    IterationEvent(
                        method=self.method_name,
                        iteration=state.iteration,
                        total_iterations=state.limit,
                        stats=stats,
                        best=state.best,
                        # lint: allow[R4] run-metadata wall time only
                        elapsed_s=time.perf_counter() - begin,
                    )
                )
        completed = state.exhausted
        best = state.best
        if best is None and completed:
            best = self._fallback_best(state)
            state.evaluations = self._evaluations
            state.best = best
        result = OptimizationResult(
            method=self.method_name,
            best=best,
            population=self._result_population(state),
            history=list(state.history),
            evaluations=state.evaluations,
            # lint: allow[R4] run-metadata wall time only
            runtime_s=time.perf_counter() - begin,
            completed=completed,
        )
        cb.on_run_end(result)
        return result
