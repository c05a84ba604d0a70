"""The :class:`Session` facade: one evaluation context, many runs.

A session owns everything one benchmark circuit needs — the cell
library, the :class:`~repro.core.fitness.EvalContext` (reference
simulation, STA baseline, Monte-Carlo vectors) — and exposes the whole
experimental surface of the paper behind a handful of methods:

* :meth:`Session.run` — optimizer + post-optimization, one method, the
  paper's Problem 1 flow;
* :meth:`Session.compare` — every registered method against the shared
  context (Tables II/III cells);
* :meth:`Session.optimize` — the optimization stage alone, pausable
  (``stop_after``) and resumable, streaming :class:`RunCallback`
  events per iteration;
* :meth:`Session.checkpoint` / :meth:`Session.resume` — persist a
  session (including any paused run's population, archive and RNG
  state) and continue it later **bit-identically**: the evaluation
  context is rebuilt from the same seed, so a run checkpointed at
  iteration *k* finishes with exactly the result of the uninterrupted
  run (pinned by ``tests/test_session_api.py``);
* :meth:`Session.evaluate` / :meth:`Session.evaluate_batch` — the
  protocol's evaluation entry points for embedding services that bring
  their own candidates.

Everything that evaluates a generation — ``run``, ``compare``,
``evaluate_batch`` — accepts ``jobs=`` (default: the config's ``jobs``
field, then the ``REPRO_JOBS`` environment) and shards the work across
a per-context process pool (:mod:`repro.core.parallel`); ``compare``
additionally runs whole methods concurrently.  Parallel results are
bit-identical to serial ones, so ``jobs`` is purely a throughput knob:
a run may even be checkpointed under one worker count and resumed
under another.  Use :meth:`Session.close` (or the session as a context
manager) to release the pool deterministically.

Methods are referenced by registry name ("Ours", "HEDALS", ... —
case-insensitive, aliases allowed), so third-party optimizers that
register themselves are first-class citizens of every session API.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .cells import Library, default_library
from .core.batch import BatchItem, evaluate_batch
from .core.parallel import close_dispatcher, get_dispatcher, resolve_jobs
from .core.fitness import (
    CircuitEval,
    DepthMode,
    EvalContext,
    ParentEvals,
    evaluate_incremental,
)
from .core.protocol import Callbacks, Optimizer, OptimizerState
from .core.result import OptimizationResult
from .lake import Catalog, RunRecord
from .netlist import Circuit
from .postopt import PostOptResult, post_optimize
from .registry import get_method, method_names
from .sim import ErrorMode

#: On-disk checkpoint format version (bump on layout changes); it is
#: a checkpoint file's first line, checked before anything is unpickled.
CHECKPOINT_FORMAT = 3
_CHECKPOINT_HEADER = b"repro-checkpoint %d\n" % CHECKPOINT_FORMAT


class RunInterrupted(RuntimeError):
    """A full flow run was cooperatively paused before completion.

    Raised by :meth:`Session.run` when :meth:`Session.interrupt` paused
    the optimization stage: there is no completed result to
    post-optimize, but the paused state is on the session — checkpoint
    it and resume later, or call :meth:`Session.optimize` to finish.
    """


@dataclass
class FlowConfig:
    """Knobs of one flow run.

    ``effort`` scales every optimizer's budget uniformly: 1.0 is the
    paper's setting (N=30, Imax=20 class); smaller values shrink the
    population/iteration/greedy-round budgets proportionally so sweeps
    finish in CI time while preserving relative method behaviour.
    """

    error_mode: ErrorMode = ErrorMode.ER
    error_bound: float = 0.05
    area_con: Optional[float] = None  # default: Area_ori (paper setup)
    num_vectors: int = 2048
    seed: int = 0
    wd: float = 0.8
    depth_mode: DepthMode = DepthMode.DELAY
    effort: float = 1.0
    max_sizing_moves: int = 120
    pre_synth: bool = False  # run cleanup passes on the input netlist
    #: Default worker processes for generation evaluation; 0 means
    #: serial unless ``REPRO_JOBS`` is set.  Per-call ``jobs=``
    #: arguments override this, and results never depend on it —
    #: parallel evaluation is bit-identical to serial.
    jobs: int = 0
    #: Cache directory whose run catalog records completed runs for
    #: :meth:`Session.warm_start`; ``None`` falls back to the
    #: ``REPRO_CACHE`` environment.  Evaluation never reads it, so
    #: results never depend on it.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # Each check states what must hold, so NaN is refused too.
        for holds, name, rule in (
            (self.num_vectors >= 1, "num_vectors", ">= 1"),
            (self.effort > 0, "effort", "> 0"),
            (self.error_bound >= 0, "error_bound", ">= 0"),
            (self.jobs >= 0, "jobs", ">= 0"),
        ):
            if not holds:
                raise ValueError(
                    f"{name} must be {rule}, not {getattr(self, name)!r}"
                )


@dataclass
class FlowResult:
    """Everything Tables II/III report for one (circuit, method) cell."""

    method: str
    circuit: Circuit  # the final approximate netlist, post-optimized
    cpd_ori: float
    cpd_fac: float
    area_ori: float
    area_fac: float
    error: float
    runtime_s: float
    optimization: OptimizationResult
    postopt: PostOptResult

    @property
    def ratio_cpd(self) -> float:
        """The paper's ``Ratio_cpd = CPD_fac / CPD_ori``."""
        return self.cpd_fac / self.cpd_ori


class Session:
    """Shared evaluation context + run orchestration for one circuit.

    Args:
        circuit: the accurate (post-synthesis) netlist to approximate;
            renumbered by :meth:`EvalContext.build` when ascending gate
            ID is not a topological order (:attr:`circuit` is then the
            renumbered copy).
        config: flow-level knobs; defaults to :class:`FlowConfig`.
        library: cell library; defaults to the bundled 28nm-class one.
        ctx: pass a pre-built context to reuse reference simulation
            across sessions (skips ``pre_synth`` handling).
        cache: ``False`` for no run catalog (the ``REPRO_CACHE``
            environment is then ignored too), or ``None``.
        cache_dir: record completed runs in the run catalog of this
            directory (``<dir>/catalog/``); ``config.cache_dir`` is the
            fallback, then the ``REPRO_CACHE`` environment.  The choice
            is made once, here, and :attr:`catalog` holds it.
            Evaluation never touches the directory.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: Optional[FlowConfig] = None,
        library: Optional[Library] = None,
        ctx: Optional[EvalContext] = None,
        cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
    ):
        self.config = config or FlowConfig()
        self.library = library or default_library()
        if cache is not None and cache is not False:
            raise TypeError(
                f"cache must be False or None, not {cache!r}"
            )
        #: Cache configuration persisted by :meth:`checkpoint` so
        #: :meth:`resume` makes the same catalog decision: an explicit
        #: directory, or ``False`` for ``cache=False`` (a directory
        #: from ``REPRO_CACHE`` travels with the environment, not the
        #: checkpoint).
        self._cache_spec: Optional[Dict[str, Any]] = None
        if cache is False:
            self._cache_spec = {"cache_dir": False}
            directory = ""
        elif cache_dir or self.config.cache_dir:
            directory = os.path.abspath(cache_dir or self.config.cache_dir)
            self._cache_spec = {"cache_dir": directory}
        else:
            directory = os.environ.get("REPRO_CACHE", "").strip()
        #: The run catalog completed runs are recorded in and
        #: :meth:`warm_start` reads, or ``None``.
        self.catalog: Optional[Catalog] = (
            Catalog(os.path.join(os.path.abspath(directory), "catalog"))
            if directory else None
        )
        if ctx is None:
            if self.config.pre_synth:
                from .synth import optimize_netlist

                circuit = circuit.copy()
                optimize_netlist(circuit)
            ctx = EvalContext.build(
                circuit,
                self.library,
                self.config.error_mode,
                num_vectors=self.config.num_vectors,
                seed=self.config.seed,
                wd=self.config.wd,
                depth_mode=self.config.depth_mode,
            )
        self.ctx = ctx
        #: Paused optimizer runs by canonical method name.
        self._pending: Dict[str, Tuple[Optimizer, OptimizerState]] = {}
        #: The optimizer currently inside :meth:`optimize`, if any —
        #: what :meth:`interrupt` signals.  Written only by the thread
        #: running the optimization; read from any thread.
        self._active: Optional[Optimizer] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def circuit(self) -> Circuit:
        """The accurate reference circuit the context was built on."""
        return self.ctx.reference

    @staticmethod
    def methods() -> Tuple[str, ...]:
        """Registered method names in paper column order."""
        return method_names()

    def pending_methods(self) -> Tuple[str, ...]:
        """Methods with a paused (checkpointable) run on this session."""
        return tuple(sorted(self._pending))

    # ------------------------------------------------------------------
    # evaluation entry points
    # ------------------------------------------------------------------
    def evaluate(
        self, circuit: Circuit, parents: ParentEvals = None
    ) -> CircuitEval:
        """Evaluate one candidate (cone-limited when provenance allows)."""
        return evaluate_incremental(self.ctx, circuit, parents)

    def evaluate_batch(
        self,
        circuits: Sequence[Union[Circuit, BatchItem]],
        parents: ParentEvals = None,
        jobs: Optional[int] = None,
    ) -> List[CircuitEval]:
        """Evaluate a whole candidate generation with shared work.

        ``circuits`` may be bare :class:`Circuit` objects (``parents``
        then applies to all of them) or ``(circuit, parents)`` pairs.
        With ``jobs > 1`` (falling back to ``config.jobs``, then the
        ``REPRO_JOBS`` environment) the generation is sharded across
        the session's worker pool.  Results are bit-identical to
        sequential incremental evaluation either way.
        """
        items: List[BatchItem] = []
        for entry in circuits:
            if isinstance(entry, Circuit):
                items.append((entry, parents))
            else:
                items.append(entry)
        n = resolve_jobs(jobs, self.config)
        if n > 1 and len(items) > 1:
            return get_dispatcher(self.ctx, n).evaluate_items(items)
        return evaluate_batch(self.ctx, items)

    # ------------------------------------------------------------------
    # running methods
    # ------------------------------------------------------------------
    def optimizer(
        self, method: str, config: Optional[Any] = None
    ) -> Optimizer:
        """Instantiate a registered method against this session."""
        return get_method(method).build(self.ctx, self.config, config)

    def optimize(
        self,
        method: str = "Ours",
        callbacks: Callbacks = None,
        stop_after: Optional[int] = None,
        config: Optional[Any] = None,
        jobs: Optional[int] = None,
        seeds: Optional[Sequence[Circuit]] = None,
    ) -> OptimizationResult:
        """Run (or continue) one method's optimization stage.

        With ``stop_after=k`` the run pauses once iteration *k*
        completes and returns a partial result (``completed=False``);
        the paused state stays on the session, so a later call —
        possibly after :meth:`checkpoint` / :meth:`resume` — continues
        it bit-identically.  ``jobs`` overrides the method config's
        worker count for this (and any continued) run; because parallel
        evaluation is bit-identical to serial, a run may be paused
        under one ``jobs`` value and resumed under another without
        changing a single bit of the result.

        ``seeds`` (typically :meth:`warm_start` output) are folded into
        a fresh run's initial population by methods that support it.
        Seeding deliberately changes the search trajectory, so it is
        opt-in per call and ignored when continuing a paused run (the
        paused population already exists).  A seed must carry the
        reference circuit's gate-ID set — crossover and the cone walk
        rely on it — or ``ValueError`` is raised.
        """
        reference = self.ctx.reference
        for seed in seeds or ():
            if seed.fanins.keys() != reference.fanins.keys():
                raise ValueError(
                    "seed circuit's gate-ID set differs from the "
                    "reference circuit's"
                )
        key = get_method(method).name
        pending = self._pending.pop(key, None)
        if pending is not None:
            optimizer, state = pending
        else:
            optimizer = self.optimizer(method, config)
            state = None
            if seeds:
                optimizer.seed_circuits = list(seeds)
        if jobs is not None and hasattr(optimizer.config, "jobs"):
            # Replace, don't mutate: the config may be the caller's
            # object (or a checkpointed one) and a per-call override
            # must not leak into their later runs.
            optimizer.config = dataclasses.replace(
                optimizer.config, jobs=jobs
            )
        self._active = optimizer
        try:
            result = optimizer.optimize(
                callbacks=callbacks, state=state, stop_after=stop_after
            )
        finally:
            self._active = None
        if not result.completed and optimizer.last_state is not None:
            self._pending[key] = (optimizer, optimizer.last_state)
        return result

    def interrupt(self) -> bool:
        """Request a cooperative pause of the optimization in flight.

        Safe from any thread or signal handler: sets the running
        optimizer's stop flag, so :meth:`optimize` returns a partial
        (``completed=False``) result at the next iteration boundary and
        the paused state lands on the session — ready to
        :meth:`checkpoint`.  Returns ``False`` when no optimization is
        currently running (nothing to interrupt).  The CLI's Ctrl-C
        handling and ``repro serve``'s run eviction both use this.
        """
        optimizer = self._active
        if optimizer is None:
            return False
        optimizer.request_stop()
        return True

    def run(
        self,
        method: str = "Ours",
        callbacks: Callbacks = None,
        config: Optional[Any] = None,
        optimization: Optional[OptimizationResult] = None,
        jobs: Optional[int] = None,
    ) -> FlowResult:
        """Optimizer + post-optimization: one Problem 1 flow run.

        Continues a paused run of ``method`` when one exists.  Pass a
        completed ``optimization`` result (e.g. from an earlier
        :meth:`optimize` call) to post-optimize it without re-running
        the optimizer.  The final circuit is post-optimized under the
        area constraint exactly as the paper prescribes ("all final
        generated circuits experience post-optimization under
        ``Area_con``").
        """
        cfg = self.config
        start = time.perf_counter()
        if optimization is not None:
            if not optimization.completed:
                raise ValueError(
                    "cannot post-optimize a paused optimization result; "
                    "finish it with optimize() first"
                )
            opt_result = optimization
        else:
            opt_result = self.optimize(
                method, callbacks=callbacks, config=config, jobs=jobs
            )
            if not opt_result.completed:
                # interrupt() paused the stage mid-run; the state is in
                # _pending, so the caller can checkpoint and resume.
                raise RunInterrupted(
                    f"optimization of {get_method(method).name!r} was "
                    "interrupted before completion; checkpoint the "
                    "session to keep the paused progress"
                )
        area_con = (
            cfg.area_con if cfg.area_con is not None else self.ctx.area_ori
        )
        post = post_optimize(
            opt_result.best.circuit,
            self.library,
            area_con,
            sta=self.ctx.sta,
            max_moves=cfg.max_sizing_moves,
        )
        self._record_run(get_method(method).name, opt_result)
        return FlowResult(
            method=get_method(method).name,
            circuit=post.circuit,
            cpd_ori=self.ctx.cpd_ori,
            cpd_fac=post.cpd_after,
            area_ori=self.ctx.area_ori,
            area_fac=post.circuit.area(self.library),
            error=opt_result.best.error,
            runtime_s=time.perf_counter() - start,
            optimization=opt_result,
            postopt=post,
        )

    def compare(
        self,
        methods: Optional[Sequence[str]] = None,
        callbacks: Callbacks = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, FlowResult]:
        """Run several methods against the one shared context.

        With ``jobs > 1`` whole methods run concurrently, one per
        worker process (each worker owns a cloned context), and results
        are returned in the requested method order — bit-identical to
        the serial sweep because every method's run is independently
        seeded.  The returned runs are recorded in this session's run
        catalog, in method order, as the serial sweep records them.
        Callbacks cannot stream across process boundaries, so
        combining them with a parallel compare is rejected.
        """
        chosen = tuple(methods) if methods is not None else self.methods()
        # Canonicalize before dispatch so the result keys match the
        # serial path's (which keys by the requested name).
        n = resolve_jobs(jobs, self.config)
        has_pending = any(
            get_method(m).name in self._pending for m in chosen
        )
        if n > 1 and len(chosen) > 1 and not has_pending:
            if callbacks is not None:
                raise ValueError(
                    "callbacks cannot stream from worker processes; "
                    "run compare() with jobs=1 to observe iterations"
                )
            dispatcher = get_dispatcher(self.ctx, min(n, len(chosen)))
            results = dispatcher.run_methods(chosen, self.config)
            for result in results.values():
                self._record_run(result.method, result.optimization)
            return results
        # Paused runs continue in-process (their state lives here), so
        # a compare touching one falls back to the serial method sweep;
        # jobs still reaches each run's generation evaluation.
        return {
            method: self.run(method, callbacks=callbacks, jobs=jobs)
            for method in chosen
        }

    # ------------------------------------------------------------------
    # the run catalog / warm starts
    # ------------------------------------------------------------------
    def _record_run(
        self, method: str, opt_result: OptimizationResult
    ) -> None:
        """Add a completed run's Pareto front to the run catalog; a
        failed write warns and the run goes on."""
        if self.catalog is None or not opt_result.completed:
            return
        evals = list(opt_result.population)
        best = opt_result.best
        if best is not None and all(ev is not best for ev in evals):
            evals.append(best)
        feasible = [
            ev for ev in evals if ev.error <= self.config.error_bound
        ]
        if not feasible:
            return
        from .core.pareto import non_dominated_sort

        fronts = non_dominated_sort([(ev.fd, ev.fa) for ev in feasible])
        chosen = [feasible[i] for i in fronts[0]][:16] if fronts else []
        if not chosen:
            return
        record = RunRecord(
            reference_key=self.ctx.reference.full_structure_key(),
            method=method,
            error_mode=self.config.error_mode.value,
            error_bound=self.config.error_bound,
            seed=self.config.seed,
            created_at=time.time(),
            front=[
                (
                    ev.circuit,
                    {
                        "fitness": ev.fitness,
                        "fd": ev.fd,
                        "fa": ev.fa,
                        "error": ev.error,
                        "area": ev.area,
                        "depth": ev.depth,
                    },
                )
                for ev in chosen
            ],
            config_summary={
                "effort": self.config.effort,
                "num_vectors": self.config.num_vectors,
                "wd": self.config.wd,
            },
        )
        try:
            self.catalog.add(record)
        except OSError as exc:
            warnings.warn(
                f"run catalog: could not record run ({exc})",
                RuntimeWarning,
            )

    def warm_start(
        self,
        method: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Circuit]:
        """Seed circuits from past runs of this circuit family.

        Queries the run catalog for runs whose reference circuit has
        this session's structure key and returns their Pareto-front
        circuits, newest run first, deduplicated by full structure.
        Hand the result to ``optimize(seeds=...)`` to fold it into the
        initial population.  Empty when the session has no catalog or
        no prior run matches.

        Args:
            method: restrict to fronts recorded by one method.
            limit: maximum number of circuits to return.
        """
        if self.catalog is None:
            return []
        ref_key = self.ctx.reference.full_structure_key()
        out: List[Circuit] = []
        seen: set = set()
        for record in self.catalog.runs(
            reference_key=ref_key, method=method
        ):
            for circuit, _metrics in record.front:
                key = circuit.full_structure_key()
                if key in seen:
                    continue
                seen.add(key)
                out.append(circuit)
                if limit is not None and len(out) >= limit:
                    return out
        return out

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Persist this session (and any paused runs) to ``path``.

        The evaluation context itself is *not* serialized: it is fully
        determined by (circuit, library, config seed/vectors/mode) and
        is rebuilt bit-identically on :meth:`resume`.  What is stored:
        the reference circuit, the flow config, the library, per paused
        run its method config plus the whole :class:`OptimizerState` —
        population, archive, history and the exact RNG state — and the
        cache configuration, so a resumed session records into the same
        run catalog.  The file is written beside ``path`` and renamed
        onto it, so a failed write leaves the previous checkpoint as it
        was.
        """
        pending = {
            key: (optimizer.config, state)
            for key, (optimizer, state) in self._pending.items()
        }
        payload = {
            "circuit": self.ctx.reference,
            "config": self.config,
            "library": self.library,
            "pending": pending,
            "cache": self._cache_spec,
        }
        tmp = f"{path}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
        try:
            with open(tmp, "wb") as f:
                f.write(_CHECKPOINT_HEADER)
                pickle.dump(payload, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def resume(cls, path: str) -> "Session":
        """Rebuild a session (and its paused runs) from a checkpoint;
        ``ValueError`` for another format, before unpickling anything."""
        with open(path, "rb") as f:
            header = f.readline(len(_CHECKPOINT_HEADER))
            if header != _CHECKPOINT_HEADER:
                raise ValueError(
                    f"unsupported checkpoint format: first line "
                    f"{header!r}, expected {_CHECKPOINT_HEADER!r}"
                )
            payload = pickle.load(f)
        config: FlowConfig = payload["config"]
        circuit: Circuit = payload["circuit"]
        library: Library = payload["library"]
        # The stored circuit already went through pre_synth (when
        # enabled), so the context is rebuilt directly from it.  The
        # session reattaches the run catalog the checkpointed session
        # used, or none when it was built with ``cache=False``.
        ctx = EvalContext.build(
            circuit,
            library,
            config.error_mode,
            num_vectors=config.num_vectors,
            seed=config.seed,
            wd=config.wd,
            depth_mode=config.depth_mode,
        )
        cache_dir = (payload.get("cache") or {}).get("cache_dir")
        session = cls(
            circuit, config=config, library=library, ctx=ctx,
            cache=False if cache_dir is False else None,
            cache_dir=cache_dir or None,
        )
        for key, (method_config, state) in payload["pending"].items():
            optimizer = get_method(key).build(
                ctx, config, config=method_config
            )
            session._pending[key] = (optimizer, state)
        return session

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def fault_stats(self) -> Dict[str, int]:
        """Recovery counters of the session's shard pool, if one exists.

        A copy of :attr:`ShardDispatcher.stats` (``respawns`` /
        ``retries`` / ``timeouts`` / ``replays`` /
        ``serial_fallbacks``), or ``{}`` for a serial session.  The
        chaos CI job publishes these to its summary; all-zero under an
        armed fault schedule means the schedule never actually fired.
        """
        dispatcher = getattr(self.ctx, "_dispatcher", None)
        if dispatcher is None:
            return {}
        return dict(dispatcher.stats)

    def close(self) -> None:
        """Release the session's external resources deterministically.

        Shuts down the parallel worker pool (if ``jobs > 1`` ever
        spawned one), so an interrupted or erroring run still tears down
        cleanly — every CLI and serve-mode code path runs this in a
        ``try/finally``.  Serial sessions hold no external resources,
        so this is then a no-op.  The session stays usable — the pool
        respawns on the next parallel call.
        """
        close_dispatcher(self.ctx)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
