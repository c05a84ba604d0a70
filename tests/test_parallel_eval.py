"""Determinism/property suite for multi-process sharded evaluation.

The contract under test: **parallel evaluation is bit-identical to
serial evaluation** — for any worker count, any shard assignment, and
every evaluation path (per-child cone walk, full fallback).  The suite
pins:

* batch equivalence — seeded random LAC generations evaluated with
  jobs=2, jobs=4 and jobs > children match the serial incremental path
  value-for-value and arrival-for-arrival;
* fallback coverage — stale-provenance children (undeclared writes)
  and mixed-parent generations (several parents + two-parent crossover
  children) take the same fallback decisions as serial and match bit
  for bit;
* run identity — a seeded DCGWO run under jobs=2 produces exactly the
  serial :class:`OptimizationResult` (fitness, error, structure keys,
  evaluation counts, history);
* reply ownership — each eval a dispatch returns belongs to the circuit
  object that was submitted, so the parent never rebuilds a population
  member's structure memos from scratch, and carries the worker's
  metrics, so the parent never re-runs its metric tail;
* crash safety — a worker that raises (poisoned cell library) surfaces
  the *original* exception from ``Session.run`` and leaves no worker
  process behind;
* plumbing — ``resolve_jobs`` precedence (arg > config > ``REPRO_JOBS``
  env > serial) and nested-pool suppression inside workers.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import subprocess
import sys
import time
import weakref

import pytest

from reference_circuits import build_adder

from repro import FlowConfig, Session
from repro.cells import Library, default_library
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    ShardDispatcher,
    applied_copy,
    circuit_reproduce,
    evaluate_batch,
    evaluate_incremental,
    is_safe,
    resolve_jobs,
)
from repro.core import parallel as parallel_mod
from repro.netlist import Circuit
from repro.netlist import circuit as circuit_mod
from repro.sim import ErrorMode, best_switch
from repro.sta import TimingIndex


NMED_CFG = FlowConfig(
    error_mode=ErrorMode.NMED,
    error_bound=0.0244,
    num_vectors=256,
    effort=0.25,
    seed=7,
)


def _ctx(circuit, library, seed=4, num_vectors=256):
    return EvalContext.build(
        circuit, library, ErrorMode.NMED, num_vectors=num_vectors, seed=seed
    )


def _lac_children(ctx, count, seed=3, circuit=None, parent=None):
    """``count`` distinct single-LAC children of ``circuit`` (default:
    the reference), derived against ``parent``'s evaluated values."""
    rng = random.Random(seed)
    parent = parent if parent is not None else ctx.reference_eval()
    circuit = circuit if circuit is not None else ctx.reference
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
        assert a.values[gid] == b.values[gid], gid


def _run_signature(result):
    return (
        result.best.fitness,
        result.best.error,
        result.best.area,
        result.best.circuit.structure_key(),
        result.evaluations,
        tuple(result.history),
        tuple(ev.circuit.structure_key() for ev in result.population),
    )


# ----------------------------------------------------------------------
# batch equivalence properties
# ----------------------------------------------------------------------
class TestParallelBatchEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4, 16])  # 16 > children
    def test_lac_generation_matches_serial(self, library, jobs):
        # Identical children are rebuilt against two identical contexts
        # (evaluation consumes provenance, so each path needs its own).
        ctx_a = _ctx(build_adder(8), library)
        ctx_b = _ctx(build_adder(8), library)
        kids_a = _lac_children(ctx_a, 8)
        kids_b = _lac_children(ctx_b, 8)
        with ShardDispatcher(ctx_a, jobs) as dispatcher:
            got = dispatcher.evaluate_items(
                [(c, ctx_a.reference_eval()) for c in kids_a]
            )
        want = evaluate_batch(
            ctx_b, [(c, ctx_b.reference_eval()) for c in kids_b]
        )
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_generations_across_parent_levels(self, library, seed):
        """Mixed parent groups: grandchildren of several L1 parents."""
        contexts = (_ctx(build_adder(8), library), _ctx(build_adder(8), library))
        per_path = []
        for ctx in contexts:
            l1 = _lac_children(ctx, 3, seed=seed)
            l1_evals = [
                evaluate_incremental(ctx, c, ctx.reference_eval())
                for c in l1
            ]
            items = []
            for k, parent_ev in enumerate(l1_evals):
                for child in _lac_children(
                    ctx,
                    2,
                    seed=seed * 17 + k,
                    circuit=parent_ev.circuit,
                    parent=parent_ev,
                ):
                    items.append((child, (parent_ev,)))
            per_path.append((ctx, items, l1_evals))
        ctx_a, items_a, _ = per_path[0]
        ctx_b, items_b, _ = per_path[1]
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(items_a)
        want = evaluate_batch(ctx_b, items_b)
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_crossover_children_match_serial(self, library):
        """Two-parent items: the matched parent drives the group."""
        ctx_a = _ctx(build_adder(8), library, seed=5)
        ctx_b = _ctx(build_adder(8), library, seed=5)
        batches = []
        for ctx in (ctx_a, ctx_b):
            evals = [
                evaluate_incremental(ctx, c, ctx.reference_eval())
                for c in _lac_children(ctx, 2, seed=11)
            ]
            child = circuit_reproduce(evals[0], evals[1], ctx)
            batches.append((child, tuple(evals)))
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items([batches[0]])[0]
        want = evaluate_incremental(ctx_b, batches[1][0], batches[1][1])
        _assert_same_eval(got, want)

    def test_stale_provenance_falls_back_to_full(self, library):
        """An undeclared write stales provenance on both paths alike."""
        ctx_a = _ctx(build_adder(6), library)
        ctx_b = _ctx(build_adder(6), library)
        staled = []
        for ctx in (ctx_a, ctx_b):
            fresh, stale = _lac_children(ctx, 2)
            gid = stale.logic_ids()[0]
            stale.fanins[gid] = stale.fanins[gid]  # undeclared write
            assert stale.valid_provenance() is None
            staled.append((fresh, stale, ctx.reference_eval()))
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            got = dispatcher.evaluate_items(
                [(c, staled[0][2]) for c in staled[0][:2]]
            )
        want = evaluate_batch(
            ctx_b, [(c, staled[1][2]) for c in staled[1][:2]]
        )
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_worker_parent_cache_persists_across_generations(self, library):
        """Generation 2 reuses generation 1's shipped/cached parents."""
        ctx_a = _ctx(build_adder(8), library)
        ctx_b = _ctx(build_adder(8), library)
        with ShardDispatcher(ctx_a, 2) as dispatcher:
            gen1_a = dispatcher.evaluate_items(
                [
                    (c, ctx_a.reference_eval())
                    for c in _lac_children(ctx_a, 4, seed=23)
                ]
            )
            items_a = []
            for k, parent_ev in enumerate(gen1_a):
                for child in _lac_children(
                    ctx_a,
                    2,
                    seed=29 + k,
                    circuit=parent_ev.circuit,
                    parent=parent_ev,
                ):
                    items_a.append((child, (parent_ev,)))
            got = dispatcher.evaluate_items(items_a)
        gen1_b = evaluate_batch(
            ctx_b,
            [
                (c, ctx_b.reference_eval())
                for c in _lac_children(ctx_b, 4, seed=23)
            ],
        )
        items_b = []
        for k, parent_ev in enumerate(gen1_b):
            for child in _lac_children(
                ctx_b,
                2,
                seed=29 + k,
                circuit=parent_ev.circuit,
                parent=parent_ev,
            ):
                items_b.append((child, (parent_ev,)))
        want = evaluate_batch(ctx_b, items_b)
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_session_evaluate_batch_jobs(self, library):
        circuit = build_adder(8)
        with Session(circuit, NMED_CFG) as session:
            kids = _lac_children(session.ctx, 5, seed=2)
            parent = session.ctx.reference_eval()
            serial = session.evaluate_batch(list(kids), parents=parent)
            parallel = session.evaluate_batch(
                list(kids), parents=parent, jobs=3
            )
        for a, b in zip(parallel, serial):
            # Same objects' evals computed twice (provenance consumed by
            # the first pass): values/fitness must still agree exactly.
            assert a.fitness == b.fitness
            assert a.error == b.error
            assert a.area == b.area


# ----------------------------------------------------------------------
# run identity
# ----------------------------------------------------------------------
class TestParallelRunIdentity:
    def test_seeded_dcgwo_serial_vs_parallel(self, library):
        from repro.core import close_dispatcher

        results = []
        # jobs=1 pins the baseline serial even when REPRO_JOBS is set
        # (jobs=0 would defer to the environment and compare parallel
        # against parallel in the REPRO_JOBS=2 CI job).
        for jobs in (1, 2):
            ctx = _ctx(build_adder(8), library)
            cfg = DCGWOConfig(
                population_size=6, imax=4, seed=11, jobs=jobs
            )
            results.append(DCGWO(ctx, 0.0244, cfg).optimize())
            close_dispatcher(ctx)
        serial, parallel = results
        assert _run_signature(serial) == _run_signature(parallel)

    def test_vaacs_generation_sharding_identity(self, library):
        from repro.baselines import VaACS
        from repro.baselines.vaacs import VaacsConfig
        from repro.core import close_dispatcher

        results = []
        for jobs in (1, 2):  # 1, not 0: keep the baseline env-proof
            ctx = _ctx(build_adder(8), library)
            cfg = VaacsConfig(
                population_size=6, generations=3, seed=5, jobs=jobs
            )
            results.append(VaACS(ctx, 0.0244, cfg).optimize())
            close_dispatcher(ctx)
        serial, parallel = results
        assert _run_signature(serial) == _run_signature(parallel)

    def test_replies_belong_to_the_submitted_circuits(self, library):
        ctx = _ctx(build_adder(8), library)
        parent = ctx.reference_eval()
        kids = _lac_children(ctx, 6, seed=5)
        with ShardDispatcher(ctx, 2) as dispatcher:
            evals = dispatcher.evaluate_items([(c, parent) for c in kids])
        for kid, ev in zip(kids, evals):
            assert ev.circuit is kid
            assert ev.report.circuit is kid
            assert kid.provenance is None  # consumed, as a serial eval does

    def test_replies_carry_their_metrics(self, library, monkeypatch):
        """The parent runs no metric tail (error, per-PO errors, area)
        on a reply: the worker's travel with it, and the rebuilt evals
        equal serial ones.  The sanitizer would re-run the tail to check
        them, so it is off here."""
        from repro.core import fitness as fitness_mod

        monkeypatch.setenv("REPRO_SANITIZE", "0")
        ctx = _ctx(build_adder(8), library)
        parent = ctx.reference_eval()
        want = evaluate_batch(
            ctx, [(c, parent) for c in _lac_children(ctx, 6, seed=5)]
        )
        tails = []
        for owner, name in (
            (fitness_mod, "measure_error"),
            (fitness_mod, "per_po_error"),
            (Circuit, "area"),
        ):

            def counted(*args, _run=getattr(owner, name), _name=name, **kw):
                tails.append(_name)
                return _run(*args, **kw)

            monkeypatch.setattr(owner, name, counted)
        kids = _lac_children(ctx, 6, seed=5)
        with ShardDispatcher(ctx, 2) as dispatcher:
            got = dispatcher.evaluate_items([(c, parent) for c in kids])
        assert tails == []
        for ours, ref in zip(got, want):
            _assert_same_eval(ours, ref)

    def test_parallel_dcgwo_rebuilds_no_population_memo(
        self, library, monkeypatch
    ):
        """The parent of a jobs=2 DCGWO run builds no digest map, live
        set or fan-out map from scratch on a circuit a dispatch returned
        an eval for: each derived them from its parent before the
        dispatch, as in a serial run.  It builds as many row indexes as
        its serial twin: a reply is rebuilt on the index its circuit
        takes from its parent."""
        from repro.core import close_dispatcher

        returned: "weakref.WeakSet[Circuit]" = weakref.WeakSet()
        dispatched = []
        dispatch = ShardDispatcher.evaluate_items

        def evaluate_items(self, items):
            evals = dispatch(self, items)
            returned.update(ev.circuit for ev in evals)
            dispatched.append(len(evals))
            return evals

        monkeypatch.setattr(ShardDispatcher, "evaluate_items", evaluate_items)
        rebuilt = []
        for name in ("_build_fanouts", "_build_live", "_build_digests"):

            def counted(self, _build=getattr(Circuit, name), _name=name):
                if self in returned:
                    rebuilt.append(_name)
                return _build(self)

            monkeypatch.setattr(Circuit, name, counted)
        # Row indexes built in this process (a forked worker appends to
        # its own copy of the list), less the from-scratch index the
        # sanitizer builds to check each derived one.
        indexes, checks = [], []
        init, verify = TimingIndex.__init__, circuit_mod.verify_derived

        def counted_index(self, *args):
            indexes.append(args)
            init(self, *args)

        def counted_check(circuit, name, derived, scratch):
            checks.append(name)
            verify(circuit, name, derived, scratch)

        monkeypatch.setattr(TimingIndex, "__init__", counted_index)
        monkeypatch.setattr(circuit_mod, "verify_derived", counted_check)
        built = {}
        for jobs in (1, 2):
            ctx = _ctx(build_adder(8), library)
            indexes.clear()
            checks.clear()
            cfg = DCGWOConfig(population_size=6, imax=4, seed=11, jobs=jobs)
            try:
                DCGWO(ctx, 0.0244, cfg).optimize()
            finally:
                close_dispatcher(ctx)
            built[jobs] = len(indexes) - checks.count("timing_index")
        assert sum(dispatched) > 6
        assert rebuilt == []
        assert built[2] == built[1], built

    def test_compare_parallel_matches_serial(self, library):
        circuit = build_adder(8)
        with Session(circuit, NMED_CFG) as serial_session:
            serial = serial_session.compare(("HEDALS", "Ours"))
        with Session(circuit, NMED_CFG) as parallel_session:
            parallel = parallel_session.compare(
                ("HEDALS", "Ours"), jobs=2
            )
        assert list(serial) == list(parallel)
        for method in serial:
            a, b = serial[method], parallel[method]
            assert a.ratio_cpd == b.ratio_cpd
            assert a.error == b.error
            assert a.area_fac == b.area_fac
            assert (
                a.circuit.structure_key() == b.circuit.structure_key()
            )

    def test_compare_rejects_callbacks_in_parallel(self, library):
        from repro.core.protocol import RunCallback

        with Session(build_adder(6), NMED_CFG) as session:
            with pytest.raises(ValueError, match="callbacks"):
                session.compare(
                    ("HEDALS", "Ours"), callbacks=RunCallback(), jobs=2
                )


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
class PoisonedLibrary(Library):
    """Behaves normally in the parent, raises in any other process."""

    def __init__(self, inner: Library):
        self.__dict__.update(inner.__dict__)
        self._home_pid = os.getpid()
        self._armed = True

    def cell(self, name):
        if self._armed and os.getpid() != self._home_pid:
            raise RuntimeError("poisoned cell library")
        return super().cell(name)


#: A pool owner that never closes its pool: prints its two worker PIDs,
#: then sleeps until killed.
_POOL_OWNER_SCRIPT = """
import time
from repro.bench import build_benchmark
from repro.cells import default_library
from repro.core import EvalContext, ShardDispatcher
from repro.sim import ErrorMode

ctx = EvalContext.build(
    build_benchmark("Adder16"), default_library(), ErrorMode.NMED,
    num_vectors=64, seed=1,
)
dispatcher = ShardDispatcher(ctx, 2)
dispatcher.warmup()
print(*(proc.pid for proc, _ in dispatcher._workers), flush=True)
time.sleep(60)
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state == "Z"


class TestCrashSafety:
    def _assert_pool_gone(self, session):
        """The session's closed pool left none of its own workers alive
        (other tests' pools may still be running)."""
        dispatcher = getattr(session.ctx, "_dispatcher", None)
        assert dispatcher is not None and dispatcher.closed
        deadline = time.monotonic() + 5.0
        for proc, _ in dispatcher._workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        alive = [proc for proc, _ in dispatcher._workers if proc.is_alive()]
        assert not alive, f"worker processes left behind: {alive}"

    def test_poisoned_library_surfaces_original_exception(self, library):
        session = Session(
            build_adder(8), NMED_CFG, library=PoisonedLibrary(library)
        )
        with pytest.raises(RuntimeError, match="poisoned cell library"):
            session.run("Ours", jobs=2)
        self._assert_pool_gone(session)

    def test_poisoned_library_in_parallel_compare(self, library):
        session = Session(
            build_adder(8), NMED_CFG, library=PoisonedLibrary(library)
        )
        with pytest.raises(RuntimeError, match="poisoned cell library"):
            session.compare(("HEDALS", "Ours"), jobs=2)
        self._assert_pool_gone(session)

    def test_dispatch_cut_short_does_not_poison_the_next(
        self, library, monkeypatch
    ):
        """An exception escaping a dispatch (an interrupt while the
        parent waits) leaves the other worker's reply in its pipe.  The
        pool is closed rather than reused, so the session's next
        parallel generation gets a fresh pool and equals serial."""
        ctx = _ctx(build_adder(8), library)
        parent = ctx.reference_eval()
        first = [(c, parent) for c in _lac_children(ctx, 6, seed=3)]
        second = [(c, parent) for c in _lac_children(ctx, 6, seed=77)]
        want = evaluate_batch(
            ctx, [(c, parent) for c in _lac_children(ctx, 6, seed=77)]
        )
        session = Session(ctx.reference, NMED_CFG, ctx=ctx)
        try:
            parallel_mod.get_dispatcher(ctx, 2).warmup()

            def cut_short(ctx, circuit, payload, fields, parents):
                raise RuntimeError("dispatch cut short")

            monkeypatch.setattr(parallel_mod, "rebuild_eval", cut_short)
            with pytest.raises(RuntimeError, match="cut short"):
                session.evaluate_batch(first, jobs=2)
            monkeypatch.undo()
            got = session.evaluate_batch(second, jobs=2)
        finally:
            session.close()
        for ours, ref in zip(got, want):
            _assert_same_eval(ours, ref)

    def test_killed_worker_respawns_and_completes(self, library):
        """Abrupt worker death (SIGKILL, OOM-kill) heals, not fails.

        Sibling workers hold inherited copies of each other's pipe fds,
        so a dead worker's pipe never reaches EOF on its own — the
        dispatcher's liveness polling detects the death, respawns the
        worker, re-plans the unmerged items, and the run completes
        bit-identically to serial (recovery re-routes, never
        re-computes differently)."""
        ctx = _ctx(build_adder(8), library)
        kids = _lac_children(ctx, 4)
        parent = ctx.reference_eval()
        serial = evaluate_batch(ctx, [(c, parent) for c in kids])
        dispatcher = ShardDispatcher(ctx, 2)
        try:
            dispatcher.warmup()
            dispatcher._workers[0][0].kill()
            evals = dispatcher.evaluate_items([(c, parent) for c in kids])
        finally:
            dispatcher.close()
        assert dispatcher.stats["respawns"] >= 1
        assert dispatcher.stats["serial_fallbacks"] == 0
        for ours, ref in zip(evals, serial):
            _assert_same_eval(ours, ref)

    def test_dropped_context_closes_its_pool(self, library):
        """A context dropped without closing its pool frees it at once:
        the dispatcher holds its context weakly, so the two are in no
        reference cycle and the workers do not wait for the cyclic
        collector."""
        ctx = _ctx(build_adder(8), library)
        dispatcher = parallel_mod.get_dispatcher(ctx, 2)
        dispatcher.warmup()
        procs = [proc for proc, _ in dispatcher._workers]
        gc.disable()
        try:
            del dispatcher, ctx
            alive = [proc for proc in procs if proc.is_alive()]
        finally:
            gc.enable()
            for proc in procs:  # do not leak what the check caught
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
        assert not alive, f"workers outlived their context: {alive}"

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    def test_workers_exit_when_owner_is_sigkilled(self):
        """An owner SIGKILLed without closing its pool leaves no
        orphans.  Each forked worker inherited its own pipe's parent
        end, so EOF never arrives; the workers must notice that their
        parent PID changed and exit."""
        package = os.path.dirname(os.path.dirname(parallel_mod.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(package), env.get("PYTHONPATH")) if p
        )
        env.pop("REPRO_FAULTS", None)
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER_SCRIPT],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            pids = [int(p) for p in owner.stdout.readline().split()]
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        alive = pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if not _gone_or_zombie(pid)]
        for pid in alive:  # do not leak the orphans this test caught
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert not alive, f"orphaned workers still running: {alive}"

    def test_pool_respawns_after_failure(self, library):
        """A crashed pool does not wedge the session: serial still works
        and a later parallel call builds a fresh pool."""
        poisoned = PoisonedLibrary(library)
        session = Session(build_adder(8), NMED_CFG, library=poisoned)
        with pytest.raises(RuntimeError, match="poisoned"):
            session.run("Ours", jobs=2)
        # Un-poison: the next worker generation inherits a clean library.
        poisoned._armed = False
        kids = _lac_children(session.ctx, 3, seed=2)
        parent = session.ctx.reference_eval()
        evals = session.evaluate_batch(list(kids), parents=parent, jobs=2)
        assert len(evals) == 3
        session.close()


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class TestJobsResolution:
    def test_explicit_beats_config_beats_env(self, monkeypatch):
        cfg = DCGWOConfig(jobs=3)
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(2, cfg) == 2
        assert resolve_jobs(None, cfg) == 3
        assert resolve_jobs(None, DCGWOConfig()) == 5
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None, DCGWOConfig()) == 1
        assert resolve_jobs(None, None) == 1

    def test_env_garbage_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        # Degrades to serial, but loudly: misconfigured CI must not
        # silently lose its parallelism.
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='many'"):
            assert resolve_jobs() == 1

    def test_workers_never_nest_pools(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_IN_WORKER", True)
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(8, DCGWOConfig(jobs=8)) == 1

    def test_jobs_override_does_not_mutate_caller_config(self, library):
        cfg = DCGWOConfig(population_size=6, imax=2, seed=3, jobs=0)
        with Session(build_adder(6), NMED_CFG) as session:
            session.optimize("Ours", config=cfg, jobs=2)
        assert cfg.jobs == 0

    def test_flow_config_jobs_reaches_method_configs(self, library):
        from repro import get_method

        ctx = _ctx(build_adder(8), library)
        cfg = FlowConfig(effort=0.2, jobs=3)
        for name in ("Ours", "VaACS", "GWO"):
            assert get_method(name).build(ctx, cfg).config.jobs == 3
        # Greedy methods evaluate one candidate at a time; they declare
        # no jobs field and parallelize only at the compare level.
        greedy = get_method("HEDALS").build(ctx, cfg)
        assert not hasattr(greedy.config, "jobs")
