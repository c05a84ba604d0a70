"""The PR-2 API surface: registry, session, callbacks, checkpoint, batch.

Four contracts are pinned here:

* **registry round-trip** — register a third-party optimizer, look it
  up (case-insensitively, via aliases), run it through a session, and
  unregister it, all without touching ``flow.py``;
* **checkpoint/resume bit-identity** — a seeded DCGWO run paused at
  iteration *k*, checkpointed to disk, and resumed in a fresh session
  produces exactly the uninterrupted run's result;
* **callback event ordering** — one ``on_run_start``, strictly
  increasing ``on_iteration``s, one ``on_run_end``, per optimize call;
* **batched generation evaluation** — ``evaluate_batch`` is
  bit-identical to the sequential incremental path (LAC children,
  crossover children, the width-64 bench, and a full seeded DCGWO run
  with batching on vs. off).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from eval_oracle import assert_matches_full_evaluation
from reference_circuits import build_adder

from repro import (
    FlowConfig,
    Session,
    get_method,
    method_names,
    register_method,
)
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    Optimizer,
    OptimizerState,
    RunCallback,
    applied_copy,
    circuit_reproduce,
    evaluate_batch,
    evaluate_incremental,
    is_safe,
)
from repro.core.result import IterationStats
from repro.registry import CommonBudget, unregister_method
from repro.sim import ErrorMode, best_switch
from repro.baselines import HedalsLike, SingleChaseGWO, VaACS, VecbeeSasimi


NMED_CFG = FlowConfig(
    error_mode=ErrorMode.NMED,
    error_bound=0.0244,
    num_vectors=256,
    effort=0.25,
    seed=7,
)


@pytest.fixture(scope="module")
def adder8():
    return build_adder(8)


@pytest.fixture()
def session(adder8):
    return Session(adder8, NMED_CFG)


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
    while len(children) < count:
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


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass
class ToyConfig:
    rounds: int = 2
    seed: int = 0


class ToyOptimizer(Optimizer):
    """Minimal protocol citizen: re-evaluates the reference each round."""

    method_name = "Toy"
    config_cls = ToyConfig

    def _init_state(self) -> OptimizerState:
        state = OptimizerState(
            limit=self.config.rounds, rng=random.Random(self.config.seed)
        )
        state.best = self._evaluate(
            self.ctx.reference.copy(), self.ctx.reference_eval()
        )
        state.population = [state.best]
        return state

    def _step(self, state: OptimizerState) -> IterationStats:
        state.iteration += 1
        best = state.best
        stats = IterationStats(
            iteration=state.iteration,
            best_fitness=best.fitness,
            best_fd=best.fd,
            best_fa=best.fa,
            best_error=best.error,
            error_constraint=self.error_bound,
            evaluations=self._evaluations,
        )
        state.history.append(stats)
        return stats


@pytest.fixture()
def toy_method():
    decorated = register_method(
        "toy-greedy",
        aliases=("toy",),
        description="test-only optimizer",
    )(ToyOptimizer)
    yield decorated
    unregister_method("toy-greedy")


class TestRegistry:
    def test_builtins_registered_in_paper_order(self):
        assert method_names() == (
            "VECBEE-S", "VaACS", "HEDALS", "GWO", "Ours",
        )

    def test_lookup_case_insensitive_and_aliased(self):
        assert get_method("ours").cls is DCGWO
        assert get_method("DCGWO").cls is DCGWO
        assert get_method("hedals").cls is HedalsLike
        assert get_method("sasimi").cls is VecbeeSasimi

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_method("Bogus")

    def test_round_trip_register_lookup_run(self, toy_method, session):
        spec = get_method("TOY")  # alias, case-insensitive
        assert spec.cls is toy_method
        result = session.optimize("toy-greedy")
        assert result.method == "Toy"
        assert result.completed
        assert len(result.history) == 2
        assert result.best.error == 0.0  # the reference itself

    def test_unregister_removes_aliases(self, toy_method):
        unregister_method("toy")
        with pytest.raises(ValueError):
            get_method("toy-greedy")
        # Re-register so the fixture teardown's unregister still works.
        register_method("toy-greedy", aliases=("toy",))(ToyOptimizer)

    def test_conflicting_registration_rejected(self, toy_method):
        with pytest.raises(ValueError, match="already registered"):
            register_method("toy-greedy")(HedalsLike)

    def test_make_optimizer_is_registry_lookup(self, adder8, library):
        ctx = _ctx(adder8, library)
        cfg = FlowConfig(effort=0.2, error_bound=0.0244)
        for name, cls in (
            ("Ours", DCGWO),
            ("GWO", SingleChaseGWO),
            ("HEDALS", HedalsLike),
            ("VaACS", VaACS),
            ("VECBEE-S", VecbeeSasimi),
        ):
            assert type(get_method(name).build(ctx, cfg)) is cls
        with pytest.raises(ValueError):
            get_method("Bogus").build(ctx, cfg)

    def test_common_budget_scaling_floors(self):
        scaled = CommonBudget().scaled(0.2)
        assert scaled.population_size == 6
        assert scaled.iterations == 4
        assert scaled.max_changes == 12
        assert scaled.beam == 8  # never below the historical floor
        full = CommonBudget().scaled(1.0)
        assert (full.population_size, full.iterations) == (30, 20)

    def test_budget_fields_reach_configs(self, adder8, library):
        ctx = _ctx(adder8, library)
        cfg = FlowConfig(effort=0.2, seed=9, wd=0.7)
        ours = get_method("Ours").build(ctx, cfg)
        assert ours.config.population_size == 6
        assert ours.config.imax == 4
        assert ours.config.seed == 9
        greedy = get_method("HEDALS").build(ctx, cfg)
        assert greedy.config.max_changes == 12
        assert greedy.config.beam == 8
        # HEDALS draws no random numbers: it declares no seed to forward.
        assert not hasattr(greedy.config, "seed")
        # The Eq. 8 weight reaches a method through the session's context.
        session = Session(adder8, cfg, cache=False)
        assert session.optimizer("Ours").ctx.wd == 0.7


# ----------------------------------------------------------------------
# callbacks
# ----------------------------------------------------------------------
class RecordingCallback(RunCallback):
    def __init__(self):
        self.events = []

    def on_run_start(self, method, total_iterations, state):
        self.events.append(("start", method, total_iterations))

    def on_iteration(self, event):
        self.events.append(("iter", event.iteration, event.stats))

    def on_run_end(self, result):
        self.events.append(("end", result.completed))


class TestCallbacks:
    def test_event_ordering(self, session):
        cb = RecordingCallback()
        result = session.optimize("Ours", callbacks=cb)
        kinds = [e[0] for e in cb.events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert kinds.count("start") == 1 and kinds.count("end") == 1
        iters = [e[1] for e in cb.events if e[0] == "iter"]
        assert iters == list(range(1, len(iters) + 1))
        assert len(iters) == len(result.history)
        assert cb.events[-1] == ("end", True)

    def test_iteration_events_carry_history_rows(self, session):
        cb = RecordingCallback()
        result = session.optimize("Ours", callbacks=cb)
        rows = [e[2] for e in cb.events if e[0] == "iter"]
        assert rows == result.history

    def test_paused_and_resumed_runs_emit_own_sequences(self, session):
        cb1 = RecordingCallback()
        partial = session.optimize("Ours", callbacks=cb1, stop_after=2)
        assert not partial.completed
        assert cb1.events[-1] == ("end", False)
        assert [e[1] for e in cb1.events if e[0] == "iter"] == [1, 2]
        total = cb1.events[0][2]
        cb2 = RecordingCallback()
        final = session.optimize("Ours", callbacks=cb2)
        assert final.completed
        assert cb2.events[0][0] == "start"
        assert [e[1] for e in cb2.events if e[0] == "iter"] == list(
            range(3, total + 1)
        )

    def test_callbacks_reach_greedy_methods(self, session):
        cb = RecordingCallback()
        session.optimize("VECBEE-S", callbacks=cb)
        assert cb.events[0][0] == "start"
        assert cb.events[-1] == ("end", True)


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    @staticmethod
    def _signature(result):
        return (
            result.best.fitness,
            result.best.error,
            result.best.area,
            result.best.circuit.structure_key(),
            result.evaluations,
            tuple(result.history),
            tuple(
                ev.circuit.structure_key() for ev in result.population
            ),
        )

    @pytest.mark.parametrize("pause_at", [1, 2, 3])
    def test_seeded_dcgwo_bit_identical(self, adder8, tmp_path, pause_at):
        baseline = Session(adder8, NMED_CFG).optimize("Ours")

        paused = Session(adder8, NMED_CFG)
        partial = paused.optimize("Ours", stop_after=pause_at)
        assert not partial.completed
        assert partial.history == baseline.history[:pause_at]
        path = tmp_path / "run.ckpt"
        paused.checkpoint(str(path))

        resumed_session = Session.resume(str(path))
        assert resumed_session.pending_methods() == ("Ours",)
        resumed = resumed_session.optimize("Ours")
        assert resumed.completed
        assert self._signature(resumed) == self._signature(baseline)

    @pytest.mark.parametrize("resume_jobs", [2, 4])
    def test_resume_with_different_jobs_bit_identical(
        self, adder8, tmp_path, resume_jobs
    ):
        """A run paused serially and resumed under another worker count
        still matches the uninterrupted serial run bit-for-bit —
        ``jobs`` is a pure throughput knob, never a result knob."""
        baseline = Session(adder8, NMED_CFG).optimize("Ours")

        paused = Session(adder8, NMED_CFG)
        partial = paused.optimize("Ours", stop_after=2)
        assert not partial.completed
        path = tmp_path / "run.ckpt"
        paused.checkpoint(str(path))

        resumed_session = Session.resume(str(path))
        resumed = resumed_session.optimize("Ours", jobs=resume_jobs)
        resumed_session.close()
        assert resumed.completed
        assert self._signature(resumed) == self._signature(baseline)

    def test_pause_parallel_resume_serial_bit_identical(self, adder8, tmp_path):
        """The mirror image: pause a *parallel* run, finish serially."""
        baseline = Session(adder8, NMED_CFG).optimize("Ours")

        paused = Session(adder8, NMED_CFG)
        partial = paused.optimize("Ours", stop_after=1, jobs=2)
        assert not partial.completed
        path = tmp_path / "run.ckpt"
        paused.checkpoint(str(path))
        paused.close()

        resumed_session = Session.resume(str(path))
        resumed = resumed_session.optimize("Ours", jobs=1)
        assert resumed.completed
        assert self._signature(resumed) == self._signature(baseline)

    def test_in_process_pause_resume_identity(self, adder8):
        baseline = Session(adder8, NMED_CFG).optimize("Ours")
        s = Session(adder8, NMED_CFG)
        s.optimize("Ours", stop_after=1)
        s.optimize("Ours", stop_after=3)
        final = s.optimize("Ours")
        assert self._signature(final) == self._signature(baseline)

    def test_run_finishes_paused_optimization(self, adder8):
        s = Session(adder8, NMED_CFG)
        s.optimize("Ours", stop_after=2)
        flow_result = s.run("Ours")
        assert flow_result.optimization.completed
        assert s.pending_methods() == ()

    def test_checkpoint_without_pending_runs(self, adder8, tmp_path):
        s = Session(adder8, NMED_CFG)
        path = tmp_path / "empty.ckpt"
        s.checkpoint(str(path))
        restored = Session.resume(str(path))
        assert restored.pending_methods() == ()
        assert (
            restored.circuit.structure_key()
            == s.circuit.structure_key()
        )

    def test_bad_format_rejected(self, adder8, tmp_path):
        import pickle

        path = tmp_path / "bad.ckpt"
        path.write_bytes(pickle.dumps({"format": 999}))
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            Session.resume(str(path))

    def test_old_format_rejected_before_unpickling(self, tmp_path):
        """A checkpoint of another format is refused on its first line,
        before its body can name what this version no longer has."""
        import pickle

        # A pickle naming an attribute repro does not have, as format
        # 1 names the ValueStore unpickling hook that format 2 dropped.
        body = b"crepro.sim.store\n_no_such_attribute\n."
        with pytest.raises(AttributeError):
            pickle.loads(body)
        path = tmp_path / "old.ckpt"
        path.write_bytes(body)
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            Session.resume(str(path))

    def test_format_2_refused_before_unpickling(self, tmp_path, monkeypatch):
        """A format-2 checkpoint (whose evals carry a value matrix, not
        int rows) is refused on its first line: its body is never
        unpickled."""
        import pickle

        path = tmp_path / "v2.ckpt"
        path.write_bytes(b"repro-checkpoint 2\n" + pickle.dumps({}))
        loaded = []
        monkeypatch.setattr(
            pickle, "load", lambda *a, **k: loaded.append(a) or {}
        )
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            Session.resume(str(path))
        assert loaded == []

    def test_failed_write_keeps_previous_checkpoint(
        self, adder8, tmp_path, monkeypatch
    ):
        import errno
        import os
        import pickle

        s = Session(adder8, NMED_CFG)
        s.optimize("Ours", stop_after=1)
        path = tmp_path / "run.ckpt"
        s.checkpoint(str(path))
        before = path.read_bytes()
        s.optimize("Ours", stop_after=2)

        def disk_full(obj, f, *args, **kwargs):
            f.write(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pickle, "dump", disk_full)
        with pytest.raises(OSError):
            s.checkpoint(str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["run.ckpt"]  # no temporary left
        resumed = Session.resume(str(path))
        assert resumed.pending_methods() == ("Ours",)


# ----------------------------------------------------------------------
# batched generation evaluation
# ----------------------------------------------------------------------
class TestEvaluateBatch:
    def test_lac_generation_matches_sequential(self, library):
        # Identical children are rebuilt against two identical contexts
        # (evaluation consumes provenance, so each path gets its own).
        ctx_a = _ctx(build_adder(8), library)
        ctx_b = _ctx(build_adder(8), library)
        kids_a = _lac_children(ctx_a, 8)
        kids_b = _lac_children(ctx_b, 8)
        got = evaluate_batch(
            ctx_a, [(c, ctx_a.reference_eval()) for c in kids_a]
        )
        want = [
            evaluate_incremental(ctx_b, c, ctx_b.reference_eval())
            for c in kids_b
        ]
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_crossover_children_match_sequential(self, library):
        ctx_a = _ctx(build_adder(8), library, seed=5)
        ctx_b = _ctx(build_adder(8), library, seed=5)
        evals_a, evals_b = [], []
        for ctx, evals in ((ctx_a, evals_a), (ctx_b, evals_b)):
            for child in _lac_children(ctx, 2, seed=11):
                evals.append(
                    evaluate_incremental(ctx, child, ctx.reference_eval())
                )
        child_a = circuit_reproduce(evals_a[0], evals_a[1], ctx_a)
        child_b = circuit_reproduce(evals_b[0], evals_b[1], ctx_b)
        assert child_a.structure_key() == child_b.structure_key()
        got = evaluate_batch(ctx_a, [(child_a, tuple(evals_a))])[0]
        want = evaluate_incremental(ctx_b, child_b, tuple(evals_b))
        _assert_same_eval(got, want)

    def test_width64_bench_matches_sequential(self, library):
        """The acceptance pin: width-64 bench, batch == incremental."""
        ctx_a = _ctx(build_adder(64), library, num_vectors=128)
        ctx_b = _ctx(build_adder(64), library, num_vectors=128)
        kids_a = _lac_children(ctx_a, 6, seed=13)
        kids_b = _lac_children(ctx_b, 6, seed=13)
        got = evaluate_batch(
            ctx_a, [(c, ctx_a.reference_eval()) for c in kids_a]
        )
        want = [
            evaluate_incremental(ctx_b, c, ctx_b.reference_eval())
            for c in kids_b
        ]
        for a, b in zip(got, want):
            _assert_same_eval(a, b)

    def test_unmatched_parent_falls_back_to_full(self, library):
        ctx = _ctx(build_adder(6), library)
        child = _lac_children(ctx, 1)[0]
        child.fanins[child.logic_ids()[0]] = child.fanins[
            child.logic_ids()[0]
        ]  # undeclared write stales the provenance
        assert child.valid_provenance() is None
        got = evaluate_batch(ctx, [(child, ctx.reference_eval())])[0]
        ctx2 = _ctx(build_adder(6), library)
        kid2 = _lac_children(ctx2, 1)[0]
        kid2.fanins[kid2.logic_ids()[0]] = kid2.fanins[kid2.logic_ids()[0]]
        from repro.core import evaluate

        want = evaluate(ctx2, kid2)
        _assert_same_eval(got, want)

    def test_dcgwo_run_identical_with_and_without_batch(self, library):
        """Batched generations vs. the full-evaluation oracle."""
        circuit = build_adder(8)

        def build():
            cfg = DCGWOConfig(population_size=6, imax=4, seed=11)
            return DCGWO(_ctx(circuit, library), 0.0244, cfg)

        assert_matches_full_evaluation(build)

    def test_session_evaluate_batch_accepts_bare_circuits(self, session):
        kids = _lac_children(session.ctx, 3, seed=2)
        parent = session.ctx.reference_eval()
        evals = session.evaluate_batch(kids, parents=parent)
        assert len(evals) == 3
        for ev in evals:
            assert ev.error >= 0.0


# ----------------------------------------------------------------------
# session facade
# ----------------------------------------------------------------------
class TestSessionFacade:
    def test_compare_shares_context(self, adder8):
        session = Session(adder8, NMED_CFG)
        results = session.compare(("HEDALS", "Ours"))
        assert set(results) == {"HEDALS", "Ours"}
        for res in results.values():
            assert res.ratio_cpd <= 1.0
            assert res.error <= NMED_CFG.error_bound

    def test_methods_listing(self):
        assert Session.methods() == method_names()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_vectors", 0),
            ("num_vectors", -5),
            ("effort", 0.0),
            ("effort", -1.0),
            ("effort", float("nan")),
            ("error_bound", -0.1),
            ("error_bound", float("nan")),
            ("jobs", -3),
        ],
    )
    def test_flow_config_refuses_invalid_settings(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            FlowConfig(**{field: value})

    def test_flow_config_accepts_the_boundaries(self):
        cfg = FlowConfig(num_vectors=1, error_bound=0.0, jobs=0)
        assert cfg.effort == 1.0
        assert FlowConfig(effort=1e-9).effort == 1e-9

    def test_seed_with_diverged_gate_id_set_rejected(self, adder8):
        """Warm-start seeds must share the reference's gate-ID set."""
        from repro.netlist import CONST0, remove_dangling

        session = Session(adder8, NMED_CFG)
        pruned = applied_copy(
            session.circuit, LAC(session.circuit.logic_ids()[-1], CONST0)
        )
        assert remove_dangling(pruned)
        assert pruned.po_ids == session.circuit.po_ids
        with pytest.raises(ValueError, match="gate-ID set"):
            session.optimize("Ours", seeds=[pruned])
        ok = applied_copy(
            session.circuit, LAC(session.circuit.logic_ids()[-1], CONST0)
        )
        result = session.optimize("Ours", seeds=[ok], stop_after=1)
        assert result.evaluations > 0
        session.close()
