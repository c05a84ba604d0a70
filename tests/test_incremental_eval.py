"""Incremental-evaluation engine: equivalence, caching, provenance.

The engine's contract is that cone-limited re-evaluation is *bit
identical* to evaluating from scratch.  These tests pin that with
property-style random LAC/simplification/reproduction sequences, plus
regression tests for the structural cache invalidation, the stable
``structure_key`` digest, and the ``remove_gate`` reference guard.
"""

from __future__ import annotations

import gc
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from eval_oracle import assert_matches_full_evaluation
from reference_circuits import (
    build_adder,
    build_consumers_first_circuit,
    build_fig3_circuit,
    build_wide_circuit,
    consumers_first_verilog,
)

from repro.baselines import VaACS, VaacsConfig
from repro.cells import default_library
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    applied_copy,
    circuit_reproduce,
    evaluate,
    evaluate_batch,
    evaluate_incremental,
    is_safe,
    simplified_copy,
)
from repro.core import fitness as fitness_module
from repro.core.fitness import DepthMode, eval_payload
from repro.core.simplify import propose_simplification
from repro.netlist import (
    CONST0,
    CONST1,
    Circuit,
    parse_verilog,
    remove_dangling,
)
from repro.sim import (
    ErrorMode,
    best_switch,
    po_words,
    random_vectors,
    rank_switches,
    resimulate_cone,
    simulate,
)
from repro.sim.vectors import count_ones
from repro.sta import STAEngine, update_timing


def _random_safe_lac(circuit, values, rng, num_vectors):
    """A random admissible LAC, similarity-guided like the optimizers."""
    logic = circuit.logic_ids()
    rng.shuffle(logic)
    for target in logic[:16]:
        found = best_switch(circuit, values, target, num_vectors)
        if found is None:
            continue
        lac = LAC(target=target, switch=found[0])
        if is_safe(circuit, lac):
            return lac
    return None


def _assert_values_equal(circuit, a, b):
    for gid in circuit.gate_ids():
        assert np.array_equal(a[gid], b[gid]), f"values differ at {gid}"


def _assert_reports_equal(circuit, inc, full):
    for gid in circuit.gate_ids():
        i, j = inc.index.row[gid], full.index.row[gid]
        assert inc.arrival_a[i] == full.arrival_a[j], gid
        assert inc.slew_a[i] == full.slew_a[j], gid
        assert inc.load_a[i] == full.load_a[j], gid
        assert inc.unit_depth_a[i] == full.unit_depth_a[j], gid


def _assert_evals_equal(inc, full):
    assert inc.fitness == full.fitness
    assert inc.fd == full.fd
    assert inc.fa == full.fa
    assert inc.depth == full.depth
    assert inc.area == full.area
    assert inc.error == full.error
    assert inc.per_po_error == full.per_po_error
    assert inc.report.cpd == full.report.cpd


class TestIncrementalEquivalence:
    """Random mutation sequences: incremental ≡ full, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("width", [4, 8])
    def test_lac_sequences(self, library, width, seed):
        rng = random.Random(seed)
        circuit = build_adder(width)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.NMED, num_vectors=256, seed=seed
        )
        parent = ctx.reference_eval()
        for _ in range(12):
            lac = _random_safe_lac(
                parent.circuit, parent.values, rng, ctx.vectors.num_vectors
            )
            if lac is None:
                break
            child = applied_copy(parent.circuit, lac)
            inc = evaluate_incremental(ctx, child, parent)
            full = evaluate(ctx, child)
            _assert_values_equal(child, inc.values, full.values)
            _assert_reports_equal(child, inc.report, full.report)
            _assert_evals_equal(inc, full)
            parent = inc

    def test_resimulate_cone_matches_simulate(self, library, fig3):
        vectors = random_vectors(len(fig3.pi_ids), 128, seed=5)
        base_values = simulate(fig3, vectors)
        child = fig3.copy()
        changed = child.substitute(5, CONST1)
        inc = resimulate_cone(child, vectors, base_values, changed)
        full = simulate(child, vectors)
        _assert_values_equal(child, inc, full)

    def test_update_timing_matches_analyze_from_parent(self, library):
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[3], CONST0)
        inc = update_timing(engine, child, previous, changed)
        full = engine.analyze(child)
        _assert_reports_equal(child, inc, full)

    def test_update_timing_in_place_still_works(self, library, fig3):
        # The historical contract: previous report from the *same*
        # circuit object before an in-place edit.
        engine = STAEngine(library)
        previous = engine.analyze(fig3)
        changed = fig3.substitute(6, 2)
        inc = update_timing(engine, fig3, previous, changed)
        full = engine.analyze(fig3)
        _assert_reports_equal(fig3, inc, full)

    def test_simplification_provenance(self, library):
        circuit = build_adder(4)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.ER, num_vectors=256, seed=1
        )
        parent = ctx.reference_eval()
        rng = random.Random(0)
        simp = None
        for target in circuit.logic_ids():
            simp = propose_simplification(
                circuit, parent.values, target, ctx.vectors.num_vectors, rng
            )
            if simp is not None:
                break
        assert simp is not None, "no simplification found on the adder"
        child = simplified_copy(circuit, simp)
        assert child.valid_provenance() is not None
        inc = evaluate_incremental(ctx, child, parent)
        full = evaluate(ctx, child)
        _assert_evals_equal(inc, full)

    def test_reproduction_provenance(self, library):
        circuit = build_adder(6)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.NMED, num_vectors=256, seed=2
        )
        rng = random.Random(3)
        ref = ctx.reference_eval()
        evs = []
        for _ in range(2):
            lac = _random_safe_lac(
                circuit, ref.values, rng, ctx.vectors.num_vectors
            )
            assert lac is not None
            evs.append(
                evaluate_incremental(ctx, applied_copy(circuit, lac), ref)
            )
        child = circuit_reproduce(evs[0], evs[1], ctx)
        prov = child.valid_provenance()
        assert prov is not None
        assert prov.parent in (evs[0].circuit, evs[1].circuit)
        inc = evaluate_incremental(ctx, child, evs)
        full = evaluate(ctx, child.copy())
        _assert_evals_equal(inc, full)

    def test_update_timing_discovers_deletions(self, library):
        # Gates deleted from the child (not listed in changed) must not
        # leave stale loads behind: their former fan-ins get relieved.
        circuit = build_adder(6)
        engine = STAEngine(library)
        previous = engine.analyze(circuit)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[5], CONST0)
        remove_dangling(child)
        inc = update_timing(engine, child, previous, changed)
        full = engine.analyze(child)
        _assert_reports_equal(child, inc, full)

    def test_undeclared_edit_drops_provenance(self, fig3):
        # An edit the caller does not account for makes the version
        # arithmetic fail to close: the record must be dropped, not
        # extended with an incomplete changed set.
        child = fig3.copy()
        base_version = child.version
        child.fanins[9] = (6, 6)  # undeclared write
        rewritten = child.substitute(8, CONST0)  # declared writes
        child.extend_provenance(rewritten, base_version, len(rewritten))
        assert child.valid_provenance() is None

    def test_declared_edits_keep_provenance(self, fig3):
        child = fig3.copy()
        base_version = child.version
        rewritten = child.substitute(8, CONST0)
        child.extend_provenance(rewritten, base_version, len(rewritten))
        prov = child.valid_provenance()
        assert prov is not None
        assert prov.changed == frozenset(rewritten)

    def test_stale_provenance_falls_back_to_full(self, library, fig3):
        ctx = EvalContext.build(
            fig3, library, ErrorMode.ER, num_vectors=128, seed=0
        )
        parent = ctx.reference_eval()
        child = applied_copy(fig3, LAC(target=8, switch=CONST0))
        # Undeclared mutation after the provenance stamp: the record must
        # be treated as stale and the full path taken (still correct).
        child.fanins[9] = (6, 6)
        assert child.valid_provenance() is None
        inc = evaluate_incremental(ctx, child, parent)
        full = evaluate(ctx, child)
        _assert_evals_equal(inc, full)


class TestDCGWOIncrementalIdentity:
    def test_seeded_runs_identical(self, library):
        circuit = build_adder(8)

        def build():
            ctx = EvalContext.build(
                circuit, library, ErrorMode.NMED, num_vectors=256, seed=4
            )
            cfg = DCGWOConfig(population_size=6, imax=4, seed=11)
            return DCGWO(ctx, 0.0244, cfg)

        assert_matches_full_evaluation(build)


class TestRenumberOnEntry:
    """Circuits enter gid-topological: the order every hot path needs."""

    def test_consumers_first_netlist_parses_in_gid_order(self, library):
        built = build_wide_circuit()
        parsed = parse_verilog(consumers_first_verilog())
        assert parsed.gid_order_topo()
        vectors = random_vectors(len(built.pi_ids), 256, seed=5)
        assert np.array_equal(
            po_words(parsed, simulate(parsed, vectors)),
            po_words(built, simulate(built, vectors)),
        )
        engine = STAEngine(library)
        assert engine.analyze(parsed).cpd == engine.analyze(built).cpd
        assert parsed.area(library) == pytest.approx(built.area(library))

        def build():
            ctx = EvalContext.build(
                parse_verilog(consumers_first_verilog()),
                library,
                ErrorMode.NMED,
                num_vectors=256,
                seed=4,
            )
            cfg = DCGWOConfig(population_size=6, imax=4, seed=11)
            return DCGWO(ctx, 0.0244, cfg)

        assert assert_matches_full_evaluation(build).evaluations > 0

    def test_build_renumbers_only_out_of_order_circuits(self, library):
        ordered = build_wide_circuit()
        ctx = EvalContext.build(
            ordered, library, ErrorMode.ER, num_vectors=64, seed=0
        )
        assert ctx.reference is ordered
        shuffled = build_consumers_first_circuit()
        ctx = EvalContext.build(
            shuffled, library, ErrorMode.ER, num_vectors=64, seed=0
        )
        ref = ctx.reference
        assert ref is not shuffled and ref.gid_order_topo()
        assert [ref.pi_names[g] for g in ref.pi_ids] == [
            shuffled.pi_names[g] for g in shuffled.pi_ids
        ]
        assert [ref.po_names[g] for g in ref.po_ids] == [
            shuffled.po_names[g] for g in shuffled.po_ids
        ]
        assert ctx.cpd_ori == STAEngine(library).analyze(shuffled).cpd


class TestAncestryRelease:
    def test_evaluated_child_does_not_pin_its_parent(self, library):
        # Reference counting alone must free a parent once its eval is
        # dropped: a child whose timing has been read holds no reference
        # to it.  (An untimed child keeps its parent's report and circuit
        # until its timing runs; see TestDeferredTiming.)
        circuit = build_adder(8)
        ctx = EvalContext.build(
            circuit, library, ErrorMode.NMED, num_vectors=128, seed=2
        )
        root = ctx.reference_eval()
        rng = random.Random(5)
        nv = ctx.vectors.num_vectors
        enabled = gc.isenabled()
        gc.disable()
        try:
            lac = _random_safe_lac(circuit, root.values, rng, nv)
            parent = applied_copy(circuit, lac)
            parent_ev = evaluate_incremental(ctx, parent, root)
            lac = _random_safe_lac(parent, parent_ev.values, rng, nv)
            child = applied_copy(parent, lac)
            child_ev = evaluate_incremental(ctx, child, parent_ev)
            assert child_ev.fitness > 0.0
            ref = weakref.ref(parent)
            del parent, parent_ev
            assert ref() is None
            assert child_ev.circuit is child
        finally:
            if enabled:
                gc.enable()


def _pending(ev):
    """Whether ``ev``'s timing has not been computed yet."""
    return "_pending" in vars(ev)


class TestDeferredTiming:
    """A child's timing runs on the first read of a timed field."""

    @staticmethod
    def _context(library):
        return EvalContext.build(
            build_adder(8), library, ErrorMode.ER, num_vectors=128, seed=2,
        )

    @staticmethod
    def _children(ctx, count, seed=5):
        root = ctx.reference_eval()
        rng = random.Random(seed)
        nv = ctx.vectors.num_vectors
        children = []
        while len(children) < count:
            lac = _random_safe_lac(ctx.reference, root.values, rng, nv)
            children.append(applied_copy(ctx.reference, lac))
        return root, children

    @staticmethod
    def _count_update_timing(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return update_timing(*args, **kwargs)

        monkeypatch.setattr(fitness_module, "update_timing", counting)
        return calls

    def test_timing_runs_once_on_first_read(self, library, monkeypatch):
        ctx = self._context(library)
        root, children = self._children(ctx, 4)
        calls = self._count_update_timing(monkeypatch)
        evals = evaluate_batch(ctx, [(c, root) for c in children])
        assert calls == []
        assert all(_pending(ev) for ev in evals)
        first = evals[0]
        assert first.fitness > 0.0
        assert calls == [first.circuit]
        assert first.report.circuit is first.circuit
        assert first.fd > 0.0
        assert calls == [first.circuit]
        assert not _pending(first)
        assert all(_pending(ev) for ev in evals[1:])

    def test_pickle_forces_timing_and_round_trips(self, library):
        ctx = self._context(library)
        root, (child,) = self._children(ctx, 1)
        twin = child.copy()
        ev = evaluate_incremental(ctx, child, root)
        assert _pending(ev)
        clone = pickle.loads(pickle.dumps(ev))
        assert not _pending(ev)
        want = evaluate(ctx, twin)
        # The five timing arrays (the payload's last entry is the values).
        for got, expected in zip(
            eval_payload(clone)[:5], eval_payload(want)[:5]
        ):
            assert np.array_equal(got, expected)
        for name in ("depth", "area", "fd", "fa", "fitness", "error"):
            assert getattr(clone, name) == getattr(want, name), name
        assert clone.per_po_error == want.per_po_error
        assert np.array_equal(clone.values.matrix, want.values.matrix)

    def test_reading_timing_after_a_mutation_raises(self, library):
        ctx = self._context(library)
        root, (child,) = self._children(ctx, 1)
        ev = evaluate_incremental(ctx, child, root)
        gid = child.logic_ids()[0]
        child.set_cell(gid, library.upsize(child.cells[gid]).name)
        with pytest.raises(RuntimeError, match="changed since"):
            ev.fitness
        with pytest.raises(RuntimeError, match="changed since"):
            pickle.dumps(ev)

    def test_pickling_a_timed_eval_after_a_mutation_raises(self, library):
        # Unpickling lays the arrays on the circuit as it is, so a
        # timed eval of a since-mutated circuit must not pickle either.
        ctx = self._context(library)
        _, (child,) = self._children(ctx, 1)
        ev = evaluate(ctx, child)
        gid = child.logic_ids()[0]
        child.set_cell(gid, library.upsize(child.cells[gid]).name)
        assert ev.fitness > 0.0
        with pytest.raises(RuntimeError, match="changed since"):
            pickle.dumps(ev)

    def test_run_times_only_children_it_reads(self, library, monkeypatch):
        # ER 5% on an 8-bit adder: most single-LAC children exceed the
        # bound, so their timing is never read.  The run still equals
        # its full-evaluation oracle, and every survivor is timed, so no
        # pending computation chains a member to its ancestors.
        walks = []
        timings = self._count_update_timing(monkeypatch)

        def counting_walk(circuit, *args, **kwargs):
            walks.append(circuit)
            return resimulate_cone(circuit, *args, **kwargs)

        monkeypatch.setattr(fitness_module, "resimulate_cone", counting_walk)
        built = []

        def build():
            ctx = self._context(library)
            cfg = DCGWOConfig(population_size=6, imax=4, seed=21, jobs=1)
            built.append(DCGWO(ctx, 0.05, cfg))
            return built[-1]

        assert_matches_full_evaluation(build)
        assert 0 < len(timings) < len(walks)
        state = built[0].last_state
        assert state.best is not None and not _pending(state.best)
        assert not any(_pending(ev) for ev in state.population)


class TestFullEvaluationOracle:
    """Seeded DCGWO and VaACS runs equal their full-evaluation oracle
    (``eval_oracle``) in both depth modes."""

    @pytest.mark.parametrize(
        "depth_mode", [DepthMode.DELAY, DepthMode.UNIT], ids=["delay", "unit"]
    )
    @pytest.mark.parametrize("method", ["Ours", "VaACS"])
    def test_run_matches_full_evaluation(self, library, method, depth_mode):
        circuit = build_adder(6)

        def build():
            ctx = EvalContext.build(
                circuit,
                library,
                ErrorMode.ER,
                num_vectors=128,
                seed=9,
                depth_mode=depth_mode,
            )
            if method == "Ours":
                cfg = DCGWOConfig(population_size=5, imax=3, seed=33)
                return DCGWO(ctx, 0.05, cfg)
            cfg = VaacsConfig(population_size=6, generations=3, seed=33)
            return VaACS(ctx, 0.05, cfg)

        result = assert_matches_full_evaluation(build)
        assert result.evaluations > 0


class TestStructuralCache:
    def test_mutators_invalidate(self, fig3):
        order = fig3.topological_order()
        assert fig3.topological_order() is order  # memoized
        fig3.substitute(5, CONST0)
        assert fig3.topological_order() is not order

    def test_direct_item_write_invalidates(self, fig3):
        live = fig3.live_gates()
        fig3.fanins[9] = (6, 6)  # reproduction-style direct write
        assert fig3.topological_order()  # recomputed without error
        fig3.cells[9] = "OR2D1"
        assert fig3.live_gates() is not None
        assert 7 not in fig3.transitive_fanin(9)
        assert live is not None

    def test_ior_merge_invalidates(self, fig3):
        key = fig3.structure_key()
        fig3.fanins |= {9: (6, 6)}  # dict.__ior__ merges at C level
        assert fig3.structure_key() != key

    def test_whole_dict_assignment_invalidates(self, fig3):
        key = fig3.structure_key()
        fanins = dict(fig3.fanins)
        fanins[9] = (6, 6)
        fig3.fanins = fanins  # relabel_compact-style assignment
        assert fig3.structure_key() != key
        # Further direct writes on the new dict still invalidate.
        before = fig3.structure_key()
        fig3.fanins[10] = (4, 4)
        assert fig3.structure_key() != before

    def test_cached_queries_are_consistent(self, adder8):
        assert list(adder8.topological_order()) == list(
            adder8.topological_order()
        )
        tfo = adder8.transitive_fanout(adder8.logic_ids()[0])
        assert tfo == adder8.transitive_fanout(adder8.logic_ids()[0])

    def test_area_tracks_cell_swaps(self, library, fig3):
        before = fig3.area(library)
        fig3.set_cell(5, "AND2D4")
        after = fig3.area(library)
        assert after > before

    def test_deepcopy_round_trip(self, fig3):
        import copy as copymod

        dup = copymod.deepcopy(fig3)
        assert dup.structure_key() == fig3.structure_key()
        dup.substitute(5, CONST0)  # tracked dicts rewired to the copy
        assert dup.structure_key() != fig3.structure_key()
        assert fig3.topological_order()  # original untouched

    def test_pickle_round_trip(self, fig3):
        import pickle

        dup = pickle.loads(pickle.dumps(fig3))
        assert dup.structure_key() == fig3.structure_key()
        assert dup.provenance is None
        dup.fanins[9] = (6, 6)
        assert dup.structure_key() != fig3.structure_key()


class TestStructureKey:
    def test_stable_across_hash_seeds(self, fig3):
        """The digest must not depend on PYTHONHASHSEED (process salt)."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "sys.path.insert(0, sys.argv[2]); "
            "from reference_circuits import build_fig3_circuit; "
            "print(build_fig3_circuit().structure_key())"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        tests_dir = str(Path(__file__).resolve().parent)
        keys = set()
        for hash_seed in ("0", "1", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script, src, tests_dir],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            keys.add(int(out.stdout.strip()))
        assert len(keys) == 1
        assert keys.pop() == build_fig3_circuit().structure_key()

    def test_equal_structures_equal_keys(self, fig3):
        assert fig3.structure_key() == build_fig3_circuit().structure_key()
        mutated = fig3.copy()
        mutated.substitute(5, CONST1)
        assert mutated.structure_key() != fig3.structure_key()

    def test_incremental_digest_matches_from_scratch(self):
        """Provenance children re-hash only their changed records; a
        pickled clone (provenance dropped) recomputes every record from
        scratch — both paths must fold to the same keys along a whole
        derivation chain."""
        import pickle

        rng = random.Random(11)
        circuit = build_adder(6)
        for _ in range(6):
            child = circuit.copy()
            v0 = child.version
            target = rng.choice(child.logic_ids())
            switch = rng.choice(sorted(child.transitive_fanin(target)))
            writes = child.substitute(target, switch)
            child.extend_provenance(writes, v0, len(writes))
            assert child.valid_provenance() is not None
            clone = pickle.loads(pickle.dumps(child))
            assert clone.provenance is None
            assert child.structure_key() == clone.structure_key()
            assert (
                child.full_structure_key() == clone.full_structure_key()
            )
            circuit = child

    def test_incremental_digest_after_gate_removal(self):
        """A provenance record covering a *deleted* gid must drop that
        gate's record digest, not re-hash a ghost."""
        import pickle

        circuit = build_adder(6)
        child = circuit.copy()
        v0 = child.version
        target = child.logic_ids()[3]
        switch = sorted(child.transitive_fanin(target))[0]
        writes = child.substitute(target, switch)
        del child.fanins[target]
        del child.cells[target]
        child.extend_provenance(
            list(writes) + [target], v0, len(writes) + 2
        )
        assert child.valid_provenance() is not None
        clone = pickle.loads(pickle.dumps(child))
        assert child.structure_key() == clone.structure_key()
        assert child.full_structure_key() == clone.full_structure_key()
        assert child.full_structure_key() != circuit.full_structure_key()


class TestRemoveGateGuard:
    def test_referenced_gate_refuses(self, fig3):
        # Gate 5 drives gates 8 and 11: deleting it would corrupt them.
        with pytest.raises(ValueError, match="referenced"):
            fig3.remove_gate(5)

    def test_po_driver_refuses(self, fig3):
        # Gate 12 drives PO 15 only: still referenced via the PO fan-in.
        with pytest.raises(ValueError, match="referenced"):
            fig3.remove_gate(12)

    def test_unreferenced_gate_removes(self, fig3):
        fig3.substitute(12, CONST0)  # nothing consumes 12 afterwards
        fig3.remove_gate(12)
        assert 12 not in fig3.fanins

    def test_dangling_chain_removal(self):
        c = Circuit("chain")
        a = c.add_pi("a")
        g1 = c.add_gate("INVD1", (a,))
        g2 = c.add_gate("INVD1", (g1,))
        g3 = c.add_gate("INVD1", (g2,))  # g1 -> g2 -> g3, all dangling
        c.add_po(a, "o")
        removed = remove_dangling(c)
        assert removed == 3
        assert c.logic_ids() == []

    def test_missing_gate_raises_keyerror(self, fig3):
        with pytest.raises(KeyError):
            fig3.remove_gate(999)


class TestVectorizedSimilarity:
    @pytest.mark.parametrize("num_vectors", [64, 100, 256])
    def test_matches_scalar_reference(self, num_vectors):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), num_vectors, seed=9)
        values = simulate(circuit, vectors)
        for target in circuit.logic_ids()[::3]:
            ranked = rank_switches(circuit, values, target, num_vectors)
            # Scalar reference: the pre-vectorization formula.
            expected = []
            for cand in circuit.transitive_fanin(target):
                if cand == target or circuit.is_po(cand):
                    continue
                diff = count_ones(
                    values[cand] ^ values[target], num_vectors
                )
                expected.append((cand, 1.0 - diff / num_vectors))
            ones = count_ones(values[target], num_vectors)
            expected.append((CONST0, 1.0 - ones / num_vectors))
            expected.append((CONST1, ones / num_vectors))
            expected.sort(key=lambda item: (-item[1], abs(item[0])))
            assert ranked == expected
