"""Tests for the circuit searching and reproduction approximate actions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_circuits import build_adder, build_consumers_first_circuit

from repro.core import (
    EvalContext,
    LAC,
    LevelWeights,
    applied_copy,
    circuit_reproduce,
    circuit_search,
    circuit_simplify,
    collect_targets,
    evaluate,
    pick_superior_partner,
    po_levels,
    propose_search_lac,
)
from repro.netlist import CONST0, CONST1, is_const, remove_dangling, validate
from repro.sim import ErrorMode, best_switch
from repro.sta import critical_paths, path_logic_gates


@pytest.fixture
def ctx(adder8, library):
    return EvalContext.build(
        adder8, library, ErrorMode.NMED, num_vectors=1024, seed=7
    )


class TestCollectTargets:
    def test_targets_contain_critical_gates(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        rng = random.Random(0)
        targets = collect_targets(ev, rng, num_paths=1)
        crit = set(
            path_logic_gates(adder8, ev.report.critical_path())
        )
        assert crit <= set(targets)

    def test_targets_are_logic_gates(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        targets = collect_targets(ev, random.Random(1), num_paths=3)
        assert all(adder8.is_logic(g) for g in targets)

    def test_sampling_adds_fanins(self, library):
        """On a 2-input-mapped adder the carry chain has off-path fan-ins
        (the propagate XORs); sampling must pull some of them into Tc."""
        from repro.bench import ripple_adder_circuit

        mapped = ripple_adder_circuit(8)
        ctx = EvalContext.build(
            mapped, library, ErrorMode.NMED, num_vectors=256, seed=1
        )
        ev = evaluate(ctx, mapped.copy())
        sizes = {
            len(collect_targets(ev, random.Random(s), num_paths=1))
            for s in range(10)
        }
        assert len(sizes) > 1  # stochastic enlargement occurred


class TestSearch:
    def test_search_produces_valid_child(self, ctx, adder8, library):
        ev = evaluate(ctx, adder8.copy())
        child = circuit_search(ev, ctx, random.Random(2))
        assert child is not None
        validate(child, library)
        assert child.structure_key() != adder8.structure_key()

    def test_search_lac_switch_is_similar(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        lac = propose_search_lac(ev, ctx, random.Random(3))
        assert lac is not None
        expect = best_switch(
            adder8, ev.values, lac.target, ctx.vectors.num_vectors
        )
        assert lac.switch == expect[0]

    def test_search_eventually_cuts_depth_or_area(self, ctx, adder8):
        """Iterated searching must reduce depth or area somewhere."""
        ev = evaluate(ctx, adder8.copy())
        rng = random.Random(4)
        improved = False
        for _ in range(12):
            child = circuit_search(ev, ctx, rng)
            if child is None:
                break
            child_ev = evaluate(ctx, child)
            if child_ev.fd > 1.0 or child_ev.fa > 1.0:
                improved = True
                break
            ev = child_ev
        assert improved


class TestLevels:
    def test_level_prefers_fast_exact_cones(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        weights = LevelWeights.paper_defaults(ctx)
        levels = po_levels(ev, ctx, weights)
        pos = adder8.po_ids
        # The LSB sum bit has a far shorter path than the carry-out,
        # and both are error-free: the LSB cone must score higher.
        assert levels[pos[0]] > levels[pos[-1]]

    def test_paper_default_weights(self, ctx):
        w = LevelWeights.paper_defaults(ctx)
        assert w.wt == pytest.approx(0.9 * ctx.cpd_ori)
        assert w.we == pytest.approx(0.2)  # NMED mode

    def test_er_mode_weight(self, adder8, library):
        ctx = EvalContext.build(
            adder8, library, ErrorMode.ER, num_vectors=128
        )
        assert LevelWeights.paper_defaults(ctx).we == pytest.approx(0.1)


class TestReproduce:
    def test_child_valid_and_complete(self, ctx, adder8, library):
        ev_a = evaluate(
            ctx, applied_copy(adder8, LAC(adder8.logic_ids()[0], CONST0))
        )
        ev_b = evaluate(
            ctx, applied_copy(adder8, LAC(adder8.logic_ids()[10], CONST1))
        )
        child = circuit_reproduce(ev_a, ev_b, ctx)
        validate(child, library)
        assert child.po_ids == adder8.po_ids
        assert set(child.fanins) == set(adder8.fanins)

    def test_child_takes_best_cone_per_po(self, adder8, library):
        """Damage PO0's cone in parent A only; under ER weighting the
        healthy parent's cone scores a far higher Level (its error term
        is at the floor), so the child inherits zero error on PO0."""
        ctx = EvalContext.build(
            adder8, library, ErrorMode.ER, num_vectors=1024, seed=7
        )
        po0_driver = adder8.fanins[adder8.po_ids[0]][0]
        bad = applied_copy(adder8, LAC(po0_driver, CONST0))
        ev_bad = evaluate(ctx, bad)
        ev_good = evaluate(ctx, adder8.copy())
        child = circuit_reproduce(ev_bad, ev_good, ctx)
        child_ev = evaluate(ctx, child)
        assert child_ev.per_po_error[0] == 0.0

    def test_mismatched_parents_rejected(self, ctx, adder8, adder4, library):
        ev_a = evaluate(ctx, adder8.copy())
        ctx4 = EvalContext.build(
            adder4, library, ErrorMode.NMED, num_vectors=256
        )
        ev_b = evaluate(ctx4, adder4.copy())
        with pytest.raises(ValueError):
            circuit_reproduce(ev_a, ev_b, ctx)

    def test_diverged_gate_id_sets_rejected(self, ctx, adder8):
        """Equal PO lists but different gate-ID sets are refused, like
        different PO lists."""
        pruned = applied_copy(adder8, LAC(adder8.logic_ids()[-1], CONST0))
        assert remove_dangling(pruned)
        assert pruned.po_ids == adder8.po_ids
        ev_full = evaluate(ctx, adder8.copy())
        ev_pruned = evaluate(ctx, pruned)
        for ev_a, ev_b in ((ev_full, ev_pruned), (ev_pruned, ev_full)):
            with pytest.raises(ValueError, match="gate-ID sets"):
                circuit_reproduce(ev_a, ev_b, ctx)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_mixtures_stay_acyclic(self, seed, adder8_module, ctx_module):
        """Property: reproduction of arbitrarily-mutated parents is acyclic.

        This pins the topological-order-preservation invariant that
        reproduction's correctness rests on.
        """
        ctx = ctx_module
        adder8 = adder8_module
        rng = random.Random(seed)

        def mutate(circuit, steps):
            ev = evaluate(ctx, circuit.copy())
            current = ev
            for _ in range(steps):
                child = circuit_search(current, ctx, rng)
                if child is None:
                    break
                current = evaluate(ctx, child)
            return current

        ev_a = mutate(adder8, rng.randrange(1, 4))
        ev_b = mutate(adder8, rng.randrange(1, 4))
        child = circuit_reproduce(ev_a, ev_b, ctx)
        validate(child)  # raises on loops


def _set_walk_reproduce(ev_a, ev_b, ctx):
    """Reference crossover: walk each chosen PO's TFI set in Level order.

    Cones are written in descending Level order; a gate takes its record
    from the first cone that reaches it, and identical writes are
    skipped, so the declared delta is what differs from the fitter
    parent.  Also returns how many gates a later cone would have written
    differently, i.e. how often first-write-wins decided a gate.
    """
    weights = LevelWeights.paper_defaults(ctx)
    levels_a = po_levels(ev_a, ctx, weights)
    levels_b = po_levels(ev_b, ctx, weights)
    base = ev_a if ev_a.fitness >= ev_b.fitness else ev_b
    child = base.circuit.copy()
    choices = []
    for po in child.po_ids:
        if levels_a[po] >= levels_b[po]:
            choices.append((levels_a[po], po, ev_a.circuit))
        else:
            choices.append((levels_b[po], po, ev_b.circuit))
    choices.sort(key=lambda item: (-item[0], item[1]))
    since = child.version
    written, changed, writes, shadowed = set(), set(), 0, 0
    for _, po, parent in choices:
        cone = parent.transitive_fanin(po, include_self=True)
        for gid in cone & written:
            shadowed += child.fanins[gid] != parent.fanins[gid]
        for gid in cone - written:
            if child.fanins[gid] != parent.fanins[gid]:
                child.fanins[gid] = parent.fanins[gid]
                changed.add(gid)
                writes += 1
            if not child.is_po(gid) and child.cells[gid] != parent.cells[gid]:
                child.cells[gid] = parent.cells[gid]
                changed.add(gid)
                writes += 1
        written |= cone
    child.extend_provenance(changed, since, writes)
    return child, shadowed


class TestReproduceOracle:
    """The delta write equals the set-walk crossover on every child."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_adder(8),
            # Not gid-topological: po_bits sweeps topological_order().
            build_consumers_first_circuit,
        ],
    )
    def test_matches_set_walk_on_search_derived_parents(self, build, library):
        ctx = EvalContext.build(
            build(), library, ErrorMode.NMED, num_vectors=256, seed=3
        )
        rng = random.Random(23)
        pool = [ctx.reference_eval()]
        while len(pool) < 12:
            # Simplifications rewrite cells, LACs only fan-ins.
            op = circuit_simplify if len(pool) % 3 == 0 else circuit_search
            child = op(pool[rng.randrange(len(pool))], ctx, rng)
            if child is not None:
                pool.append(evaluate(ctx, child))
        mixed = cells = decided = 0
        for _ in range(40):
            ev_a, ev_b = rng.sample(pool, 2)
            got = circuit_reproduce(ev_a, ev_b, ctx)
            want, shadowed = _set_walk_reproduce(ev_a, ev_b, ctx)
            decided += shadowed > 0
            assert list(got.fanins.items()) == list(want.fanins.items())
            assert list(got.cells.items()) == list(want.cells.items())
            assert got.version == want.version
            assert got.provenance.parent is want.provenance.parent
            assert got.provenance.changed == want.provenance.changed
            mixed += all(
                got.fanins != ev.circuit.fanins
                or got.cells != ev.circuit.cells
                for ev in (ev_a, ev_b)
            )
            base = ev_a if ev_a.fitness >= ev_b.fitness else ev_b
            cells += got.cells != base.circuit.cells
            # Crossover children join the pool, so later parents differ
            # in mixed cones as well as in single LACs.
            pool.append(evaluate(ctx, got))
        # Not vacuous: children mix both parents, take cells as well as
        # fan-ins from them, and first-write-wins decides some gates.
        assert mixed >= 10
        assert cells >= 5
        assert decided >= 5


@pytest.fixture(scope="module")
def adder8_module():
    from tests.conftest import build_adder

    return build_adder(8)


@pytest.fixture(scope="module")
def ctx_module(adder8_module):
    from repro.cells import default_library

    return EvalContext.build(
        adder8_module, default_library(), ErrorMode.NMED,
        num_vectors=512, seed=11,
    )


class TestPartner:
    def test_superior_partner_is_fitter(self, ctx, adder8):
        evs = [evaluate(ctx, adder8.copy())]
        worse = applied_copy(adder8, LAC(adder8.logic_ids()[0], CONST0))
        ev_w = evaluate(ctx, worse)
        pool = evs + [ev_w]
        weakest = min(pool, key=lambda e: e.fitness)
        partner = pick_superior_partner(pool, weakest, random.Random(0))
        if partner is not None:
            assert partner.fitness > weakest.fitness

    def test_no_superior_returns_none(self, ctx, adder8):
        ev = evaluate(ctx, adder8.copy())
        assert pick_superior_partner([ev], ev, random.Random(0)) is None
