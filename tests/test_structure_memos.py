"""A child's structure memos, derived from its parent's, equal a rebuild.

A copy-then-mutate child with a valid provenance record derives its
fan-out map, live set, record digests, both structure keys and its
fan-in position map from its parent's memos (``Circuit._memo``).  A
pickled copy carries no provenance, so it builds each of them from
scratch: every case below compares the two, plus ``area``, which sums
the derived live set.  A fixture counts the from-scratch builds of the
fan-out map and the live set on circuits whose record is valid; none
may happen.
"""

from __future__ import annotations

import pickle
import random

import pytest

from eval_oracle import assert_matches_full_evaluation
from reference_circuits import build_adder

from repro.cells import cell_name, default_library, split_cell_name
from repro.core import (
    DCGWO,
    LAC,
    DCGWOConfig,
    EvalContext,
    applied_copy,
    circuit_reproduce,
    evaluate_incremental,
    is_safe,
)
from repro.core.simplify import Simplification, simplified_copy
from repro.netlist import CONST0, CONST1, Circuit, CircuitBuilder
from repro.sim import ErrorMode
from repro.synth import optimize_netlist


@pytest.fixture(scope="module")
def library():
    return default_library()


@pytest.fixture
def scratch_builds(monkeypatch):
    """From-scratch fan-out map and live-set builds on record holders."""
    # The sanitizer rebuilds every derived memo to compare it.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    counts = {"fanouts": 0, "live": 0}
    for name, attr in (("fanouts", "_build_fanouts"), ("live", "_build_live")):
        original = getattr(Circuit, attr)

        def counted(self, _original=original, _name=name):
            if self.valid_provenance() is not None:
                counts[_name] += 1
            return _original(self)

        monkeypatch.setattr(Circuit, attr, counted)
    return counts


def _scratch(circuit):
    """A copy without provenance: its memos are built from scratch."""
    return pickle.loads(pickle.dumps(circuit))


def _memos(circuit, library):
    return {
        "fanouts": circuit.fanouts(),
        "live": circuit.live_gates(),
        "digests": circuit._record_digests(),
        "positions": circuit._fanin_positions(),
        "key": circuit.structure_key(),
        "full_key": circuit.full_structure_key(),
        "area": circuit.area(library),
        "area_all": circuit.area(library, live_only=False),
    }


def _assert_derived(child, library, scratch_builds):
    """Every memo of ``child`` derives from its parent's and is exact."""
    assert child.valid_provenance() is not None
    derived = _memos(child, library)
    assert scratch_builds == {"fanouts": 0, "live": 0}
    assert derived == _memos(_scratch(child), library)
    return derived


def _ctx(library, width=8, seed=3):
    return EvalContext.build(
        build_adder(width), library, ErrorMode.NMED, num_vectors=128,
        seed=seed,
    )


def _lac_children(ctx, count, seed):
    """Evaluated, distinct random LAC children of the reference."""
    ref = ctx.reference_eval()
    circuit = ctx.reference
    rng = random.Random(seed)
    logic = circuit.logic_ids()
    evs, keys = [], set()
    while len(evs) < count:
        target = rng.choice(logic)
        tfi = sorted(circuit.transitive_fanin(target))
        lac = LAC(target, rng.choice(tfi + [CONST0, CONST1]))
        if not is_safe(circuit, lac):
            continue
        child = applied_copy(circuit, lac)
        if child.structure_key() in keys:
            continue
        keys.add(child.structure_key())
        evs.append(evaluate_incremental(ctx, child, ref))
    return evs


class TestOperators:
    def test_wire_by_wire(self, library, scratch_builds):
        circuit = _ctx(library).reference
        target = circuit.logic_ids()[-4]
        switch = max(
            g for g in circuit.transitive_fanin(target) if circuit.is_logic(g)
        )
        child = applied_copy(circuit, LAC(target, switch))
        derived = _assert_derived(child, library, scratch_builds)
        assert target not in derived["live"]
        assert derived["key"] != circuit.structure_key()

    @pytest.mark.parametrize("constant", [CONST0, CONST1])
    def test_wire_by_constant(self, library, scratch_builds, constant):
        ctx = _ctx(library)
        circuit = ctx.reference
        target = circuit.logic_ids()[5]
        child = applied_copy(circuit, LAC(target, constant))
        derived = _assert_derived(child, library, scratch_builds)
        assert derived["fanouts"][constant]
        assert constant not in circuit.fanouts()
        # A grandchild that wires the constant's consumers back to the
        # target drops the constant's key again.
        evaluate_incremental(ctx, child, ctx.reference_eval())
        consumers = sorted(set(derived["fanouts"][constant]))
        grandchild = child.copy()
        since = grandchild.version
        for gid in consumers:
            grandchild.set_fanins(
                gid,
                [target if fi == constant else fi
                 for fi in grandchild.fanins[gid]],
            )
        grandchild.extend_provenance(consumers, since, len(consumers))
        assert grandchild.valid_provenance().parent is child
        again = _assert_derived(grandchild, library, scratch_builds)
        assert constant not in again["fanouts"]
        assert again["key"] == circuit.structure_key()

    def test_crossover(self, library, scratch_builds):
        ctx = _ctx(library)
        evs = _lac_children(ctx, 6, seed=11)
        kids = 0
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]:
            kid = circuit_reproduce(evs[a], evs[b], ctx)
            if kid.valid_provenance().changed:
                _assert_derived(kid, library, scratch_builds)
                kids += 1
        assert kids >= 3

    @pytest.mark.parametrize("drop", [False, True])
    def test_simplification(self, library, scratch_builds, drop):
        ctx = _ctx(library)
        ref = ctx.reference_eval()
        circuit = ctx.reference
        gate = next(
            g for g in circuit.logic_ids()
            if split_cell_name(circuit.cells[g])[0] == "XOR2"
        )
        drive = split_cell_name(circuit.cells[gate])[1]
        if drop:
            simp = Simplification(
                gate, cell_name("BUF", drive), circuit.fanins[gate][:1]
            )
        else:
            simp = Simplification(gate, cell_name("NAND2", drive))
        child = simplified_copy(ref.circuit, simp)
        derived = _assert_derived(child, library, scratch_builds)
        # A cell swap leaves every fan-out list as it was.
        assert (derived["fanouts"] is circuit.fanouts()) is not drop

    def test_three_generation_chain(self, library, scratch_builds):
        ctx = _ctx(library, width=12, seed=5)
        rng = random.Random(7)
        ev = ctx.reference_eval()
        for generation in range(3):
            circuit = ev.circuit
            while True:
                target = rng.choice(circuit.logic_ids())
                tfi = sorted(circuit.transitive_fanin(target))
                lac = LAC(target, rng.choice(tfi + [CONST0]))
                if is_safe(circuit, lac):
                    break
            child = applied_copy(circuit, lac)
            _assert_derived(child, library, scratch_builds)
            ev = evaluate_incremental(ctx, child, ev)
            assert child.valid_provenance() is None  # consumed


class TestLiveness:
    def test_lac_kills_a_cone(self, library, scratch_builds):
        b = CircuitBuilder("cone")
        p = b.pis(4)
        inner = b.and2(b.xor2(p[0], p[1]), b.or2(p[2], p[3]))
        b.pos([b.nand2(inner, p[0]), b.xor2(p[1], p[2])])
        circuit = b.done()
        child = applied_copy(circuit, LAC(inner, CONST0))
        derived = _assert_derived(child, library, scratch_builds)
        # inner, its two fan-in gates and the PI only the cone read.
        died = circuit.live_gates() - derived["live"]
        assert len(died) == 4 and {inner, p[3]} <= died
        assert derived["area"] < circuit.area(library)

    def test_crossover_revives_a_cone(self, library, scratch_builds):
        ctx = _ctx(library)
        evs = _lac_children(ctx, 10, seed=2)
        revived = 0
        for a in evs:
            for b in evs:
                if a is b:
                    continue
                kid = circuit_reproduce(a, b, ctx)
                base = kid.valid_provenance().parent
                if kid.live_gates() - base.live_gates():
                    _assert_derived(kid, library, scratch_builds)
                    revived += 1
        assert revived


class TestRuns:
    def test_dcgwo_run_derives_every_child(self, library, scratch_builds):
        runs = []

        def build():
            ctx = _ctx(library, width=16, seed=9)
            runs.append(
                DCGWO(ctx, 0.0244, DCGWOConfig(
                    population_size=8, imax=6, seed=4, jobs=1
                ))
            )
            return runs[-1]

        result = assert_matches_full_evaluation(build)
        assert scratch_builds == {"fanouts": 0, "live": 0}
        assert result.evaluations > 0
        for ev in result.population:
            assert _memos(ev.circuit, library) == _memos(
                _scratch(ev.circuit), library
            )


class TestSubstitute:
    def test_in_place_substitute_builds_no_fanout_map(self, monkeypatch):
        """``optimize_netlist`` edits in place: ``substitute`` scans."""
        inside, builds = [], []
        build, substitute = Circuit._build_fanouts, Circuit.substitute

        def counted_build(self):
            builds.append(self)
            return build(self)

        def counted_substitute(self, target, switch):
            before = len(builds)
            out = substitute(self, target, switch)
            inside.append(len(builds) - before)
            return out

        monkeypatch.setattr(Circuit, "_build_fanouts", counted_build)
        monkeypatch.setattr(Circuit, "substitute", counted_substitute)
        b = CircuitBuilder("cleanup")
        x, y, z = b.pis(3)
        buffered = b.gate("BUF", b.and2(x, y))
        twin_a, twin_b = b.xor2(x, z), b.xor2(x, z)
        folded = b.and2(b.inv(b.inv(y)), CONST1)
        b.pos([b.or2(buffered, twin_a), b.nand2(twin_b, folded)])
        circuit = b.done()
        stats = optimize_netlist(circuit)
        assert stats.total > 0 and len(inside) >= 3
        assert not any(inside)
