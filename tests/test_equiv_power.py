"""Tests for the equivalence checker, power model, and incremental STA."""

import random

import pytest

from repro.core import LAC, applied_copy
from repro.netlist import (
    CONST0,
    CONST1,
    CircuitBuilder,
    assert_equivalent,
    check_equivalence,
    pruned_copy,
)
from repro.sim import evaluate_single, random_vectors, simulate
from repro.sim.vectors import VectorSet
from repro.sta import (
    STAEngine,
    estimate_power,
    toggle_rate,
    update_timing,
)


class TestEquivalence:
    def test_identical_circuits_proven(self, adder4):
        result = check_equivalence(adder4, adder4.copy())
        assert result.equivalent and result.proven
        assert result.vectors_checked == 2**8

    def test_postopt_transforms_equivalent(self, adder8):
        target = adder8.logic_ids()[3]
        child = applied_copy(adder8, LAC(target, CONST0))
        pruned = pruned_copy(child)
        result = check_equivalence(child, pruned)
        assert result.equivalent and result.proven

    def test_lac_detected_with_counterexample(self, adder4):
        target = adder4.logic_ids()[0]
        child = applied_copy(adder4, LAC(target, CONST0))
        result = check_equivalence(adder4, child)
        assert not result.equivalent
        assert result.proven  # concrete counterexample
        assert result.counterexample is not None
        assert result.differing_output is not None
        # Replay the counterexample to confirm it differs.
        from repro.sim import evaluate_single

        bits_a = dict(zip(adder4.pi_ids, result.counterexample))
        bits_b = dict(zip(child.pi_ids, result.counterexample))
        va = evaluate_single(adder4, bits_a)
        vb = evaluate_single(child, bits_b)
        diff = [
            po for po in adder4.po_ids
            if va[po] != vb[child.po_ids[adder4.po_ids.index(po)]]
        ]
        assert diff

    def test_monte_carlo_fallback(self):
        b = CircuitBuilder("wide")
        xs = b.pis(24)
        b.po(b.reduce_tree("AND2", xs))
        wide = b.done()
        result = check_equivalence(wide, wide.copy(), num_vectors=512)
        assert result.equivalent and not result.proven

    def test_padding_lanes_never_compared(self):
        # Past num_vectors every PI is 0, so the OR tree is 0 there
        # while the tied-off PO is 1; only real vectors may count.
        or_tree, one = _or17(), _tied17(CONST1)
        for num_vectors in (128, 100):
            result = check_equivalence(or_tree, one, num_vectors=num_vectors)
            assert result.equivalent and not result.proven, num_vectors
            assert result.vectors_checked == num_vectors

    @pytest.mark.parametrize("num_vectors", [1, 63, 65, 100, 1000])
    def test_counterexample_index_below_num_vectors(
        self, num_vectors, monkeypatch
    ):
        asked = []
        vector = VectorSet.vector

        def recording(self, k):
            asked.append((k, self.num_vectors))
            return vector(self, k)

        monkeypatch.setattr(VectorSet, "vector", recording)
        or_tree = _or17()
        for other in (_tied17(CONST1), _tied17(CONST0), _pi17(16)):
            result = check_equivalence(
                or_tree, other, num_vectors=num_vectors
            )
            if result.equivalent:
                continue
            bits = result.counterexample
            va = evaluate_single(or_tree, dict(zip(or_tree.pi_ids, bits)))
            vb = evaluate_single(other, dict(zip(other.pi_ids, bits)))
            assert va[or_tree.po_ids[0]] != vb[other.po_ids[0]]
        assert asked  # the tied-to-0 PO differs on some real vector
        assert all(k < nv == num_vectors for k, nv in asked), asked

    def test_interface_mismatch_rejected(self, adder4, adder8):
        with pytest.raises(ValueError):
            check_equivalence(adder4, adder8)

    def test_assert_helper(self, adder4):
        assert_equivalent(adder4, adder4.copy())
        child = applied_copy(adder4, LAC(adder4.logic_ids()[0], CONST0))
        with pytest.raises(AssertionError):
            assert_equivalent(adder4, child)


def _or17():
    """A 17-PI OR tree: above the exhaustive limit, so vectors are random."""
    b = CircuitBuilder("or17")
    b.po(b.reduce_tree("OR2", b.pis(17)), "y")
    return b.done()


def _tied17(constant):
    """17 PIs, none read, and one PO tied to ``constant``."""
    b = CircuitBuilder("tied17")
    b.pis(17)
    b.po(constant, "y")
    return b.done()


def _pi17(i):
    """17 PIs and one PO that mirrors PI ``i``."""
    b = CircuitBuilder("pi17")
    xs = b.pis(17)
    b.po(xs[i], "y")
    return b.done()


def _unpack_bits(row, num_vectors):
    """Per-vector bit list of a value row (test oracle)."""
    return [row >> k & 1 for k in range(num_vectors)]


def _toggle_oracle(row, num_vectors):
    """Scalar reference: fraction of adjacent vector pairs that differ."""
    if num_vectors < 2:
        return 0.0
    bits = _unpack_bits(row, num_vectors)
    flips = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    return flips / (num_vectors - 1)


class TestToggleRate:
    def test_constant_signal_never_toggles(self):
        assert toggle_rate(0, 128) == 0.0
        assert toggle_rate((1 << 128) - 1, 128) == 0.0

    def test_alternating_signal_always_toggles(self):
        row = int("55" * 16, 16)  # vectors 0, 2, 4, ... are 1
        assert toggle_rate(row, 128) == 1.0

    def test_cross_word_boundary_counted(self):
        # Vector 63 = 1, vector 64 = 0: the 62->63 and 63->64 toggles
        # both count, the second across the first 64-lane boundary.
        row = 1 << 63
        assert toggle_rate(row, 128) == 2 / 127
        assert toggle_rate(row, 128) == _toggle_oracle(row, 128)

    def test_single_vector_no_toggles(self):
        assert toggle_rate(1, 1) == 0.0

    def test_exactly_one_full_word(self):
        # num_vectors == 64: the top lane has no successor, so the
        # shifted-in 0 past it must never count as a toggle.
        rng = random.Random(0)
        for _ in range(16):
            row = rng.getrandbits(64)
            assert toggle_rate(row, 64) == _toggle_oracle(row, 64)

    def test_single_word_partial(self):
        # 37 vectors: the boundary count stops at vector 36.
        rng = random.Random(1)
        for _ in range(16):
            row = rng.getrandbits(37)
            assert toggle_rate(row, 37) == _toggle_oracle(row, 37)

    def test_non_multiple_of_64(self):
        # 100 vectors: one boundary at 63->64 between the first two
        # 64-lane blocks, and no lane past vector 99.
        rng = random.Random(2)
        for _ in range(16):
            row = rng.getrandbits(100)
            assert toggle_rate(row, 100) == _toggle_oracle(row, 100)

    def test_wrap_bit_never_counts(self):
        # Vector 63 = 1, vector 0 = 0.  The last vector differs from
        # the first, but there is no vector 64: the rate counts real
        # boundaries only.
        row = 1 << 63
        assert toggle_rate(row, 64) == 1 / 63
        assert toggle_rate(row, 64) == _toggle_oracle(row, 64)


class TestPowerModel:
    def test_power_positive_and_decomposed(self, adder8, library):
        vecs = random_vectors(len(adder8.pi_ids), 1024, seed=0)
        values = simulate(adder8, vecs)
        report = estimate_power(adder8, library, values, vecs)
        assert report.dynamic_uw > 0.0
        assert report.leakage_uw > 0.0
        assert report.total_uw == pytest.approx(
            report.dynamic_uw + report.leakage_uw
        )

    def test_dangling_gates_burn_nothing(self, adder8, library):
        vecs = random_vectors(len(adder8.pi_ids), 1024, seed=0)
        child = applied_copy(adder8, LAC(adder8.logic_ids()[5], CONST0))
        values = simulate(child, vecs)
        report = estimate_power(child, library, values, vecs)
        live = child.live_gates()
        assert all(g in live for g in report.per_gate_dynamic)

    def test_approximation_reduces_power(self, adder8, library):
        """Killing logic must reduce total power (area and activity)."""
        vecs = random_vectors(len(adder8.pi_ids), 1024, seed=0)
        base = estimate_power(
            adder8, library, simulate(adder8, vecs), vecs
        )
        child = adder8.copy()
        # Zero out the top half of the carry chain.
        for target in child.logic_ids()[-6:]:
            if child.fanouts()[target]:
                child.substitute(target, CONST0)
        approx = estimate_power(
            child, library, simulate(child, vecs), vecs
        )
        assert approx.total_uw < base.total_uw

    def test_higher_frequency_more_power(self, adder4, library):
        vecs = random_vectors(len(adder4.pi_ids), 512, seed=1)
        values = simulate(adder4, vecs)
        slow = estimate_power(
            adder4, library, values, vecs, freq_ghz=0.5
        )
        fast = estimate_power(
            adder4, library, values, vecs, freq_ghz=2.0
        )
        assert fast.dynamic_uw == pytest.approx(4 * slow.dynamic_uw)
        assert fast.leakage_uw == pytest.approx(slow.leakage_uw)


class TestIncrementalSTA:
    def _assert_reports_match(self, full, fast):
        # Exact equality, not approx: the incremental module's contract
        # is bit-identical floats (sub-tolerance drift was a bug).
        assert fast.cpd == full.cpd
        for gid, r in full.index.row.items():
            f = fast.index.row[gid]
            assert fast.arrival_a[f] == full.arrival_a[r], gid
            assert fast.slew_a[f] == full.slew_a[r], gid
            assert fast.unit_depth_a[f] == full.unit_depth_a[r], gid
            assert fast.critical_fanin_a[f] == full.critical_fanin_a[r], gid

    def test_matches_full_after_lac(self, adder8, library):
        engine = STAEngine(library)
        before = engine.analyze(adder8)
        child = adder8.copy()
        target = child.logic_ids()[10]
        changed = child.substitute(target, CONST0)
        fast = update_timing(engine, child, before, changed)
        full = engine.analyze(child)
        self._assert_reports_match(full, fast)

    def test_matches_full_after_resize(self, adder8, library):
        engine = STAEngine(library)
        before = engine.analyze(adder8)
        child = adder8.copy()
        gid = child.logic_ids()[4]
        child.set_cell(gid, library.upsize(child.cells[gid]).name)
        fast = update_timing(engine, child, before, [gid])
        full = engine.analyze(child)
        self._assert_reports_match(full, fast)

    def test_matches_full_after_gate_removal(self, adder8, library):
        from repro.netlist import remove_dangling

        engine = STAEngine(library)
        child = adder8.copy()
        before = engine.analyze(child)
        target = child.logic_ids()[6]
        changed = child.substitute(target, CONST0)
        remove_dangling(child)
        fast = update_timing(engine, child, before, changed)
        full = engine.analyze(child)
        self._assert_reports_match(full, fast)

    def test_chain_of_edits(self, adder8, library):
        """Repeated incremental updates must not drift from full STA.

        Each step retimes a copy of the previous step's circuit against
        the report the previous ``update_timing`` returned.
        """
        engine = STAEngine(library)
        circuit = adder8
        report = engine.analyze(circuit)
        steps = 0
        for idx in (3, 9, 15):
            logic = circuit.logic_ids()
            target = logic[idx % len(logic)]
            if not circuit.fanouts()[target]:
                continue
            child = circuit.copy()
            changed = child.substitute(target, CONST0)
            inc = update_timing(engine, child, report, changed)
            # Same rows as the parent: the step did not fall back to
            # analyze, which would build the child its own index.
            assert inc.index is report.index
            circuit, report = child, inc
            steps += 1
        assert steps == 3
        full = engine.analyze(circuit)
        self._assert_reports_match(full, report)
