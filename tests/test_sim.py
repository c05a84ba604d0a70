"""Unit tests for packed simulation, vectors, error metrics, similarity."""

import numpy as np
import pytest

from repro.cells import split_cell_name
from repro.netlist import CONST0, CONST1, CircuitBuilder
from repro.sim import (
    ErrorMode,
    count_ones,
    error_rate,
    error_report,
    evaluate_single,
    exhaustive_vectors,
    mean_error_distance,
    measure_error,
    nmed,
    per_po_error,
    per_po_error_rate,
    po_words,
    random_vectors,
    rank_switches,
    resimulate_cone,
    best_switch,
    constant_similarities,
    similarity,
    simulate,
)
from repro.sim import bitsim
from repro.sim.vectors import VectorSet


def decode_outputs(circuit, values, num_vectors):
    """Decode PO words into per-vector unsigned ints (LSB-first)."""
    mat = po_words(circuit, values)
    out = []
    for k in range(num_vectors):
        w, b = divmod(k, 64)
        val = 0
        for i in range(mat.shape[0]):
            val |= ((int(mat[i, w]) >> b) & 1) << i
        out.append(val)
    return out


class TestVectors:
    def test_exhaustive_enumerates_all(self):
        vecs = exhaustive_vectors(3)
        assert vecs.num_vectors == 8
        seen = {tuple(vecs.vector(k)) for k in range(8)}
        assert len(seen) == 8

    def test_exhaustive_bit_k_is_binary_of_index(self):
        vecs = exhaustive_vectors(4)
        for k in (0, 5, 9, 15):
            assert vecs.vector(k) == [(k >> i) & 1 for i in range(4)]

    def test_random_vectors_tail_masked(self):
        vecs = random_vectors(2, 70, seed=1)
        assert vecs.num_words == 2
        tail = int(vecs.words[0, -1])
        assert tail < (1 << 6)

    def test_random_vectors_deterministic_by_seed(self):
        a = random_vectors(3, 128, seed=7)
        b = random_vectors(3, 128, seed=7)
        c = random_vectors(3, 128, seed=8)
        assert (a.words == b.words).all()
        assert (a.words != c.words).any()

    def test_count_ones_masks_tail(self):
        row = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert count_ones(row, 10) == 10
        assert count_ones(row, 64) == 64

    def test_vectorset_shape_validation(self):
        with pytest.raises(ValueError):
            VectorSet(np.zeros((2, 3), dtype=np.uint64), 65)
        with pytest.raises(ValueError):
            VectorSet(np.zeros((2, 2), dtype=np.int64), 128)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_vectors(0, 16)
        with pytest.raises(ValueError):
            exhaustive_vectors(25)


class TestSimulate:
    def test_matches_scalar_oracle_fig3(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        for k in range(vecs.num_vectors):
            bits = dict(zip(fig3.pi_ids, vecs.vector(k)))
            ref = evaluate_single(fig3, bits)
            w, b = divmod(k, 64)
            for gid in fig3.fanins:
                got = (int(values[gid][w]) >> b) & 1
                assert got == ref[gid], f"gate {gid} vector {k}"

    def test_adder_computes_sums(self, adder4):
        vecs = exhaustive_vectors(8)
        values = simulate(adder4, vecs)
        outs = decode_outputs(adder4, values, vecs.num_vectors)
        for k in range(vecs.num_vectors):
            bits = vecs.vector(k)
            a = sum(bit << i for i, bit in enumerate(bits[:4]))
            b = sum(bit << i for i, bit in enumerate(bits[4:]))
            assert outs[k] == a + b

    def test_constants_materialised(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        assert int(values[CONST0][0]) == 0
        assert int(values[CONST1][0]) == 0xFFFFFFFFFFFFFFFF

    def test_wrong_input_count_rejected(self, fig3):
        with pytest.raises(ValueError):
            simulate(fig3, exhaustive_vectors(3))

    def test_resimulate_cone_matches_full(self, adder4):
        vecs = exhaustive_vectors(8)
        base = simulate(adder4, vecs)
        target = adder4.logic_ids()[2]
        switch = CONST0
        approx = adder4.copy()
        changed = approx.substitute(target, switch)
        fast = resimulate_cone(approx, vecs, base, changed)
        full = simulate(approx, vecs)
        for gid in approx.fanins:
            assert (fast[gid] == full[gid]).all(), gid

    def test_cell_names_parsed_once(self, adder4, monkeypatch):
        parsed = []

        def counting(name):
            parsed.append(name)
            return split_cell_name(name)

        monkeypatch.setattr(bitsim, "_FUNCTION_OF", {})
        monkeypatch.setattr(bitsim, "split_cell_name", counting)
        vecs = exhaustive_vectors(8)
        want = simulate(adder4, vecs)
        got = simulate(adder4, vecs)
        assert np.array_equal(got.matrix, want.matrix)
        logic = {adder4.cells[g] for g in adder4.logic_ids()}
        assert sorted(parsed) == sorted(logic)

    def test_bad_cell_name_raises_every_time(self, adder4, monkeypatch):
        monkeypatch.setattr(bitsim, "_FUNCTION_OF", {})
        vecs = exhaustive_vectors(8)
        bad = adder4.copy()
        bad.cells[bad.logic_ids()[0]] = "NOT_A_CELL"
        for _ in range(2):
            with pytest.raises(ValueError, match="NOT_A_CELL"):
                simulate(bad, vecs)
        assert "NOT_A_CELL" not in bitsim._FUNCTION_OF


class TestErrorMetrics:
    def test_identical_circuits_zero_error(self, adder4):
        vecs = exhaustive_vectors(8)
        mat = po_words(adder4, simulate(adder4, vecs))
        assert error_rate(mat, mat, vecs.num_vectors) == 0.0
        assert nmed(mat, mat, vecs.num_vectors) == 0.0

    def test_single_wire_er_exact(self):
        b = CircuitBuilder()
        a = b.pi("a")
        buf = b.gate("BUF", a)
        b.po(buf, "y")
        c = b.done()
        approx = c.copy()
        approx.substitute(buf, CONST0)
        vecs = exhaustive_vectors(1)
        ref = po_words(c, simulate(c, vecs))
        app = po_words(approx, simulate(approx, vecs))
        assert error_rate(ref, app, 2) == pytest.approx(0.5)
        assert nmed(ref, app, 2) == pytest.approx(0.5)

    def test_nmed_weights_msb_higher(self):
        """Killing the MSB must cost more NMED than killing the LSB."""
        def two_bit_circuit():
            b = CircuitBuilder()
            a0, a1 = b.pis(2)
            g0, g1 = b.gate("BUF", a0), b.gate("BUF", a1)
            b.pos([g0, g1])
            return b.done(), (g0, g1)

        vecs = exhaustive_vectors(2)
        base, (g0, g1) = two_bit_circuit()
        ref = po_words(base, simulate(base, vecs))

        kill_lsb, _ = two_bit_circuit()
        kill_lsb.substitute(g0, CONST0)
        lsb = po_words(kill_lsb, simulate(kill_lsb, vecs))

        kill_msb, _ = two_bit_circuit()
        kill_msb.substitute(g1, CONST0)
        msb = po_words(kill_msb, simulate(kill_msb, vecs))

        assert nmed(ref, msb, 4) > nmed(ref, lsb, 4)
        # Same flip probability though:
        assert error_rate(ref, msb, 4) == error_rate(ref, lsb, 4)

    def test_med_vs_nmed_scaling(self):
        b = CircuitBuilder()
        a0, a1 = b.pis(2)
        g1 = b.gate("BUF", a1)
        b.pos([b.gate("BUF", a0), g1])
        c = b.done()
        approx = c.copy()
        approx.substitute(g1, CONST0)
        vecs = exhaustive_vectors(2)
        ref = po_words(c, simulate(c, vecs))
        app = po_words(approx, simulate(approx, vecs))
        med = mean_error_distance(ref, app, 4)
        assert med == pytest.approx(nmed(ref, app, 4) * 3.0)

    def test_per_po_error_rate(self, adder4):
        vecs = exhaustive_vectors(8)
        approx = adder4.copy()
        approx.substitute(adder4.po_ids and adder4.fanins[adder4.po_ids[0]][0], CONST0)
        ref = po_words(adder4, simulate(adder4, vecs))
        app = po_words(approx, simulate(approx, vecs))
        rates = per_po_error_rate(ref, app, vecs.num_vectors)
        assert len(rates) == len(adder4.po_ids)
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert max(rates) > 0.0

    def test_per_po_error_nmed_mode_weighted(self, adder4):
        vecs = exhaustive_vectors(8)
        approx = adder4.copy()
        driver = adder4.fanins[adder4.po_ids[-1]][0]
        approx.substitute(driver, CONST0)
        ref = po_words(adder4, simulate(adder4, vecs))
        app = po_words(approx, simulate(approx, vecs))
        er_mode = per_po_error(ErrorMode.ER, ref, app, vecs.num_vectors)
        nmed_mode = per_po_error(ErrorMode.NMED, ref, app, vecs.num_vectors)
        # NMED-mode weights shrink low-order contributions.
        assert nmed_mode[0] <= er_mode[0]

    def test_measure_error_dispatch(self):
        ref = np.array([[0]], dtype=np.uint64)
        app = np.array([[1]], dtype=np.uint64)
        assert measure_error(ErrorMode.ER, ref, app, 1) == 1.0
        assert measure_error(ErrorMode.NMED, ref, app, 1) == 1.0

    def test_error_report_bundle(self, adder4):
        vecs = exhaustive_vectors(8)
        values = simulate(adder4, vecs)
        approx = adder4.copy()
        approx.substitute(approx.logic_ids()[0], CONST1)
        values_app = simulate(approx, vecs)
        report = error_report(
            ErrorMode.NMED, adder4, values, approx, values_app, vecs
        )
        assert report.value == report.nmed
        assert 0.0 <= report.error_rate <= 1.0
        assert len(report.per_po) == len(adder4.po_ids)

    def test_shape_mismatch_rejected(self):
        ref = np.zeros((2, 1), dtype=np.uint64)
        app = np.zeros((3, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            error_rate(ref, app, 64)


class TestSimilarity:
    def test_similarity_bounds_and_identity(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        assert similarity(values, 5, 5, vecs.num_vectors) == 1.0
        s = similarity(values, 5, 6, vecs.num_vectors)
        assert 0.0 <= s <= 1.0

    def test_constant_similarities_sum_to_one(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        s0, s1 = constant_similarities(values, 8, vecs.num_vectors)
        assert s0 + s1 == pytest.approx(1.0)

    def test_paper_example_gate8_prefers_const0(self, fig3):
        """Fig. 5: NOR gate 8 output is mostly 0 -> const0 wins.

        With our cell assignment gate 8 is NOR2(AND2(1,2), OR2(2,3));
        its output is 1 only when i2=0,i3=0 -> and AND=0 -> 4/16? NOR is 1
        when both inputs 0: AND2(1,2)=0 and OR2(2,3)=0 -> i2=i3=0 (4 of 16
        vectors).  So similarity to const0 is 0.75 and const0 must rank
        above const1.
        """
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        s0, s1 = constant_similarities(values, 8, vecs.num_vectors)
        assert s0 == pytest.approx(0.75)
        assert s1 == pytest.approx(0.25)

    def test_rank_switches_candidates_are_tfi(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        ranked = rank_switches(fig3, values, 11, vecs.num_vectors)
        gates = {g for g, _ in ranked}
        assert gates <= fig3.transitive_fanin(11) | {CONST0, CONST1}
        sims = [s for _, s in ranked]
        assert sims == sorted(sims, reverse=True)

    def test_best_switch_never_target_or_po(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        for target in fig3.logic_ids():
            found = best_switch(fig3, values, target, vecs.num_vectors)
            assert found is not None
            switch, sim = found
            assert switch != target
            assert not fig3.is_po(switch)
            assert 0.0 <= sim <= 1.0

    def test_exclude_constants(self, fig3):
        vecs = exhaustive_vectors(4)
        values = simulate(fig3, vecs)
        ranked = rank_switches(
            fig3, values, 11, vecs.num_vectors, include_constants=False
        )
        assert all(g >= 0 for g, _ in ranked)
