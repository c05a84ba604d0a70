"""Cross-module property-based tests on randomly generated circuits.

These pin the system-level invariants everything else rests on:

* Verilog round-trips preserve function exactly;
* dangling-gate removal and compaction never change PO functions;
* LACs keep circuits acyclic and their measured ER is bounded by the
  switch's dissimilarity;
* NMED never exceeds ER;
* STA arrivals are monotone along every edge and resizing a cell never
  changes function.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import random_control_circuit
from repro.core import LAC, applied_copy
from repro.netlist import (
    CONST0,
    CONST1,
    is_const,
    parse_verilog,
    pruned_copy,
    relabel_compact,
    validate,
    write_verilog,
)
from repro.sim import (
    best_switch,
    error_rate,
    nmed,
    po_words,
    random_vectors,
    similarity,
    simulate,
)
from repro.sta import STAEngine


def random_circuit(seed: int, gates: int = 60):
    rng = random.Random(seed)
    return random_control_circuit(
        f"rand{seed}",
        num_pis=rng.randint(3, 8),
        num_pos=rng.randint(2, 5),
        num_gates=gates,
        seed=seed,
    )


def po_matrix(circuit, vectors):
    return po_words(circuit, simulate(circuit, vectors))


circuit_seeds = st.integers(0, 10_000)


class TestRoundTripProperties:
    @given(seed=circuit_seeds)
    @settings(max_examples=25, deadline=None)
    def test_verilog_roundtrip_equivalence(self, seed):
        circuit = random_circuit(seed)
        parsed = parse_verilog(write_verilog(circuit))
        validate(parsed)
        vecs = random_vectors(len(circuit.pi_ids), 256, seed=seed)
        assert (po_matrix(circuit, vecs) == po_matrix(parsed, vecs)).all()

    @given(seed=circuit_seeds)
    @settings(max_examples=25, deadline=None)
    def test_compaction_equivalence(self, seed):
        circuit = random_circuit(seed)
        compact, _ = relabel_compact(circuit)
        validate(compact)
        vecs = random_vectors(len(circuit.pi_ids), 256, seed=seed)
        assert (po_matrix(circuit, vecs) == po_matrix(compact, vecs)).all()


class TestLACProperties:
    def _random_lac(self, circuit, rng, vectors):
        values = simulate(circuit, vectors)
        logic = circuit.logic_ids()
        for _ in range(10):
            target = logic[rng.randrange(len(logic))]
            found = best_switch(circuit, values, target, vectors.num_vectors)
            if found is not None:
                lac = LAC(target, found[0])
                from repro.core import is_safe

                if is_safe(circuit, lac):
                    return lac, values, found[1]
        return None, values, 0.0

    @given(seed=circuit_seeds)
    @settings(max_examples=25, deadline=None)
    def test_lac_keeps_circuit_valid(self, seed):
        circuit = random_circuit(seed)
        rng = random.Random(seed)
        vecs = random_vectors(len(circuit.pi_ids), 256, seed=seed)
        lac, _, _ = self._random_lac(circuit, rng, vecs)
        if lac is None:
            return
        child = applied_copy(circuit, lac)
        validate(child)

    @given(seed=circuit_seeds)
    @settings(max_examples=25, deadline=None)
    def test_er_bounded_by_switch_dissimilarity(self, seed):
        """An output can only flip on vectors where switch != target, so
        ER <= 1 - similarity(target, switch)."""
        circuit = random_circuit(seed)
        rng = random.Random(seed)
        vecs = random_vectors(len(circuit.pi_ids), 512, seed=seed)
        lac, values, sim = self._random_lac(circuit, rng, vecs)
        if lac is None:
            return
        child = applied_copy(circuit, lac)
        ref = po_words(circuit, values)
        app = po_matrix(child, vecs)
        er = error_rate(ref, app, vecs.num_vectors)
        assert er <= (1.0 - sim) + 1e-12

    @given(seed=circuit_seeds)
    @settings(max_examples=25, deadline=None)
    def test_dangling_removal_preserves_function(self, seed):
        circuit = random_circuit(seed)
        rng = random.Random(seed)
        vecs = random_vectors(len(circuit.pi_ids), 256, seed=seed)
        lac, _, _ = self._random_lac(circuit, rng, vecs)
        if lac is None:
            return
        child = applied_copy(circuit, lac)
        pruned = pruned_copy(child)
        validate(pruned)
        assert (po_matrix(child, vecs) == po_matrix(pruned, vecs)).all()


class TestMetricProperties:
    @given(seed=circuit_seeds)
    @settings(max_examples=25, deadline=None)
    def test_nmed_never_exceeds_er(self, seed):
        """|V_ori - V_app| / (2^n - 1) <= 1, so its mean <= P[any flip]."""
        circuit = random_circuit(seed)
        rng = random.Random(seed)
        vecs = random_vectors(len(circuit.pi_ids), 512, seed=seed)
        values = simulate(circuit, vecs)
        logic = circuit.logic_ids()
        target = logic[rng.randrange(len(logic))]
        child = applied_copy(
            circuit, LAC(target, CONST0 if rng.random() < 0.5 else CONST1)
        )
        ref = po_words(circuit, values)
        app = po_matrix(child, vecs)
        assert nmed(ref, app, vecs.num_vectors) <= error_rate(
            ref, app, vecs.num_vectors
        ) + 1e-12

    @given(seed=circuit_seeds)
    @settings(max_examples=15, deadline=None)
    def test_similarity_symmetry(self, seed):
        circuit = random_circuit(seed, gates=30)
        vecs = random_vectors(len(circuit.pi_ids), 256, seed=seed)
        values = simulate(circuit, vecs)
        rng = random.Random(seed)
        ids = circuit.logic_ids()
        a, b = rng.sample(ids, 2)
        assert similarity(values, a, b, vecs.num_vectors) == pytest.approx(
            similarity(values, b, a, vecs.num_vectors)
        )


class TestSTAProperties:
    @given(seed=circuit_seeds)
    @settings(max_examples=15, deadline=None)
    def test_arrival_monotone_on_every_edge(self, seed, ):
        from repro.cells import default_library

        circuit = random_circuit(seed)
        report = STAEngine(default_library()).analyze(circuit)
        row, arrival = report.index.row, report.arrival_a
        for gid, fis in circuit.fanins.items():
            if not circuit.is_logic(gid):
                continue
            for fi in fis:
                if not is_const(fi):
                    assert arrival[row[gid]] > arrival[row[fi]]

    @given(seed=circuit_seeds)
    @settings(max_examples=10, deadline=None)
    def test_resize_preserves_function(self, seed):
        from repro.cells import default_library
        from repro.postopt import resize_for_timing

        library = default_library()
        circuit = random_circuit(seed, gates=40)
        vecs = random_vectors(len(circuit.pi_ids), 256, seed=seed)
        before = po_matrix(circuit, vecs)
        resize_for_timing(
            circuit, library, area_con=1.5 * circuit.area(library)
        )
        validate(circuit, library)
        after = po_matrix(circuit, vecs)
        assert (before == after).all()
