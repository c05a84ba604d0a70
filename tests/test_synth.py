"""Tests for the netlist cleanup passes, all equivalence-verified."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import random_control_circuit
from repro.bench.suite import SUITE, build_benchmark
from repro.netlist import (
    CONST0,
    CONST1,
    CircuitBuilder,
    check_equivalence,
    validate,
)
from repro.synth import (
    merge_duplicates,
    optimize_netlist,
    propagate_constants,
    remove_buffers,
    sweep,
)


class TestConstantPropagation:
    def _single_gate(self, fn, *fanin_consts):
        b = CircuitBuilder("t")
        pis = b.pis(4)
        args = []
        pi_iter = iter(pis)
        for c in fanin_consts:
            args.append(c if c is not None else next(pi_iter))
        g = b.gate(fn, *args)
        b.po(g, "o")
        return b.done()

    @pytest.mark.parametrize(
        "fn,consts",
        [
            ("AND2", (None, CONST0)),
            ("AND2", (None, CONST1)),
            ("OR2", (None, CONST1)),
            ("OR2", (None, CONST0)),
            ("NAND2", (None, CONST0)),
            ("NOR2", (None, CONST1)),
            ("XOR2", (None, CONST1)),
            ("XNOR2", (None, CONST0)),
            ("AND3", (None, None, CONST1)),
            ("NAND3", (None, None, CONST0)),
            ("OR3", (None, CONST0, None)),
            ("XOR3", (None, None, CONST1)),
            ("XOR3", (None, CONST0, CONST1)),
            ("MUX2", (None, None, CONST0)),
            ("MUX2", (None, None, CONST1)),
            ("MAJ3", (None, CONST1, CONST1)),
            ("MAJ3", (None, None, CONST0)),
            ("MAJ3", (None, None, CONST1)),
            ("INV", (CONST0,)),
            ("BUF", (None,)),
        ],
    )
    def test_fold_preserves_function(self, fn, consts, library):
        circuit = self._single_gate(fn, *consts)
        baseline = circuit.copy()
        n = propagate_constants(circuit)
        assert n >= 1
        sweep(circuit)
        validate(circuit, library)
        result = check_equivalence(baseline, circuit)
        assert result.equivalent and result.proven

    def test_cascade_folds_to_fixed_point(self, library):
        b = CircuitBuilder("cascade")
        a = b.pi("a")
        g1 = b.gate("AND2", a, CONST0)  # -> const0
        g2 = b.gate("OR2", g1, a)  # -> a after g1 folds
        g3 = b.gate("XOR2", g2, CONST0)  # -> a
        b.po(g3, "o")
        circuit = b.done()
        baseline = circuit.copy()
        propagate_constants(circuit)
        sweep(circuit)
        assert circuit.num_gates == 0
        assert check_equivalence(baseline, circuit).equivalent

    def test_no_false_folds(self):
        b = CircuitBuilder("pure")
        x, y = b.pis(2)
        b.po(b.and2(x, y), "o")
        circuit = b.done()
        assert propagate_constants(circuit) == 0


class TestBufferRemoval:
    def test_buf_chain(self):
        b = CircuitBuilder("bufs")
        a = b.pi("a")
        g = b.gate("BUF", b.gate("BUF", a))
        b.po(g, "o")
        circuit = b.done()
        baseline = circuit.copy()
        assert remove_buffers(circuit) == 2
        sweep(circuit)
        assert circuit.num_gates == 0
        assert check_equivalence(baseline, circuit).equivalent

    def test_double_inverter(self):
        b = CircuitBuilder("invinv")
        a = b.pi("a")
        g = b.inv(b.inv(a))
        extra = b.and2(g, a)
        b.po(extra, "o")
        circuit = b.done()
        baseline = circuit.copy()
        assert remove_buffers(circuit) >= 1
        sweep(circuit)
        assert check_equivalence(baseline, circuit).equivalent
        assert circuit.num_gates == 1  # just the AND2

    def test_single_inverter_kept(self):
        b = CircuitBuilder("inv")
        a = b.pi("a")
        b.po(b.inv(a), "o")
        circuit = b.done()
        assert remove_buffers(circuit) == 0
        assert circuit.num_gates == 1


class TestStructuralHashing:
    def test_identical_gates_merged(self):
        b = CircuitBuilder("dup")
        x, y = b.pis(2)
        g1 = b.and2(x, y)
        g2 = b.and2(x, y)
        b.po(b.or2(g1, g2), "o")
        circuit = b.done()
        baseline = circuit.copy()
        assert merge_duplicates(circuit) == 1
        sweep(circuit)
        assert check_equivalence(baseline, circuit).equivalent
        # OR2 now reads the surviving AND twice.
        assert circuit.num_gates == 2

    def test_different_cells_not_merged(self):
        b = CircuitBuilder("nodup")
        x, y = b.pis(2)
        g1 = b.and2(x, y)
        g2 = b.or2(x, y)
        b.po(b.xor2(g1, g2), "o")
        circuit = b.done()
        assert merge_duplicates(circuit) == 0

    def test_smaller_duplicate_id_survives(self):
        b = CircuitBuilder("dup-order")
        x, y = b.pis(2)
        g1 = b.and2(x, y)
        h = b.inv(g1)  # a consumer of g1 numbered below g2
        g2 = b.and2(x, y)
        b.po(b.or2(h, g2), "o")
        circuit = b.done()
        # List g2 before g1: the larger duplicate then comes first in
        # topological order.
        order = [x, y, g2] + [g for g in circuit.fanins if g not in (x, y, g2)]
        circuit.fanins = {g: circuit.fanins[g] for g in order}
        circuit.cells = {g: circuit.cells[g] for g in order}
        topo = circuit.topological_order()
        assert topo.index(g2) < topo.index(g1)
        baseline = circuit.copy()
        assert merge_duplicates(circuit) == 1
        assert circuit.fanins[h] == (g1,)
        assert circuit.gid_order_topo()
        sweep(circuit)
        assert g2 not in circuit.fanins
        assert check_equivalence(baseline, circuit).equivalent

    def test_cascaded_merges(self):
        b = CircuitBuilder("cascdup")
        x, y = b.pis(2)
        g1, g2 = b.and2(x, y), b.and2(x, y)
        h1, h2 = b.inv(g1), b.inv(g2)
        b.po(b.or2(h1, h2), "o")
        circuit = b.done()
        baseline = circuit.copy()
        assert merge_duplicates(circuit) == 2  # ANDs merge, then INVs
        sweep(circuit)
        assert check_equivalence(baseline, circuit).equivalent


class TestOptimizeNetlist:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_circuits_preserved(self, seed):
        circuit = random_control_circuit(
            "t", num_pis=6, num_pos=4, num_gates=80, seed=seed
        )
        # Inject approximation damage so there is something to clean.
        rng = random.Random(seed)
        logic = circuit.logic_ids()
        for _ in range(3):
            target = logic[rng.randrange(len(logic))]
            if circuit.fanouts()[target]:
                circuit.substitute(
                    target, CONST0 if rng.random() < 0.5 else CONST1
                )
        baseline = circuit.copy()
        stats = optimize_netlist(circuit)
        validate(circuit)
        assert stats.total >= 0
        result = check_equivalence(baseline, circuit)
        assert result.equivalent and result.proven

    def test_stats_accumulate(self):
        b = CircuitBuilder("mix")
        a, c = b.pis(2)
        g1 = b.gate("AND2", a, CONST1)  # folds to wire
        g2 = b.gate("BUF", g1)  # buffer
        g3, g4 = b.and2(g2, c), b.and2(g2, c)  # duplicates (post-fold)
        b.po(b.or2(g3, g4), "o")
        circuit = b.done()
        baseline = circuit.copy()
        stats = optimize_netlist(circuit)
        assert stats.constants_folded >= 1
        assert stats.buffers_removed >= 1
        assert stats.duplicates_merged >= 1
        assert stats.gates_swept >= 2
        assert check_equivalence(baseline, circuit).equivalent

    @pytest.mark.parametrize("profile", ["paper", "scaled"])
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_suite_circuits_stay_gid_topological(self, name, profile):
        circuit = build_benchmark(name, profile)
        assert circuit.gid_order_topo()
        optimize_netlist(circuit)
        assert circuit.gid_order_topo()

    def test_clean_circuit_is_noop(self, adder8):
        before = adder8.copy()
        stats = optimize_netlist(adder8)
        assert stats.total == 0
        assert adder8.fanins == before.fanins
