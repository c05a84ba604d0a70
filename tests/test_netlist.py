"""Unit tests for the fan-in adjacency circuit and transforms."""

import gc
import weakref

import pytest

from reference_circuits import build_fig3_circuit

from repro.netlist import (
    CONST0,
    CONST1,
    Circuit,
    CircuitBuilder,
    CircuitLoopError,
    ValidationError,
    is_const,
    is_valid,
    po_cone,
    pruned_copy,
    relabel_compact,
    remove_dangling,
    shared_gates,
    validate,
)


class TestCircuitConstruction:
    def test_fig3_matches_paper_adjacency(self, fig3):
        """Fig. 3's printed adjacency must be reproduced exactly."""
        assert fig3.fanins[5] == (1, 2)
        assert fig3.fanins[6] == (2, 3)
        assert fig3.fanins[7] == (3, 4)
        assert fig3.fanins[8] == (5, 6)
        assert fig3.fanins[9] == (6, 7)
        assert fig3.fanins[10] == (4, 7)
        assert fig3.fanins[11] == (5, 8)
        assert fig3.fanins[12] == (9, 10)
        assert fig3.fanins[13] == (11,)
        assert fig3.fanins[14] == (9,)
        assert fig3.fanins[15] == (12,)
        assert fig3.num_gates == 8
        assert len(fig3.pi_ids) == 4 and len(fig3.po_ids) == 3

    def test_missing_fanin_rejected(self):
        c = Circuit()
        with pytest.raises(KeyError):
            c.add_gate("AND2D1", (1, 2))

    def test_po_driver_must_exist(self):
        c = Circuit()
        with pytest.raises(KeyError):
            c.add_po(42)

    def test_constants_allowed_as_fanins(self):
        c = Circuit()
        a = c.add_pi("a")
        g = c.add_gate("AND2D1", (a, CONST1))
        c.add_po(g)
        validate(c)

    def test_is_const(self):
        assert is_const(CONST0) and is_const(CONST1)
        assert not is_const(1)


class TestGraphQueries:
    def test_topological_order(self, fig3):
        order = fig3.topological_order()
        pos = {g: i for i, g in enumerate(order)}
        for gid, fis in fig3.fanins.items():
            for fi in fis:
                if not is_const(fi):
                    assert pos[fi] < pos[gid]

    def test_loop_detection(self):
        c = Circuit()
        a = c.add_pi("a")
        g1 = c.add_gate("AND2D1", (a, a))
        g2 = c.add_gate("OR2D1", (g1, a))
        c.set_fanins(g1, (a, g2))  # creates g1 -> g2 -> g1
        with pytest.raises(CircuitLoopError):
            c.topological_order()

    def test_transitive_fanin(self, fig3):
        tfi = fig3.transitive_fanin(11)
        assert tfi == {5, 8, 6, 1, 2, 3}
        assert fig3.transitive_fanin(11, include_self=True) == tfi | {11}

    def test_transitive_fanout(self, fig3):
        tfo = fig3.transitive_fanout(6)
        assert tfo == {8, 9, 11, 12, 13, 14, 15}

    def test_live_and_dangling(self, fig3):
        assert fig3.dangling_gates() == set()
        # Cut PO3's cone down to gate 7 only: 12, 10 become dangling.
        fig3.set_fanins(15, (7,))
        assert fig3.dangling_gates() == {12, 10}

    def test_fanouts(self, fig3):
        fo = fig3.fanouts()
        assert sorted(fo[7]) == [9, 10]
        assert fo[13] == []


class TestMutation:
    def test_substitute_rewrites_all_slots(self, fig3):
        # Replace gate 7 with constant 1 everywhere.
        changed = fig3.substitute(7, CONST1)
        assert sorted(changed) == [9, 10]
        assert fig3.fanins[9] == (6, CONST1)
        assert fig3.fanins[10] == (4, CONST1)

    def test_substitute_wire_by_wire(self, fig3):
        fig3.substitute(8, 2)  # paper example shape: use TFI gate
        assert fig3.fanins[11] == (5, 2)
        validate(fig3)

    def test_substitute_self_rejected(self, fig3):
        with pytest.raises(ValueError):
            fig3.substitute(7, 7)

    def test_substitute_constant_target_rejected(self, fig3):
        with pytest.raises(ValueError):
            fig3.substitute(CONST0, 7)

    def test_set_cell_on_logic_only(self, fig3):
        fig3.set_cell(5, "AND2D2")
        assert fig3.cells[5] == "AND2D2"
        with pytest.raises(ValueError):
            fig3.set_cell(1, "AND2D2")  # a PI

    def test_remove_gate_guards_ports(self, fig3):
        with pytest.raises(ValueError):
            fig3.remove_gate(1)
        with pytest.raises(ValueError):
            fig3.remove_gate(13)


class TestCopyAndIdentity:
    def test_copy_is_independent(self, fig3):
        c2 = fig3.copy()
        c2.substitute(8, CONST0)
        assert fig3.fanins[11] == (5, 8)
        assert c2.fanins[11] == (5, CONST0)

    def test_structure_key_ignores_dangling(self, fig3):
        key = fig3.structure_key()
        c2 = fig3.copy()
        c2.set_fanins(15, (7,))  # gates 10, 12 now dangle
        key_cut = c2.structure_key()
        assert key_cut != key
        pruned = pruned_copy(c2)
        assert pruned.structure_key() == key_cut

    def test_repr(self, fig3):
        assert "gates=8" in repr(fig3)

    def test_freed_without_cyclic_collector(self):
        # Reference counting alone must free a circuit and its copy:
        # no cycle may run through the tracked dicts' owner references.
        enabled = gc.isenabled()
        gc.disable()
        try:
            circuit = build_fig3_circuit()
            child = circuit.copy()
            child.substitute(8, CONST0)
            child.topological_order()
            fanins = child.fanins
            refs = [weakref.ref(circuit), weakref.ref(child)]
            del circuit, child
            assert [r() for r in refs] == [None, None]
            fanins[8] = (CONST1,)  # owner gone: the write bumps nothing
        finally:
            if enabled:
                gc.enable()


class TestValidate:
    def test_valid_circuit_passes(self, fig3, library):
        validate(fig3, library)
        assert is_valid(fig3, library)

    def test_arity_mismatch_detected(self, fig3):
        fig3.fanins[5] = (1,)
        with pytest.raises(ValidationError):
            validate(fig3)

    def test_unknown_function_detected(self, fig3):
        fig3.cells[5] = "FROB2D1"
        with pytest.raises(ValidationError):
            validate(fig3)

    def test_malformed_cell_name_detected(self, fig3):
        fig3.cells[5] = "garbage"
        with pytest.raises(ValidationError):
            validate(fig3)

    def test_dangling_reference_detected(self, fig3):
        fig3.fanins[5] = (1, 999)
        with pytest.raises(ValidationError):
            validate(fig3)

    def test_loop_detected(self, fig3):
        fig3.set_fanins(5, (1, 11))
        with pytest.raises(ValidationError):
            validate(fig3)

    def test_cell_not_in_library_detected(self, fig3, library):
        fig3.cells[5] = "MAJ3D9"  # well-formed name, absent drive
        with pytest.raises(ValidationError):
            validate(fig3, library)

    def test_area_names_a_cell_not_in_library(self, fig3, library):
        fig3.cells[5] = "MAJ3D9"
        with pytest.raises(KeyError, match="'MAJ3D9' not in library"):
            fig3.area(library)


class TestTransforms:
    def test_remove_dangling(self, fig3):
        fig3.set_fanins(15, (7,))
        removed = remove_dangling(fig3)
        assert removed == 2
        assert 10 not in fig3.fanins and 12 not in fig3.fanins
        validate(fig3)

    def test_remove_dangling_iterative_chain(self):
        """A dangling gate must free its now-unused fan-in chain."""
        b = CircuitBuilder("chain")
        a = b.pi("a")
        g1 = b.inv(a)
        g2 = b.inv(g1)
        g3 = b.inv(g2)
        b.po(a, "o")  # nothing observes the chain
        c = b.done()
        assert remove_dangling(c) == 3
        assert all(g not in c.fanins for g in (g1, g2, g3))

    def test_po_cone(self, fig3):
        cone = po_cone(fig3, 14)  # PO2 <- 9
        assert cone == {14, 9, 6, 7, 2, 3, 4}
        with pytest.raises(ValueError):
            po_cone(fig3, 9)

    def test_shared_gates(self, fig3):
        counts = shared_gates(fig3)
        assert counts[7] == 2  # in PO2 and PO3 cones
        assert counts[11] == 1

    def test_relabel_compact(self, fig3):
        fig3.set_fanins(15, (7,))
        remove_dangling(fig3)
        compact, mapping = relabel_compact(fig3)
        assert compact.num_gates == fig3.num_gates
        assert sorted(compact.fanins) == list(range(1, len(compact.fanins) + 1))
        validate(compact)
        # PO names preserved
        assert sorted(compact.po_names.values()) == ["o1", "o2", "o3"]


class TestBuilder:
    def test_ripple_adder_structure(self, adder4):
        assert len(adder4.pi_ids) == 8
        assert len(adder4.po_ids) == 5
        assert adder4.num_gates > 0
        validate(adder4)

    def test_reduce_tree_balanced(self):
        b = CircuitBuilder()
        xs = b.pis(8)
        out = b.reduce_tree("AND2", xs)
        b.po(out)
        c = b.done()
        # A balanced tree over 8 leaves has depth 3, i.e. 7 AND gates.
        assert c.num_gates == 7

    def test_reduce_tree_empty_rejected(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            b.reduce_tree("AND2", [])

    def test_gate_arity_check(self):
        b = CircuitBuilder()
        a = b.pi()
        with pytest.raises(ValueError):
            b.gate("AND2", a)

    def test_mux_word_width_check(self):
        b = CircuitBuilder()
        xs = b.pis(3)
        with pytest.raises(ValueError):
            b.mux_word(xs[:2], xs, xs[0])

    def test_subtractor_has_const_cin(self):
        b = CircuitBuilder()
        a = b.pis(2, "a")
        bb = b.pis(2, "b")
        diff, borrow_n = b.subtractor(a, bb)
        b.pos(diff + [borrow_n], "d")
        validate(b.done())
