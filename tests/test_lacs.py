"""Unit tests for local approximate changes."""

import pytest

from reference_circuits import (
    build_adder,
    build_consumers_first_circuit,
    build_fig3_circuit,
)

from repro.core import LAC, applied_copy, apply_lac, is_safe
from repro.netlist import CONST0, CONST1, relabel_compact, validate


class TestLACKind:
    def test_wire_by_constant(self):
        assert LAC(5, CONST0).kind == "wire-by-constant"
        assert LAC(5, CONST1).kind == "wire-by-constant"

    def test_wire_by_wire(self):
        assert LAC(5, 2).kind == "wire-by-wire"

    def test_str(self):
        assert "wire-by-wire(8 -> 2)" in str(LAC(8, 2))


class TestSafety:
    def test_tfi_switch_is_safe(self, fig3):
        assert is_safe(fig3, LAC(target=8, switch=2))
        assert is_safe(fig3, LAC(target=8, switch=5))

    def test_constants_always_safe(self, fig3):
        for target in fig3.logic_ids():
            assert is_safe(fig3, LAC(target, CONST0))
            assert is_safe(fig3, LAC(target, CONST1))

    def test_tfo_switch_unsafe(self, fig3):
        # 11 is in the TFO of 8: rewiring consumers of 8 to 11 loops.
        assert not is_safe(fig3, LAC(target=8, switch=11))

    def test_self_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(8, 8))

    def test_po_target_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(13, 5))

    def test_po_switch_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(8, 13))

    def test_missing_gate_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(999, 5))
        assert not is_safe(fig3, LAC(8, 999))

    def test_const_target_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(CONST0, 5))

    def test_sibling_switch_safe(self, fig3):
        # 9 is neither in TFI nor TFO of 10's cone start... 9 feeds 12
        # like 10 does; substituting 10 by 9 must be loop-free.
        assert is_safe(fig3, LAC(target=10, switch=9))
        c = fig3.copy()
        apply_lac(c, LAC(target=10, switch=9))
        validate(c)


class TestSafetyGuard:
    """``is_safe`` matches the TFO definition on gid-topological circuits,
    the order every circuit is renumbered into on entry."""

    @staticmethod
    def _tfo_definition(circuit, target, switch):
        return switch != target and switch not in circuit.transitive_fanout(
            target, include_self=True
        )

    @pytest.mark.parametrize(
        "build",
        [
            build_fig3_circuit,
            # Renumbered as parse_verilog and EvalContext.build do.
            pytest.param(
                lambda: relabel_compact(build_consumers_first_circuit())[0],
                id="build_consumers_first_circuit",
            ),
            lambda: build_adder(4),
        ],
    )
    def test_matches_tfo_definition_on_every_logic_pair(self, build):
        circuit = build()
        logic = circuit.logic_ids()
        for target in logic:
            for switch in logic:
                assert is_safe(circuit, LAC(target, switch)) == (
                    self._tfo_definition(circuit, target, switch)
                ), (target, switch)


class TestApply:
    def test_paper_fig5_wire_by_constant(self, fig3):
        """cs1 in Fig. 5: gate 8 replaced by constant 0 in gate 11."""
        changed = apply_lac(fig3, LAC(target=8, switch=CONST0))
        assert changed == [11]
        assert fig3.fanins[11] == (5, CONST0)
        validate(fig3)

    def test_paper_fig5_wire_by_wire(self, fig3):
        """cs2 in Fig. 5: PO 15's driver 12 replaced by gate 10."""
        # The PO-driver substitution is a wire-by-wire on gate 12.
        changed = apply_lac(fig3, LAC(target=12, switch=10))
        assert changed == [15]
        assert fig3.fanins[15] == (10,)
        validate(fig3)

    def test_unsafe_apply_raises(self, fig3):
        with pytest.raises(ValueError):
            apply_lac(fig3, LAC(target=8, switch=11))

    def test_applied_copy_leaves_original(self, fig3):
        child = applied_copy(fig3, LAC(target=8, switch=CONST0))
        assert fig3.fanins[11] == (5, 8)
        assert child.fanins[11] == (5, CONST0)
        validate(child)
