"""Unit tests for the synthetic cell library and NLDM timing model."""

import math

import pytest

from repro.cells import (
    DRIVE_CODES,
    FUNCTIONS,
    LinearTimingSpec,
    NLDMTable,
    cell_name,
    characterize,
    default_library,
    make_tsmc28_like,
    split_cell_name,
)


class TestCellFunctions:
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_word_eval_matches_bit_eval(self, name):
        """The packed evaluator must agree with the scalar oracle."""
        fn = FUNCTIONS[name]
        for assignment in range(2**fn.arity):
            bits = [(assignment >> i) & 1 for i in range(fn.arity)]
            # One-lane rows: a row is exactly as wide as ``ones``.
            assert fn(bits, 1) == fn.bit_eval(bits)
            # The same assignment on every lane of a 70-lane row.
            ones = (1 << 70) - 1
            rows = [ones if b else 0 for b in bits]
            assert fn(rows, ones) == (ones if fn.bit_eval(bits) else 0)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            FUNCTIONS["AND2"]([0], 1)

    def test_mux2_selects(self):
        mux = FUNCTIONS["MUX2"]
        assert mux.bit_eval([1, 0, 0]) == 1  # sel=0 -> d0
        assert mux.bit_eval([1, 0, 1]) == 0  # sel=1 -> d1

    def test_maj3_is_majority(self):
        maj = FUNCTIONS["MAJ3"]
        assert maj.bit_eval([1, 1, 0]) == 1
        assert maj.bit_eval([1, 0, 0]) == 0


class TestCellNames:
    def test_roundtrip(self):
        assert split_cell_name(cell_name("OR2", 1)) == ("OR2", 1)
        assert split_cell_name("XNOR2D0") == ("XNOR2", 0)

    @pytest.mark.parametrize("bad", ["", "D1", "OR2", "OR2Dx", "or2d1x"])
    def test_malformed_names(self, bad):
        with pytest.raises(ValueError):
            split_cell_name(bad)


class TestNLDM:
    def test_interpolation_is_exact_at_breakpoints(self):
        spec = LinearTimingSpec(intrinsic=5.0, resistance=2.0)
        table = characterize(spec)
        for s in table.slew_axis:
            for l in table.load_axis:
                assert table.lookup(s, l) == pytest.approx(
                    spec.evaluate(s, l)
                )

    def test_interpolation_between_breakpoints(self):
        spec = LinearTimingSpec(
            intrinsic=5.0, resistance=2.0, slew_sensitivity=0.0, cross=0.0
        )
        table = characterize(spec)
        # With a purely affine spec, bilinear interpolation is exact
        # everywhere inside the grid.
        assert table.lookup(15.0, 3.0) == pytest.approx(5.0 + 2.0 * 3.0)

    def test_clamping_outside_grid(self):
        spec = LinearTimingSpec(intrinsic=5.0, resistance=2.0)
        table = characterize(spec)
        lo = table.lookup(-100.0, -100.0)
        hi = table.lookup(1e9, 1e9)
        assert lo == pytest.approx(table.values[0][0])
        assert hi == pytest.approx(table.values[-1][-1])

    def test_monotone_in_load(self):
        table = characterize(LinearTimingSpec(intrinsic=5.0, resistance=2.0))
        prev = -math.inf
        for load in (0.5, 1.0, 3.0, 10.0, 30.0):
            val = table.lookup(10.0, load)
            assert val > prev
            prev = val

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            NLDMTable((1.0,), (1.0, 2.0), ((1.0, 2.0),))
        with pytest.raises(ValueError):
            NLDMTable((2.0, 1.0), (1.0, 2.0), ((1.0, 2.0), (1.0, 2.0)))


class TestLibrary:
    def test_every_function_has_all_drives(self, library):
        for fn in library.functions():
            drives = [c.drive for c in library.variants(fn)]
            assert drives == list(DRIVE_CODES)

    def test_higher_drive_is_faster_under_load(self, library):
        """The monotone trade-off the resizer depends on."""
        for fn in library.functions():
            variants = library.variants(fn)
            heavy_load = 16.0
            delays = [c.delay(20.0, heavy_load) for c in variants]
            assert delays == sorted(delays, reverse=True), fn

    def test_higher_drive_is_bigger(self, library):
        for fn in library.functions():
            areas = [c.area for c in library.variants(fn)]
            assert areas == sorted(areas), fn

    def test_default_cell_is_d1(self, library):
        assert library.default_cell("NAND2").drive == 1

    def test_upsize_downsize(self, library):
        up = library.upsize("NAND2D1")
        assert up is not None and up.drive == 2
        assert library.upsize("NAND2D4") is None
        down = library.downsize("NAND2D1")
        assert down is not None and down.drive == 0
        assert library.downsize("NAND2D0") is None

    def test_unknown_lookups_raise(self, library):
        with pytest.raises(KeyError):
            library.cell("FOO9D1")
        with pytest.raises(KeyError):
            library.variants("FOO9")

    def test_duplicate_cells_rejected(self, library):
        from repro.cells.library import Library

        cell = library.cell("INVD1")
        with pytest.raises(ValueError):
            Library("dup", [cell, cell])

    def test_default_library_is_shared(self):
        assert default_library() is default_library()

    def test_fresh_library_equivalent(self, library):
        other = make_tsmc28_like()
        assert len(other) == len(library)
        assert other.functions() == library.functions()

    def test_xor_slower_than_nand(self, library):
        xor = library.cell("XOR2D1")
        nand = library.cell("NAND2D1")
        assert xor.delay(10.0, 2.0) > nand.delay(10.0, 2.0)
        assert xor.area > nand.area
