"""NLDM-style timing tables for the synthetic standard-cell library.

Commercial libraries (the paper uses TSMC 28 nm) characterise each timing
arc as a two-dimensional non-linear delay model (NLDM) lookup table indexed
by input slew and output load.  We reproduce that interface: tables are
generated from a calibrated linear RC model with a mild square-root
cross-term so that interpolation is actually exercised, and lookups use
bilinear interpolation with clamped extrapolation, exactly as an STA engine
would do against a ``.lib``.

Units follow liberty conventions scaled for a 28 nm-class process:
picoseconds for delay/slew and femtofarads for capacitance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

#: Default input-slew axis (ps) used when characterising tables.
DEFAULT_SLEW_AXIS: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)

#: Default output-load axis (fF) used when characterising tables.
DEFAULT_LOAD_AXIS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def _interp_index(axis: Sequence[float], value: float) -> Tuple[int, float]:
    """Locate ``value`` on ``axis`` and return ``(lo_index, fraction)``.

    The fraction is the normalised position between ``axis[lo]`` and
    ``axis[lo + 1]``.  Values outside the axis are clamped to the first or
    last segment (fraction 0.0 or 1.0), which mirrors the conservative
    clamping most STA tools apply instead of extrapolating.
    """
    if value <= axis[0]:
        return 0, 0.0
    if value >= axis[-1]:
        return len(axis) - 2, 1.0
    # The segment below the first breakpoint >= value.
    i = bisect_left(axis, value) - 1
    span = axis[i + 1] - axis[i]
    return i, (value - axis[i]) / span


@dataclass(frozen=True)
class NLDMTable:
    """A 2-D lookup table ``value = f(input_slew, output_load)``.

    Attributes:
        slew_axis: strictly increasing input-slew breakpoints (ps).
        load_axis: strictly increasing output-load breakpoints (fF).
        values: row-major table, ``values[i][j]`` is the characterised value
            at ``slew_axis[i]`` / ``load_axis[j]``.
    """

    slew_axis: Tuple[float, ...]
    load_axis: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.slew_axis) < 2 or len(self.load_axis) < 2:
            raise ValueError("NLDM axes need at least two breakpoints")
        if any(b <= a for a, b in zip(self.slew_axis, self.slew_axis[1:])):
            raise ValueError("slew axis must be strictly increasing")
        if any(b <= a for a, b in zip(self.load_axis, self.load_axis[1:])):
            raise ValueError("load axis must be strictly increasing")
        if len(self.values) != len(self.slew_axis):
            raise ValueError("table rows must match slew axis length")
        if any(len(row) != len(self.load_axis) for row in self.values):
            raise ValueError("table columns must match load axis length")

    def lookup(self, slew: float, load: float) -> float:
        """Bilinearly interpolate the table at ``(slew, load)``.

        Out-of-range queries are clamped to the table boundary.
        """
        i, fs = _interp_index(self.slew_axis, slew)
        j, fl = _interp_index(self.load_axis, load)
        v00 = self.values[i][j]
        v01 = self.values[i][j + 1]
        v10 = self.values[i + 1][j]
        v11 = self.values[i + 1][j + 1]
        top = v00 * (1.0 - fl) + v01 * fl
        bot = v10 * (1.0 - fl) + v11 * fl
        return top * (1.0 - fs) + bot * fs


@dataclass(frozen=True)
class LinearTimingSpec:
    """Linear RC characterisation seed for one timing arc.

    ``delay = intrinsic + resistance * load + slew_sensitivity * slew
            + cross * sqrt(slew * load)``

    The square-root cross-term is small but keeps the characterised surface
    genuinely non-linear, so the NLDM interpolation path is exercised by
    tests rather than being a glorified affine function.
    """

    intrinsic: float
    resistance: float
    slew_sensitivity: float = 0.08
    cross: float = 0.05

    def evaluate(self, slew: float, load: float) -> float:
        """Characterised value at one (slew, load) point."""
        return (
            self.intrinsic
            + self.resistance * load
            + self.slew_sensitivity * slew
            + self.cross * math.sqrt(max(slew, 0.0) * max(load, 0.0))
        )


def characterize(
    spec: LinearTimingSpec,
    slew_axis: Sequence[float] = DEFAULT_SLEW_AXIS,
    load_axis: Sequence[float] = DEFAULT_LOAD_AXIS,
) -> NLDMTable:
    """Build an :class:`NLDMTable` by sampling ``spec`` on the given axes."""
    values = tuple(
        tuple(spec.evaluate(s, l) for l in load_axis) for s in slew_axis
    )
    return NLDMTable(tuple(slew_axis), tuple(load_axis), values)


@dataclass(frozen=True)
class TimingArc:
    """Delay and output-slew tables for a cell's input-to-output arc."""

    delay: NLDMTable
    output_slew: NLDMTable

    @cached_property
    def shared_axes(self) -> bool:
        """True when both tables are indexed by the same axes.

        Then one located ``(index, fraction)`` pair serves a delay and
        an output-slew lookup alike (the STA gate kernel relies on it).
        Characterised arcs always share; a Liberty-parsed cell may not.
        Decided once per arc.
        """
        return (
            self.delay.slew_axis == self.output_slew.slew_axis
            and self.delay.load_axis == self.output_slew.load_axis
        )

    @staticmethod
    def from_linear(
        delay_spec: LinearTimingSpec,
        slew_spec: LinearTimingSpec,
        slew_axis: Sequence[float] = DEFAULT_SLEW_AXIS,
        load_axis: Sequence[float] = DEFAULT_LOAD_AXIS,
    ) -> "TimingArc":
        """Characterise both tables of an arc from linear seeds."""
        return TimingArc(
            delay=characterize(delay_spec, slew_axis, load_axis),
            output_slew=characterize(slew_spec, slew_axis, load_axis),
        )
