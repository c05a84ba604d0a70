"""Switching-activity power estimation.

Approximate computing papers motivate LACs with delay *and* power; this
module adds the standard first-order dynamic-power model so reports and
benches can quantify the side benefit:

    P_dyn = 0.5 * Vdd^2 * f * sum_g( alpha_g * C_g )

where ``alpha_g`` is gate ``g``'s toggle rate estimated from the same
bit-parallel Monte-Carlo batch the error estimator uses (consecutive
vectors are treated as consecutive cycles), and ``C_g`` is the load it
drives.  Leakage is modelled per-cell as proportional to area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..cells import Library
from ..netlist import Circuit
from ..sim.vectors import VectorSet
from .analyzer import STAEngine

if TYPE_CHECKING:  # type-only: sim.store depends on sta at runtime,
    from ..sim.store import ValueStore  # so sta must not import sim back

#: Default supply and clock for the 28 nm-class operating point.
DEFAULT_VDD = 0.9  # volts
DEFAULT_FREQ_GHZ = 1.0
#: Leakage density, roughly nW per um^2 at 28 nm.
LEAKAGE_PER_UM2_NW = 15.0


def toggle_rate(row: int, num_vectors: int) -> float:
    """Fraction of cycle boundaries where a value row toggles: bit ``k``
    of ``row ^ (row >> 1)`` compares vectors ``k`` and ``k + 1``, so
    only the first ``num_vectors - 1`` lanes count."""
    if num_vectors < 2:
        return 0.0
    boundaries = (1 << (num_vectors - 1)) - 1
    return ((row ^ (row >> 1)) & boundaries).bit_count() / (num_vectors - 1)


@dataclass(frozen=True)
class PowerReport:
    """Per-circuit power summary (all in microwatts)."""

    dynamic_uw: float
    leakage_uw: float
    per_gate_dynamic: Dict[int, float]

    @property
    def total_uw(self) -> float:
        """Dynamic plus leakage power (µW)."""
        return self.dynamic_uw + self.leakage_uw


def estimate_power(
    circuit: Circuit,
    library: Library,
    values: ValueStore,
    vectors: VectorSet,
    engine: Optional[STAEngine] = None,
    vdd: float = DEFAULT_VDD,
    freq_ghz: float = DEFAULT_FREQ_GHZ,
) -> PowerReport:
    """Estimate dynamic + leakage power from simulated values.

    Only live gates burn power: dangling logic is assumed removed by the
    flow before tape-out (and the resizer never sees it either).
    """
    engine = engine or STAEngine(library)
    loads = engine.compute_loads(circuit)
    live = circuit.live_gates()
    per_gate: Dict[int, float] = {}
    dynamic_w = 0.0
    leakage_w = 0.0
    # Ascending gate ID: the float sums must not depend on the order a
    # live set iterates in (a derived one is built by set algebra).
    for gid in sorted(live):
        if not circuit.is_logic(gid):
            continue
        alpha = toggle_rate(values[gid], vectors.num_vectors)
        cap_f = loads[gid] * 1e-15  # fF -> F
        p = 0.5 * vdd * vdd * freq_ghz * 1e9 * alpha * cap_f
        per_gate[gid] = p * 1e6  # W -> uW
        dynamic_w += p
        leakage_w += (
            library.cell(circuit.cells[gid]).area
            * LEAKAGE_PER_UM2_NW
            * 1e-9
        )
    return PowerReport(
        dynamic_uw=dynamic_w * 1e6,
        leakage_uw=leakage_w * 1e6,
        per_gate_dynamic=per_gate,
    )
