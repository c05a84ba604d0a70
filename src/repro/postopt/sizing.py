"""Timing-driven gate resizing under an area constraint (paper §III-C).

Plays Design Compiler's post-optimization role: without touching the
structure, repeatedly upsize the critical-path gate with the best
estimated delay gain while the total area stays within ``area_con``.
Candidates are ranked by a local estimate of a move's net gain:

    gain = (old cell delay - new cell delay at the same slew/load)
         - (penalty on each fan-in driver from the increased pin load)

and only the best one is tried: a copy of the working circuit with that
one cell swap declared in its provenance, retimed by
:func:`~repro.sta.update_timing` against the working circuit's report,
so a trial costs the gates the swap reaches, not a full STA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..cells import Library
from ..netlist import Circuit, is_const
from ..sta import STAEngine, path_logic_gates, update_timing


@dataclass(frozen=True)
class SizingMove:
    """One applied resize."""

    gate: int
    from_cell: str
    to_cell: str
    estimated_gain: float


@dataclass
class SizingResult:
    """Outcome of :func:`resize_for_timing` (circuit modified in place)."""

    moves: List[SizingMove] = field(default_factory=list)
    cpd_before: float = 0.0
    cpd_after: float = 0.0
    area_before: float = 0.0
    area_after: float = 0.0

    @property
    def num_moves(self) -> int:
        """Number of accepted resizes."""
        return len(self.moves)


def _estimate_gain(
    circuit: Circuit,
    library: Library,
    report,
    gid: int,
    new_cell,
) -> float:
    """Estimated CPD gain of swapping ``gid`` to ``new_cell``.

    Reads slews and loads straight from the report's SoA arrays (one
    dense row lookup per fan-in instead of a dict probe).
    """
    row = report.index.row
    slew_a = report.slew_a
    load_a = report.load_a
    old_cell = library.cell(circuit.cells[gid])
    load = float(load_a[row[gid]])
    # Worst input slew among fan-ins (matches the arc STA would pick).
    slews = [
        float(slew_a[row[fi]])
        for fi in circuit.fanins[gid]
        if not is_const(fi)
    ]
    slew = max(slews) if slews else 10.0
    gain = old_cell.delay(slew, load) - new_cell.delay(slew, load)
    # Penalty: every fan-in driver sees the pin capacitance increase.
    dcap = new_cell.input_cap - old_cell.input_cap
    if dcap > 0.0:
        for fi in set(circuit.fanins[gid]):
            if is_const(fi) or circuit.is_pi(fi):
                continue
            drv = library.cell(circuit.cells[fi])
            drv_slews = [
                float(slew_a[row[g]])
                for g in circuit.fanins[fi]
                if not is_const(g)
            ]
            drv_slew = max(drv_slews) if drv_slews else 10.0
            drv_load = float(load_a[row[fi]])
            gain -= drv.delay(drv_slew, drv_load + dcap) - drv.delay(
                drv_slew, drv_load
            )
    return gain


def resize_for_timing(
    circuit: Circuit,
    library: Library,
    area_con: float,
    sta: Optional[STAEngine] = None,
    max_moves: int = 200,
    min_gain: float = 1e-3,
) -> SizingResult:
    """Greedily upsize critical-path gates within the area constraint.

    The circuit is modified in place.  A move is accepted only when it
    keeps total live area within ``area_con``, targets a gate on the
    current critical path, and its estimated gain exceeds ``min_gain``.
    Each move is tried on a copy of the working circuit and retimed
    incrementally; a trial that does not lower the true CPD (the local
    estimate is optimistic around reconvergence) is dropped and ends
    the search, since every remaining candidate had a smaller estimate.
    An accepted trial becomes the working circuit, and the accepted
    moves are applied to ``circuit`` at the end.
    """
    engine = sta or STAEngine(library)
    result = SizingResult()
    report = engine.analyze(circuit)
    area = circuit.area(library)
    result.cpd_before = report.cpd
    result.area_before = area

    working = circuit
    current_cpd = report.cpd
    for _ in range(max_moves):
        path_gates = path_logic_gates(working, report.critical_path())
        best: Optional[Tuple[float, int, object]] = None
        for gid in path_gates:
            new_cell = library.upsize(working.cells[gid])
            if new_cell is None:
                continue
            old_area = library.cell(working.cells[gid]).area
            if area + (new_cell.area - old_area) > area_con:
                continue
            gain = _estimate_gain(working, library, report, gid, new_cell)
            if gain <= min_gain:
                continue
            if best is None or gain > best[0]:
                best = (gain, gid, new_cell)
        if best is None:
            break
        gain, gid, new_cell = best
        trial = working.copy()
        base_version = trial.version
        trial.set_cell(gid, new_cell.name)
        trial.extend_provenance((gid,), base_version, 1)
        trial_report = update_timing(engine, trial, report, (gid,))
        if trial_report.cpd >= current_cpd:
            break
        result.moves.append(
            SizingMove(
                gate=gid,
                from_cell=working.cells[gid],
                to_cell=new_cell.name,
                estimated_gain=gain,
            )
        )
        working, report = trial, trial_report
        current_cpd = trial_report.cpd
        area = working.area(library)

    for move in result.moves:
        circuit.set_cell(move.gate, move.to_cell)
    result.cpd_after = current_cpd
    result.area_after = area
    return result
