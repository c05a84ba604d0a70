"""Human-readable timing report rendering (PrimeTime-style text).

Purely cosmetic, but useful in examples and when debugging benchmark
circuits: prints a per-stage breakdown of the critical path the way
``report_timing`` would.
"""

from __future__ import annotations

from typing import List, Optional

from .analyzer import TimingReport


def format_path(report: TimingReport, po_id: Optional[int] = None) -> str:
    """Render the worst path to ``po_id`` (default worst PO) as text."""
    circuit = report.circuit
    path = report.critical_path(po_id)
    endpoint = path[-1]
    lines: List[str] = []
    start = path[0]
    start_name = circuit.pi_names.get(start, f"gate {start}")
    end_name = circuit.po_names.get(endpoint, f"gate {endpoint}")
    lines.append(f"Startpoint: {start_name}")
    lines.append(f"Endpoint:   {end_name}")
    lines.append(f"{'point':<28}{'incr':>10}{'arrival':>10}")
    lines.append("-" * 48)
    row = report.index.row
    prev_arrival = 0.0
    for gid in path:
        if circuit.is_pi(gid):
            label = f"{circuit.pi_names[gid]} (in)"
        elif circuit.is_po(gid):
            label = f"{circuit.po_names[gid]} (out)"
        else:
            label = f"U{gid} ({circuit.cells[gid]})"
        arr = report.arrival_a[row[gid]]
        lines.append(f"{label:<28}{arr - prev_arrival:>10.2f}{arr:>10.2f}")
        prev_arrival = arr
    lines.append("-" * 48)
    end_arrival = report.arrival_a[row[endpoint]]
    lines.append(f"data arrival time {end_arrival:>29.2f}")
    return "\n".join(lines)


def format_summary(report: TimingReport, library=None) -> str:
    """One-paragraph summary: CPD, depth, endpoint, and optionally area."""
    circuit = report.circuit
    po = report.worst_po()
    parts = [
        f"circuit {circuit.name}: {circuit.num_gates} gates, "
        f"{len(circuit.pi_ids)} PI / {len(circuit.po_ids)} PO",
        f"CPD = {report.cpd:.2f} ps through {circuit.po_names[po]}",
        f"max logic depth = {report.max_unit_depth}",
    ]
    if library is not None:
        parts.append(f"area = {circuit.area(library):.2f} um^2")
    return "\n".join(parts)
