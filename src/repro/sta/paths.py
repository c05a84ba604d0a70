"""Critical-path queries on top of :class:`~repro.sta.analyzer.TimingReport`.

The circuit-searching operator (paper §III-B) asks for "the critical paths
with maximum propagation time from PI to PO"; these helpers extract the
worst path per endpoint and rank endpoints by arrival, which is exactly
the ``report_timing -max_paths`` slice of PrimeTime the flow consumes.
All queries read the timing store's tuples directly, gathering PO
rows through ``po_rows``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..netlist import Circuit
from .analyzer import TimingReport


def po_arrivals(report: TimingReport) -> Dict[int, float]:
    """Arrival time ``Ta`` per PO gate ID, in ``po_ids`` order."""
    arrival = report.arrival_a
    return {
        po: arrival[r]
        for po, r in zip(report.circuit.po_ids, report.index.po_rows)
    }


def worst_endpoints(report: TimingReport, count: int) -> List[int]:
    """The ``count`` POs with the largest arrival times, worst first."""
    arrivals = po_arrivals(report)
    order = sorted(arrivals, key=lambda po: (-arrivals[po], po))
    return order[: max(count, 0)]


def critical_paths(
    report: TimingReport,
    count: int = 3,
    slack_fraction: Optional[float] = None,
) -> List[List[int]]:
    """Worst path per endpoint for the ``count`` latest endpoints.

    With ``slack_fraction`` set (e.g. 0.05), endpoints whose arrival is
    within that fraction of the worst arrival are *all* included, which
    matches treating every near-critical path as critical.
    """
    if not report.circuit.po_ids:
        return []
    endpoints = worst_endpoints(report, len(report.circuit.po_ids))
    if slack_fraction is not None:
        cpd = report.po_arrival(endpoints[0])
        cutoff = cpd * (1.0 - slack_fraction)
        endpoints = [
            po for po in endpoints if report.po_arrival(po) >= cutoff
        ]
    else:
        endpoints = endpoints[:count]
    return [report.critical_path(po) for po in endpoints]


def path_logic_gates(circuit: Circuit, path: List[int]) -> List[int]:
    """Filter a backtraced path down to its library gates."""
    return [g for g in path if circuit.is_logic(g)]


def path_delay(report: TimingReport, path: List[int]) -> float:
    """Arrival time at the endpoint of a backtraced path (ps)."""
    return report.arrival_a[report.index.row[path[-1]]]


def slack_profile(
    report: TimingReport, clock_period: float
) -> List[Tuple[int, float]]:
    """Per-PO slack against ``clock_period``, most negative first."""
    rows = [(po, clock_period - a) for po, a in po_arrivals(report).items()]
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows
