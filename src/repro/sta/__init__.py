"""Static timing analysis substrate (PrimeTime substitute)."""

from .analyzer import STAEngine, TimingReport
from .store import TimingIndex, timing_index
from .paths import (
    critical_paths,
    path_delay,
    path_logic_gates,
    po_arrivals,
    slack_profile,
    worst_endpoints,
)
from .incremental import update_timing, update_timing_batch
from .power import PowerReport, estimate_power, toggle_rate
from .report import format_path, format_summary

__all__ = [
    "update_timing",
    "update_timing_batch",
    "PowerReport",
    "estimate_power",
    "toggle_rate",
    "STAEngine",
    "TimingReport",
    "TimingIndex",
    "timing_index",
    "critical_paths",
    "path_delay",
    "path_logic_gates",
    "po_arrivals",
    "slack_profile",
    "worst_endpoints",
    "format_path",
    "format_summary",
]
