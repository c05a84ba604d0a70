"""Bit-parallel Monte-Carlo simulation and error metrics (VECBEE substitute)."""

from .bitsim import (
    evaluate_single,
    po_words,
    resimulate_cone,
    simulate,
)
from .store import ValueStore, value_rows
from .error import (
    ErrorMode,
    ErrorReport,
    error_rate,
    error_report,
    mean_error_distance,
    measure_error,
    nmed,
    per_po_error,
    per_po_error_rate,
)
from .similarity import (
    best_switch,
    constant_similarities,
    rank_switches,
    similarity,
)
from .vectors import VectorSet, count_ones, exhaustive_vectors, random_vectors

__all__ = [
    "ValueStore",
    "value_rows",
    "evaluate_single",
    "po_words",
    "resimulate_cone",
    "simulate",
    "ErrorMode",
    "ErrorReport",
    "error_rate",
    "error_report",
    "mean_error_distance",
    "measure_error",
    "nmed",
    "per_po_error",
    "per_po_error_rate",
    "best_switch",
    "constant_similarities",
    "rank_switches",
    "similarity",
    "VectorSet",
    "count_ones",
    "exhaustive_vectors",
    "random_vectors",
]
