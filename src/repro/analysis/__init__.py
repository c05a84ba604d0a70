"""Contract enforcement: the ``repro lint`` checker and the sanitizer.

Eight PRs of evaluation-path work rest on a handful of load-bearing
invariants that used to exist only as prose in ROADMAP.md — memoized
containers are read-only, stores are read-only once published, edits on
copies are declared through provenance, registries are touched behind
their locks, the evaluation core is deterministic.  This package gives
them a machine-checked form:

* :mod:`repro.analysis.rules` + :mod:`repro.analysis.runner` — the
  AST-based static pass behind ``repro lint`` (rule families R1-R5;
  stdlib :mod:`ast` only).
* :mod:`repro.analysis.sanitize` — the ``REPRO_SANITIZE=1`` runtime
  layer: published arrays become physically read-only, provenance
  records are verified against actual structural diffs, and the
  registry locks report acquisition-order inversions.

This is a *distinct* concern from :mod:`repro.core.analysis`, which
post-processes optimization results (circuit diffs, Pareto fronts).
"""

from .findings import (
    Finding,
    findings_to_json,
    format_findings,
    parse_allows,
)
from .runner import iter_python_files, lint_file, lint_paths
from .rules import ALL_RULES
from .sanitize import (
    SanitizerError,
    TrackedLock,
    publish_arrays,
    reset_lock_tracking,
    sanitize_enabled,
    verify_provenance,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "SanitizerError",
    "TrackedLock",
    "findings_to_json",
    "format_findings",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "parse_allows",
    "publish_arrays",
    "reset_lock_tracking",
    "sanitize_enabled",
    "verify_provenance",
]
