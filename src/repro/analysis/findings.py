"""Finding model and inline-allow directives for ``repro lint``.

A finding is one contract violation at one source location.  Findings
can be suppressed by an inline directive on the offending line, the
line directly above it, or the ``def`` line of the enclosing function
(function-scope allow for whitelisted fork/copy/publish sites)::

    arrival[rows[pi]] = 0.0  # lint: allow[R1] pre-publication fill

The justification text after the rule ID is mandatory: a bare
``# lint: allow[R1]`` suppresses nothing and is itself reported as an
``R0`` hygiene finding, so every exemption in the tree carries its
reason next to it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "Finding",
    "findings_to_json",
    "format_findings",
    "parse_allows",
]


@dataclass(frozen=True)
class Finding:
    """One lint violation: where it is, which rule, and why it fired."""

    file: str
    line: int
    rule: str
    message: str
    #: ``def`` line of the enclosing function (0 at module scope);
    #: function-scope allow directives attach here.
    def_line: int = field(default=0, compare=False)

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.message}"


_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[(R\d)\]\s*(.*?)\s*$")


def parse_allows(source: str) -> Dict[Tuple[int, str], str]:
    """Map ``(line, rule) -> justification`` for inline allow comments.

    Directives with an empty justification map to ``""`` so the runner
    can report them instead of honouring them.
    """
    allows: Dict[Tuple[int, str], str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match:
            allows[(lineno, match.group(1))] = match.group(2)
    return allows


def format_findings(findings: List[Finding]) -> str:
    """Human-readable report, one ``file:line: RULE message`` per line."""
    lines = [f.render() for f in findings]
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)


def findings_to_json(findings: List[Finding]) -> str:
    """Machine-readable report: a JSON array of finding objects."""
    return json.dumps(
        [
            {
                "file": f.file,
                "line": f.line,
                "rule": f.rule,
                "message": f.message,
            }
            for f in findings
        ],
        indent=2,
    )
