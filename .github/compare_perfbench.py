"""Compare the flow-benchmark results of two checkouts, result by result.

Usage (each tree is the root of a checkout that has run the workloads
with ``perfbench/run.py --seed SEED --trace 0``)::

    python3 .github/compare_perfbench.py PARENT_TREE HEAD_TREE SEED WORKLOAD...

Reads ``perfbench/out/<workload>.seed<SEED>.trace0.json`` in both trees
and writes one markdown table per workload to standard output: a row
per result (job seed, method) with its structure key, ``ratio_cpd``,
error, held-out error, evaluations and checks.  Rows whose fields are
not all equal in both trees are marked and show ``parent → head``;
``job_s`` is printed for information only.

Exits 1 when a head run is missing, is not ``correct``, or failed more
operations than the parent's run of the same workload.  A changed
result does not fail: a deliberate behaviour change shows how far it
moved instead.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: Result fields compared for identity, with their column headings.
FIELDS = (
    ("structure_key", "structure key"),
    ("ratio_cpd", "ratio_cpd"),
    ("error", "error"),
    ("error_heldout", "held-out error"),
    ("evaluations", "evaluations"),
    ("checks", "checks"),
)


def load(tree: str, workload: str, seed: int) -> Optional[dict]:
    path = os.path.join(
        tree, "perfbench", "out", f"{workload}.seed{seed}.trace0.json"
    )
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def results(record: Optional[dict]) -> Dict[Tuple[int, str], dict]:
    if record is None:
        return {}
    return {
        (job["seed"], res["method"]): res
        for job in record["jobs"]
        for res in job["results"]
    }


def show(field: str, value) -> str:
    if value is None:
        return "—"
    if field == "checks":
        failed = [name for name, ok in value.items() if not ok]
        return "pass" if not failed else "FAIL " + ", ".join(failed)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def outcome(record: Optional[dict]) -> str:
    if record is None:
        return "no run record"
    res = record["result"]
    return (
        f"correct {str(res['correct']).lower()}, "
        f"failed {res['failed']} of {res['attempted']}; "
        f"job_s {res['metrics']['job_s']['value']:.3f} ref-s"
    )


def compare(parent_tree: str, head_tree: str, seed: int, workload: str):
    """Markdown lines for one workload, and whether the head passes."""
    parent = load(parent_tree, workload, seed)
    head = load(head_tree, workload, seed)
    ok = head is not None and head["result"]["correct"]
    if ok and parent is not None:
        ok = head["result"]["failed"] <= parent["result"]["failed"]
    lines = [
        f"### {workload}, seed {seed}: {'ok' if ok else 'FAILED'}",
        "",
        f"- parent: {outcome(parent)}",
        f"- head: {outcome(head)}",
        "",
        "| | job seed | method | "
        + " | ".join(title for _, title in FIELDS)
        + " |",
        "|---" * (len(FIELDS) + 3) + "|",
    ]
    old, new = results(parent), results(head)
    changed = 0
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, {}), new.get(key, {})
        cells: List[str] = []
        differs = False
        for field, _ in FIELDS:
            va, vb = a.get(field), b.get(field)
            if va == vb:
                cells.append(show(field, vb))
            else:
                differs = True
                cells.append(f"{show(field, va)} → {show(field, vb)}")
        changed += differs
        mark = "**≠**" if differs else ""
        lines.append(
            f"| {mark} | {key[0]} | {key[1]} | " + " | ".join(cells) + " |"
        )
    total = len(set(old) | set(new))
    lines += ["", f"{changed} of {total} results differ.", ""]
    return lines, ok


def main(argv: List[str]) -> int:
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    parent_tree, head_tree, seed = argv[0], argv[1], int(argv[2])
    passed = True
    print("## Flow benchmark: head against its parent commit\n")
    for workload in argv[3:]:
        lines, ok = compare(parent_tree, head_tree, seed, workload)
        print("\n".join(lines))
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
