"""Compare the traced layer metrics of two checkouts, parent → head.

Usage (each tree is the root of a checkout that has run the workload
with ``perfbench/run.py --seed SEED --trace 1``)::

    python3 .github/compare_layers.py PARENT_TREE HEAD_TREE SEED WORKLOAD

Reads ``perfbench/out/<workload>.seed<SEED>.trace1.json`` in both trees
and writes one markdown table to standard output: a row per per-layer
metric with its parent and head values.  Counts are exact, so a changed
count is marked: it means the head does different work.  Times and
ratios are printed for information only, because the two trees may run
concurrently.

Reports only: exits 1 when a run record is missing or unreadable, and 0
otherwise, whatever the metrics say.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional


def load(tree: str, workload: str, seed: int) -> Optional[dict]:
    path = os.path.join(
        tree, "perfbench", "out", f"{workload}.seed{seed}.trace1.json"
    )
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def metrics(record: Optional[dict]) -> Dict[str, dict]:
    if record is None:
        return {}
    return record["result"]["metrics"]


def show(metric: Optional[dict]) -> str:
    if metric is None:
        return "—"
    value = metric["value"]
    if metric["unit"] == "count":
        return f"{value:g}"
    return f"{value:.4g}"


def compare(parent_tree: str, head_tree: str, seed: int, workload: str):
    """Markdown lines for one workload, and whether both records exist."""
    parent = load(parent_tree, workload, seed)
    head = load(head_tree, workload, seed)
    old, new = metrics(parent), metrics(head)
    lines = [
        f"## Traced layers: {workload}, seed {seed}, parent → head",
        "",
        "Counts are exact; times and ratios are for information only "
        "(the two trees may have run side by side).",
        "",
        "| | metric | unit | parent | head |",
        "|---|---|---|---|---|",
    ]
    names = list(old) + [name for name in new if name not in old]
    changed = 0
    for name in names:
        a, b = old.get(name), new.get(name)
        unit = (b or a)["unit"]
        differs = (
            unit == "count"
            and a is not None
            and b is not None
            and a["value"] != b["value"]
        )
        changed += differs
        mark = "**≠**" if differs else ""
        lines.append(
            f"| {mark} | `{name}` | {unit} | {show(a)} | {show(b)} |"
        )
    missing = [
        side for side, record in (("parent", parent), ("head", head))
        if record is None
    ]
    if missing:
        lines += ["", "No run record for: " + ", ".join(missing) + "."]
    lines += ["", f"{changed} counts differ.", ""]
    return lines, not missing


def main(argv: List[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    parent_tree, head_tree, seed, workload = argv
    lines, ok = compare(parent_tree, head_tree, int(seed), workload)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
