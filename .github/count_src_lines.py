"""Count the lines of ``src/`` in one or more checkouts.

Usage::

    python3 .github/count_src_lines.py [LABEL=]TREE...

Counts two numbers over ``TREE/src/**/*.py`` in every tree: all lines,
as ``wc -l`` does, and code lines, which excludes blank lines,
comment-only lines and the lines of docstrings (a string literal that
stands alone as a statement).  Writes one markdown table to standard
output; with several trees each cell reads ``first → ... → last``,
followed by the change from the first tree to the last.  A tree is
named by its ``LABEL`` in the heading, else by its path.  Stdlib only.
The numbers are reported, never gated: the exit code is 0 even when a
tree or a file cannot be read.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from typing import Set, Tuple

#: Tokens that hold no code.
NON_CODE = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
)


def docstring_lines(source: str) -> Set[int]:
    """Line numbers of every string literal that stands alone."""
    lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count_file(source: str) -> Tuple[int, int]:
    """``(all lines, code lines)`` of one Python source."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(source))


def count_tree(tree: str) -> Tuple[int, int]:
    """``(all lines, code lines)`` summed over ``tree/src/**/*.py``."""
    total = code = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(tree, "src")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if not name.endswith(".py"):
                continue
            try:
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    lines, code_lines = count_file(f.read())
            except (OSError, SyntaxError, ValueError) as exc:
                print(f"skipped {name}: {exc}", file=sys.stderr)
                continue
            total += lines
            code += code_lines
    return total, code


def cell(values) -> str:
    text = " → ".join(f"{v:,}" for v in values)
    if len(values) > 1:
        text += f" ({values[-1] - values[0]:+,})"
    return text


def main(args) -> int:
    labels, counts = [], []
    for arg in args:
        label, sep, path = arg.partition("=")
        labels.append(label)
        counts.append(count_tree(path if sep else label))
    print("### `src/` size")
    print()
    print(f"| count | {' → '.join(labels)} |")
    print("|---|---|")
    print(f"| lines (`wc -l`) | {cell([c[0] for c in counts])} |")
    print(
        "| code lines (no blank, comment or docstring lines) | "
        f"{cell([c[1] for c in counts])} |"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
