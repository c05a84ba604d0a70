"""Flow benchmark entry point: one workload, one workload seed, one run.

Run from the root of a checkout (the program is imported from its
``src/`` directory, never from anywhere else)::

    python3 perfbench/run.py --workload dcgwo-cavlc-er --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable digest goes to standard error, and the run record
(host fingerprint, job seeds, sample counts, per-result checks, and
for traced runs the spans) to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Environment switches that change what a run measures; the benchmark
#: refuses to run under them instead of reporting skewed numbers.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE")


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    Exits non-zero when the checkout holds no program, so a stripped
    directory can never benchmark an installed copy by accident.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no program to benchmark: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != SRC:
        _fail(f"imported repro from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in REFUSED_ENV:
        if os.environ.get(name, "").strip() not in ("", "0"):
            _fail(f"refusing to run with {name} set")
    if args.seed < 0:
        _fail("--seed must be >= 0")
    if args.seconds <= 0:
        _fail("--seconds must be > 0")
    import_program()
    import flows

    if args.workload not in flows.WORKLOADS:
        _fail(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(flows.WORKLOADS)}"
        )
    result = flows.run(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
