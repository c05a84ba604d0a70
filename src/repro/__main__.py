"""Command-line interface: run the timing-driven ALS flow on a netlist.

Examples::

    # approximate a structural-Verilog netlist under a 5% error rate,
    # streaming per-iteration progress
    python -m repro optimize design.v --mode er --bound 0.05 -o approx.v

    # pause after 10 iterations, checkpoint, resume later
    python -m repro optimize design.v --stop-after 10 --checkpoint run.ckpt
    python -m repro optimize --resume run.ckpt -o approx.v

    # run every registered method against one shared context
    python -m repro compare design.v --mode nmed --bound 0.0244

    # list the registered optimization methods
    python -m repro methods

    # generate a Table I benchmark and write its netlist
    python -m repro bench Adder16 -o adder16.v

    # report timing/area of a netlist against the bundled library
    python -m repro report design.v

    # record completed runs in a run catalog (for Session.warm_start)
    python -m repro optimize design.v --cache-dir ./runs

    # run the long-lived optimization service, then load-test it
    python -m repro serve --port 8355 --capacity 4
    python -m repro loadgen --spawn --clients 4 --requests 2
"""

from __future__ import annotations

import argparse
import signal
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from . import __version__
from .bench import SUITE, build_benchmark
from .cells import default_library
from .core.protocol import IterationEvent, RunCallback
from .netlist import parse_verilog, write_verilog
from .registry import available_methods, method_names
from .session import FlowConfig, FlowResult, RunInterrupted, Session
from .sim import ErrorMode
from .sta import STAEngine, format_path, format_summary

#: Conventional exit code for "terminated by an interrupt" (128+SIGINT),
#: returned after a graceful pause instead of a mid-iteration death.
EXIT_INTERRUPTED = 130


class ProgressView(RunCallback):
    """Streams one line per optimizer iteration to a text stream.

    The CLI's consumption of the protocol's callback events; any
    embedding can substitute its own :class:`RunCallback`.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr

    def _emit(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def on_run_start(self, method, total_iterations, state) -> None:
        resumed = f", resuming at {state.iteration}" if state.iteration else ""
        self._emit(
            f"[{method}] run started "
            f"({total_iterations} iterations{resumed})"
        )

    def on_iteration(self, event: IterationEvent) -> None:
        stats = event.stats
        best = (
            f"best={event.best.fitness:.4f}"
            if event.best is not None
            else "best=--"
        )
        self._emit(
            f"[{event.method}] iter {event.iteration}/"
            f"{event.total_iterations}  fit={stats.best_fitness:.4f} "
            f"err={stats.best_error:.5f} "
            f"cons={stats.error_constraint:.5f} {best} "
            f"evals={stats.evaluations} {event.elapsed_s:.1f}s"
        )

    def on_run_end(self, result) -> None:
        status = "finished" if result.completed else "paused"
        best = (
            f"best fitness {result.best.fitness:.4f}"
            if result.best is not None
            else "no feasible circuit yet"
        )
        self._emit(
            f"[{result.method}] {status}: {best}, "
            f"{result.evaluations} evaluations, {result.runtime_s:.1f}s"
        )


@contextmanager
def _reading(command: str, path: str) -> Iterator[None]:
    """Exit 2 with one line on an ``OSError`` on ``path`` itself."""
    try:
        yield
    except OSError as exc:
        if exc.filename != path:
            raise
        reason = exc.strerror or exc
        print(f"{command}: cannot read {path}: {reason}", file=sys.stderr)
        raise SystemExit(2) from None


def _read_circuit(args: argparse.Namespace):
    with _reading(args.command, args.netlist), open(args.netlist) as f:
        return parse_verilog(f.read())


class _InterruptGuard:
    """SIGINT/SIGTERM → cooperative pause; a second signal force-quits.

    The first signal asks the session's running optimizer to stop at
    the next iteration boundary (:meth:`Session.interrupt`), so a
    ``--checkpoint`` run writes a resumable checkpoint and the worker
    pool is torn down through the ordinary ``finally`` path instead of
    dying mid-iteration with leaked shard processes.  A second signal —
    or a first one arriving while nothing interruptible runs — raises
    :class:`KeyboardInterrupt` as before (the ``finally`` still closes
    the session).  Handlers are restored on exit; installation is
    skipped quietly off the main thread, where signals cannot be bound.
    """

    def __init__(self, session: Session):
        self.session = session
        self.interrupted = False
        self._installed: List = []

    def __enter__(self) -> "_InterruptGuard":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous = signal.signal(sig, self._handle)
            except (ValueError, OSError):  # non-main thread / platform
                continue
            self._installed.append((sig, previous))
        return self

    def __exit__(self, *exc_info) -> None:
        for sig, previous in self._installed:
            signal.signal(sig, previous)

    def _handle(self, signum, frame) -> None:
        first = not self.interrupted
        self.interrupted = True
        if first and self.session.interrupt():
            print(
                "interrupt: pausing at the next iteration boundary "
                "(signal again to force quit)",
                file=sys.stderr,
                flush=True,
            )
            return
        raise KeyboardInterrupt


#: (flag, FlowConfig default) pairs; parser defaults are None so that
#: explicitly-passed flags are distinguishable (``--resume`` must warn
#: when they would be ignored in favour of the checkpoint's config).
_FLOW_FLAG_DEFAULTS = (
    ("mode", "er"),
    ("bound", 0.05),
    ("vectors", 2048),
    ("effort", 1.0),
    ("seed", 0),
)


def _check_jobs(args: argparse.Namespace) -> None:
    """Exit 2 with one line when ``--jobs`` is below 0."""
    if (args.jobs or 0) < 0:
        message = f"jobs must be >= 0, not {args.jobs}"
        print(f"{args.command}: {message}", file=sys.stderr)
        raise SystemExit(2)


def _flow_config(args: argparse.Namespace) -> FlowConfig:
    """The run's :class:`FlowConfig`; an invalid setting, ``--jobs``
    included, prints one line and exits 2."""
    _check_jobs(args)
    values = {
        name: getattr(args, name) if getattr(args, name) is not None
        else default
        for name, default in _FLOW_FLAG_DEFAULTS
    }
    mode = ErrorMode.ER if values["mode"] == "er" else ErrorMode.NMED
    try:
        return FlowConfig(
            error_mode=mode,
            error_bound=values["bound"],
            num_vectors=values["vectors"],
            effort=values["effort"],
            seed=values["seed"],
            area_con=getattr(args, "area_con", None),
            cache_dir=getattr(args, "cache_dir", None),
        )
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _ignored_resume_flags(args: argparse.Namespace) -> List[str]:
    """Flow flags the user passed that --resume will not honour."""
    ignored = [
        f"--{name}"
        for name, _ in _FLOW_FLAG_DEFAULTS
        if getattr(args, name) is not None
    ]
    if args.netlist:
        ignored.insert(0, "the netlist argument")
    return ignored


def _print_flow_result(result: FlowResult, mode_label: str) -> None:
    print(
        f"{result.method}: Ratio_cpd={result.ratio_cpd:.4f} "
        f"({result.cpd_ori:.2f} -> {result.cpd_fac:.2f} ps), "
        f"{mode_label}={result.error:.5f}, "
        f"area {result.area_ori:.2f} -> {result.area_fac:.2f} um2, "
        f"{result.runtime_s:.1f}s"
    )


def _cmd_optimize(args: argparse.Namespace) -> int:
    callbacks = None if args.quiet else ProgressView()
    if args.stop_after is not None and not args.checkpoint:
        # Fail before spending iterations: a pause without a
        # checkpoint path would throw the paused progress away.
        print(
            "optimize: --stop-after requires --checkpoint "
            "(a paused run's progress would otherwise be lost)",
            file=sys.stderr,
        )
        return 2
    if args.resume:
        ignored = _ignored_resume_flags(args)
        if ignored:
            print(
                "optimize: --resume takes its flow configuration from "
                f"the checkpoint; ignoring {', '.join(ignored)}",
                file=sys.stderr,
            )
        _check_jobs(args)
        with _reading(args.command, args.resume):
            session = Session.resume(args.resume)
        pending = session.pending_methods()
        method = args.method or (pending[0] if pending else "Ours")
    else:
        if not args.netlist:
            print(
                "optimize: a netlist is required unless --resume is given",
                file=sys.stderr,
            )
            return 2
        config = _flow_config(args)
        session = Session(_read_circuit(args), config)
        method = args.method or "Ours"

    # Everything below runs under try/finally: an exception or signal
    # mid-run must still tear the shard worker pool down
    # (session.close), never leak daemon workers.
    try:
        with _InterruptGuard(session) as guard:
            opt_result = None
            if args.stop_after is not None:
                partial = session.optimize(
                    method,
                    callbacks=callbacks,
                    stop_after=args.stop_after,
                    jobs=args.jobs,
                )
                if not partial.completed:
                    session.checkpoint(args.checkpoint)
                    done = (
                        partial.history[-1].iteration
                        if partial.history
                        else 0
                    )
                    print(
                        f"paused after {done} iterations; "
                        f"checkpoint written to {args.checkpoint}"
                    )
                    return EXIT_INTERRUPTED if guard.interrupted else 0
                # The budget ran out before stop_after: the optimization
                # is already complete, so hand it to run() instead of
                # re-running.
                opt_result = partial
            try:
                result = session.run(
                    method, callbacks=callbacks, optimization=opt_result,
                    jobs=args.jobs,
                )
            except RunInterrupted:
                return _pause_checkpoint(session, args.checkpoint)
    finally:
        session.close()
    mode_label = session.config.error_mode.value
    _print_flow_result(result, mode_label)
    if args.checkpoint:
        session.checkpoint(args.checkpoint)
        print(f"session checkpoint written to {args.checkpoint}")
    if args.output:
        with open(args.output, "w") as f:
            f.write(write_verilog(result.circuit))
        print(f"approximate netlist written to {args.output}")
    return 0


def _pause_checkpoint(session: Session, checkpoint: Optional[str]) -> int:
    """A signal paused a run: persist it if a checkpoint path exists."""
    if checkpoint:
        session.checkpoint(checkpoint)
        print(
            f"interrupted; paused run checkpointed to {checkpoint} "
            "(resume with --resume)",
            file=sys.stderr,
        )
    else:
        print(
            "interrupted; no --checkpoint path given, "
            "paused progress discarded",
            file=sys.stderr,
        )
    return EXIT_INTERRUPTED


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core.parallel import resolve_jobs

    config = _flow_config(args)
    session = Session(_read_circuit(args), config)
    methods = args.methods or list(method_names())
    mode_label = session.config.error_mode.value
    try:
        with _InterruptGuard(session) as guard:
            if resolve_jobs(args.jobs) > 1 and len(methods) > 1:
                # Whole methods run concurrently; per-iteration
                # streaming cannot cross process boundaries, so results
                # print at the end.
                print(
                    f"running {len(methods)} methods "
                    "across worker processes",
                    file=sys.stderr,
                )
                results = session.compare(methods, jobs=args.jobs)
                for method in methods:
                    _print_flow_result(results[method], mode_label)
                return 0
            callbacks = None if args.quiet else ProgressView()
            for method in methods:
                if guard.interrupted:
                    return EXIT_INTERRUPTED
                try:
                    result = session.run(
                        method, callbacks=callbacks, jobs=args.jobs
                    )
                except RunInterrupted:
                    print(
                        f"compare: interrupted during {method}; "
                        "remaining methods skipped",
                        file=sys.stderr,
                    )
                    return EXIT_INTERRUPTED
                _print_flow_result(result, mode_label)
    finally:
        session.close()
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    for spec in available_methods():
        aliases = (
            f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        )
        print(f"{spec.name:<10} {spec.description}{aliases}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    circuit = build_benchmark(args.name, args.profile)
    library = default_library()
    report = STAEngine(library).analyze(circuit)
    print(format_summary(report, library))
    if args.output:
        with open(args.output, "w") as f:
            f.write(write_verilog(circuit))
        print(f"netlist written to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    circuit = _read_circuit(args)
    library = default_library()
    report = STAEngine(library).analyze(circuit)
    print(format_summary(report, library))
    print()
    print(format_path(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import findings_to_json, format_findings, lint_paths

    findings = lint_paths(args.paths, only=args.rules)
    if args.json:
        print(findings_to_json(findings))
    elif findings:
        print(format_findings(findings))
    else:
        print("0 findings")
    return 1 if findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import serve_main

    return serve_main(args)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve.loadgen import loadgen_main

    return loadgen_main(args)


def _add_flow_arguments(parser: argparse.ArgumentParser) -> None:
    # Defaults stay None here (real defaults live in _FLOW_FLAG_DEFAULTS)
    # so --resume can tell explicitly-passed flags apart and warn.
    parser.add_argument(
        "--mode", default=None, choices=("er", "nmed"),
        help="error metric (default: er)",
    )
    parser.add_argument(
        "--bound", type=float, default=None,
        help="error constraint (default: 0.05)",
    )
    parser.add_argument(
        "--vectors", type=int, default=None,
        help="Monte-Carlo vectors (default: 2048)",
    )
    parser.add_argument(
        "--effort", type=float, default=None,
        help="budget multiplier (default: 1.0, the paper's setting)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="RNG seed (default: 0)"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for evaluation (default: REPRO_JOBS or "
            "serial); results are bit-identical to serial"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "directory whose run catalog records completed runs "
            "(default: REPRO_CACHE, else none); results do not depend "
            "on it"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-iteration progress stream",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Timing-driven approximate logic synthesis "
            "(DCGWO, DATE 2025 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser(
        "optimize", help="run the ALS flow on a structural-Verilog netlist"
    )
    p_opt.add_argument(
        "netlist", nargs="?", default=None,
        help="input .v file (omit with --resume)",
    )
    p_opt.add_argument(
        "--method", default=None, choices=method_names(),
        help="optimizer (default: Ours, the DCGWO)",
    )
    p_opt.add_argument(
        "--area-con", type=float, default=None,
        help="post-opt area constraint in um2 (default: Area_ori)",
    )
    _add_flow_arguments(p_opt)
    p_opt.add_argument(
        "--stop-after", type=int, default=None,
        help="pause the optimizer after this many iterations",
    )
    p_opt.add_argument(
        "--checkpoint", default=None,
        help="write a session checkpoint to this path",
    )
    p_opt.add_argument(
        "--resume", default=None,
        help="resume from a session checkpoint instead of a netlist",
    )
    p_opt.add_argument("-o", "--output", help="write approximate netlist")
    p_opt.set_defaults(func=_cmd_optimize)

    p_cmp = sub.add_parser(
        "compare", help="run several methods with one shared context"
    )
    p_cmp.add_argument("netlist", help="input .v file")
    p_cmp.add_argument(
        "--methods", nargs="+", default=None, metavar="METHOD",
        help="methods to run (default: all registered)",
    )
    _add_flow_arguments(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_methods = sub.add_parser(
        "methods", help="list registered optimization methods"
    )
    p_methods.set_defaults(func=_cmd_methods)

    p_bench = sub.add_parser(
        "bench", help="generate a Table I benchmark circuit"
    )
    p_bench.add_argument("name", choices=sorted(SUITE))
    p_bench.add_argument(
        "--profile", default="scaled", choices=("scaled", "paper")
    )
    p_bench.add_argument("-o", "--output", help="write netlist")
    p_bench.set_defaults(func=_cmd_bench)

    p_rep = sub.add_parser("report", help="STA report for a netlist")
    p_rep.add_argument("netlist", help="input .v file")
    p_rep.set_defaults(func=_cmd_report)

    p_srv = sub.add_parser(
        "serve",
        help="run the asyncio optimization service (NDJSON/SSE streaming)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8355,
        help="TCP port (0 picks a free one and prints it)",
    )
    p_srv.add_argument(
        "--capacity", type=int, default=2,
        help="concurrent running jobs (default: 2)",
    )
    p_srv.add_argument(
        "--max-pending", type=int, default=64,
        help="bounded run-queue depth; submits beyond it get 503",
    )
    p_srv.add_argument(
        "--jobs", type=int, default=None,
        help="shard workers per job (default: job spec, then REPRO_JOBS)",
    )
    p_srv.add_argument(
        "--spool", default=None,
        help=(
            "directory for eviction/drain checkpoints "
            "(default: a temp dir)"
        ),
    )
    p_srv.add_argument(
        "--cache-dir", default=None,
        help=(
            "directory whose run catalog records every job's completed "
            "runs (default: REPRO_CACHE, else none)"
        ),
    )
    p_srv.add_argument(
        "--job-deadline", type=float, default=None,
        help=(
            "default wall-clock budget per job in seconds; a spec's "
            "deadline_s overrides it (default: no deadline)"
        ),
    )
    p_srv.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-request log on stderr",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="drive a repro serve daemon with concurrent clients",
    )
    p_load.add_argument(
        "--url", default="http://127.0.0.1:8355",
        help="server base URL (ignored with --spawn)",
    )
    p_load.add_argument("--clients", type=int, default=4)
    p_load.add_argument(
        "--requests", type=int, default=2,
        help="jobs submitted per client",
    )
    p_load.add_argument("--bench", default="Adder", choices=sorted(SUITE))
    p_load.add_argument("--method", default="Ours")
    p_load.add_argument("--mode", default="er", choices=("er", "nmed"))
    p_load.add_argument("--bound", type=float, default=0.05)
    p_load.add_argument("--vectors", type=int, default=64)
    p_load.add_argument("--effort", type=float, default=0.1)
    p_load.add_argument(
        "--seed-base", type=int, default=0,
        help="job i gets seed seed_base + i (distinct, deterministic work)",
    )
    p_load.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-job completion deadline in seconds",
    )
    p_load.add_argument(
        "--max-503-retries", type=int, default=5,
        help=(
            "submits absorbing 503 back-pressure retry this many times "
            "(honoring Retry-After, jittered) before counting a failure"
        ),
    )
    p_load.add_argument(
        "--spawn", action="store_true",
        help="start (and cleanly SIGTERM) a throwaway server subprocess",
    )
    p_load.add_argument(
        "--capacity", type=int, default=4,
        help="spawned server's concurrent-job capacity",
    )
    p_load.add_argument(
        "--server-jobs", type=int, default=None,
        help="spawned server's per-job shard workers",
    )
    p_load.set_defaults(func=_cmd_loadgen)

    p_lint = sub.add_parser(
        "lint",
        help="static contract checks (memoized-container mutation, "
        "undeclared copy edits, unguarded registries, nondeterminism, "
        "is_const in hot loops)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit findings as a JSON array (file/line/rule/message)",
    )
    p_lint.add_argument(
        "--rules", nargs="+", default=None, metavar="RULE",
        help="restrict to specific rule IDs (e.g. R1 R3)",
    )
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
