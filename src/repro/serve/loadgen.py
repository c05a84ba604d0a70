"""``repro loadgen`` — concurrent-client benchmark for the daemon.

Hammers one ``repro serve`` endpoint with ``--clients`` threads, each
submitting ``--requests`` jobs back-to-back and streaming every event to
completion, then reports service throughput (jobs/s), end-to-end job
latency percentiles, and per-job failure counts — a human table on
stderr, the raw numbers as JSON on stdout (CI parses the JSON and
publishes the table).

With ``--spawn`` the generator owns the daemon's lifecycle too: it
starts ``repro serve --port 0 --quiet`` as a subprocess, parses the
chosen port from the listening line, runs the load, sends SIGTERM, and
*requires* a clean exit 0 — so every CI loadgen run also exercises the
graceful-drain path (checkpoints flushed, pool torn down).

Each job varies ``seed`` (``--seed-base + i``) so concurrent runs are
distinct trajectories, not one run replayed N times.

A 503 (full queue, draining) is back-pressure, not failure: submits
honor the server's ``Retry-After`` and retry with bounded jittered
exponential backoff (``--max-503-retries``) before giving up, and the
retry count is reported alongside throughput.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .client import ServeClient, ServeError
from .protocol import JobSpec


def pctl(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 <= q <= 100)."""
    if not sorted_vals:
        return float("nan")
    idx = min(
        len(sorted_vals) - 1,
        max(0, int(round(q / 100.0 * (len(sorted_vals) - 1)))),
    )
    return sorted_vals[idx]


@dataclass
class LoadResult:
    """One load run's aggregate numbers (the JSON face)."""

    clients: int
    requests: int
    completed: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    iterations: int = 0
    evictions: int = 0
    retried_503: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def jobs_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def to_payload(self) -> Dict[str, Any]:
        lat = sorted(self.latencies_s)
        return {
            "clients": self.clients,
            "requests_per_client": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "jobs_per_s": self.jobs_per_s,
            "iterations_streamed": self.iterations,
            "evictions": self.evictions,
            "retried_503": self.retried_503,
            "latency_s": {
                "min": pctl(lat, 0),
                "p50": pctl(lat, 50),
                "p90": pctl(lat, 90),
                "p99": pctl(lat, 99),
                "max": pctl(lat, 100),
            },
            "errors": self.errors[:10],
        }

    def render(self) -> str:
        """Human summary in the repo's bench-table style."""
        lat = sorted(self.latencies_s)
        ms = lambda s: f"{s * 1e3:.0f}"  # noqa: E731 - tiny formatter
        lines = [
            f"clients={self.clients} x requests={self.requests}  "
            f"completed={self.completed} failed={self.failed}  "
            f"wall={self.wall_s:.2f}s",
            f"  throughput : {self.jobs_per_s:8.3f} jobs/s   "
            f"({self.iterations} iteration events streamed, "
            f"{self.evictions} evictions, "
            f"{self.retried_503} 503-retries)",
            f"  lat(ms)    : min={ms(pctl(lat, 0))} "
            f"p50={ms(pctl(lat, 50))} p90={ms(pctl(lat, 90))} "
            f"p99={ms(pctl(lat, 99))} max={ms(pctl(lat, 100))}",
        ]
        return "\n".join(lines)


def _submit_with_backoff(
    client: ServeClient,
    spec: JobSpec,
    rng: random.Random,
    max_retries: int,
    result: LoadResult,
    lock: threading.Lock,
) -> Dict[str, Any]:
    """Submit one job, absorbing 503 back-pressure.

    Honors the server's ``Retry-After`` (plus up-to-50% jitter so a
    herd of clients doesn't re-stampede in lockstep), doubling a base
    delay when the header is absent.  Any other error propagates.
    """
    delay = 0.1
    for attempt in range(max_retries + 1):
        try:
            return client.submit(spec)
        except ServeError as exc:
            if exc.status != 503 or attempt == max_retries:
                raise
            wait = exc.retry_after if exc.retry_after is not None else delay
            delay = min(10.0, delay * 2)
            with lock:
                result.retried_503 += 1
            time.sleep(wait * (1.0 + 0.5 * rng.random()))
    raise AssertionError("unreachable")  # pragma: no cover


def _client_worker(
    worker: int,
    args,
    url: str,
    result: LoadResult,
    lock: threading.Lock,
) -> None:
    client = ServeClient(url, timeout=args.timeout)
    rng = random.Random(args.seed_base * 7919 + worker)
    for i in range(args.requests):
        spec = JobSpec(
            kind="optimize",
            bench=args.bench,
            method=args.method,
            mode=args.mode,
            bound=args.bound,
            vectors=args.vectors,
            effort=args.effort,
            seed=args.seed_base + worker * args.requests + i,
            tag=f"loadgen-w{worker}-{i}",
        )
        begin = time.perf_counter()
        try:
            job = _submit_with_backoff(
                client, spec, rng, args.max_503_retries, result, lock
            )
            events = list(client.events(job["id"]))
            final = "unknown"
            for event in events:
                if event.get("type") == "end":
                    final = event.get("state", "unknown")
        except (ServeError, OSError) as exc:
            with lock:
                result.failed += 1
                result.errors.append(str(exc))
            continue
        elapsed = time.perf_counter() - begin
        iters = sum(1 for e in events if e.get("type") == "iteration")
        with lock:
            if final == "done":
                result.completed += 1
                result.latencies_s.append(elapsed)
                result.iterations += iters
            else:
                result.failed += 1
                result.errors.append(f"job ended {final}")


def run_load(args, url: str) -> LoadResult:
    """Run the configured load against ``url`` (blocking)."""
    result = LoadResult(clients=args.clients, requests=args.requests)
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(w, args, url, result, lock),
            name=f"loadgen-{w}",
        )
        for w in range(args.clients)
    ]
    begin = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.wall_s = time.perf_counter() - begin
    # Evictions happened server-side; read them off the job list.
    try:
        for job in ServeClient(url, timeout=args.timeout).jobs():
            result.evictions += job.get("evictions", 0)
    except (ServeError, OSError):
        pass  # the numbers above stand on their own
    return result


# ----------------------------------------------------------------------
# --spawn: own the daemon's lifecycle for self-contained benchmarks
# ----------------------------------------------------------------------
def _spawn_daemon(args) -> "tuple[subprocess.Popen, str]":
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--capacity",
        str(args.capacity),
        "--quiet",
    ]
    if args.server_jobs:
        cmd += ["--jobs", str(args.server_jobs)]
    proc = subprocess.Popen(
        cmd,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stderr is not None
    deadline = time.monotonic() + 60.0
    url: Optional[str] = None
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        if "repro serve listening on " in line:
            url = line.rsplit(" ", 1)[-1].strip()
            break
    if url is None:
        proc.kill()
        raise RuntimeError("spawned daemon never printed a listen line")
    # Keep draining stderr so the daemon never blocks on a full pipe.
    threading.Thread(
        target=proc.stderr.read, daemon=True
    ).start()
    return proc, url


def loadgen_main(args) -> int:
    """Entry point behind ``repro loadgen``."""
    proc: Optional[subprocess.Popen] = None
    url = args.url
    try:
        if args.spawn:
            proc, url = _spawn_daemon(args)
        result = run_load(args, url)
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise RuntimeError(
                    "daemon did not drain within 60s of SIGTERM"
                ) from None
            if code != 0:
                raise RuntimeError(
                    f"daemon exited {code} after SIGTERM "
                    "(graceful drain failed)"
                )
    print(result.render(), file=sys.stderr)
    print(json.dumps(result.to_payload(), indent=2))
    return 0 if result.failed == 0 and result.completed > 0 else 1
