"""Workloads, jobs, output checks and metrics of the flow benchmark.

A *run* executes one workload for one workload seed: a fixed number of
jobs, each on a fresh :class:`~repro.session.Session` whose
``FlowConfig.seed`` derives from the workload seed (:func:`job_seeds`).
Timed work is serial in this process, except in the workload that
exists to measure the shard pool.  Results are checked after the timed
loop, from outside the optimizer (:class:`Checker`).

See README.md in this directory for the workload rationale and the
definition of every metric.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.suite import build_benchmark
from repro.cells import default_library
from repro.core import parallel
from repro.session import FlowConfig, Session
from repro.sim import (
    ErrorMode,
    exhaustive_vectors,
    measure_error,
    po_words,
    random_vectors,
    simulate,
)
from repro.sta import STAEngine

from speed import SAMPLES_PER_SETUP, SpeedProbe
from tracing import LAYERS, METHODS, Tracer, job_layer_times, write_spans

#: Circuit profile of every workload (Table I widths; never the
#: ``REPRO_PROFILE`` environment).
PROFILE = "paper"
#: Monte-Carlo vectors and effort of every job (the FlowConfig defaults,
#: pinned so the workloads stay fixed if the defaults move).
NUM_VECTORS = 2048
EFFORT = 1.0
#: Set-ups timed before each job and once more after the last one, so
#: the samples spread across the run; all but the one a job runs on are
#: closed unused.
SETUPS_PER_GAP = 4
#: Held-out check: exhaustive up to this many PIs, else random vectors.
EXHAUSTIVE_PIS = 16
HELDOUT_VECTORS = 100_000
#: Seed of the held-out random vectors.  Job seeds are
#: ``1000 * seed + i`` with ``i < MAX_JOBS``, so none can equal it.
HELDOUT_SEED = 12345
MAX_JOBS = 100


@dataclass(frozen=True)
class Workload:
    """One named input set of the benchmark.

    ``job_budget_s`` is the run time allotted to one job (a job takes
    7-13 s of wall time on the reference host, a Table II row 14-21 s);
    a run of ``--seconds S`` executes ``floor(S / job_budget_s)`` jobs
    (at least one), a count that depends only on the arguments, so a
    run's results repeat exactly for a seed.
    """

    name: str
    circuit: str
    mode: ErrorMode
    bound: float
    jobs: int
    compare: bool
    job_budget_s: float

    def job_count(self, seconds: float, traced: bool) -> int:
        # A traced run executes every job twice (untraced, then traced).
        budget = self.job_budget_s * (2 if traced else 1)
        return max(1, min(MAX_JOBS, int(seconds // budget)))


#: Why each workload exists: see README.md (and BENCHMARK.json).
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Operator-bound: crossover and search dominate a job.
        Workload(
            "dcgwo-adder128-nmed", circuit="Adder", mode=ErrorMode.NMED,
            bound=0.0244, jobs=1, compare=False, job_budget_s=10.0,
        ),
        # Evaluation-bound: timing frontier and stacked value walk.
        Workload(
            "dcgwo-cavlc-er", circuit="Cavlc", mode=ErrorMode.ER,
            bound=0.05, jobs=1, compare=False, job_budget_s=12.0,
        ),
        # The only workload that runs the shard pool; same results as
        # the serial one, so the two job_s give the pool's speed-up.
        Workload(
            "dcgwo-cavlc-er-jobs2", circuit="Cavlc", mode=ErrorMode.ER,
            bound=0.05, jobs=2, compare=False, job_budget_s=12.0,
        ),
        # The only workload that runs the baselines and evaluates single
        # candidates through evaluate_incremental.
        Workload(
            "table2-c3540-er", circuit="c3540", mode=ErrorMode.ER,
            bound=0.05, jobs=1, compare=True, job_budget_s=20.0,
        ),
    )
}


def job_seeds(seed: int, count: int) -> List[int]:
    """The ``FlowConfig.seed`` of each job of a run (fixed rule)."""
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    if not 1 <= count <= MAX_JOBS:
        raise ValueError(f"job count must be in 1..{MAX_JOBS}")
    return [1000 * seed + i for i in range(count)]


# ----------------------------------------------------------------------
# set-up and jobs
# ----------------------------------------------------------------------
def set_up(
    wl: Workload, seed: int, tracer: Optional[Tracer] = None
) -> Tuple[Session, float, float]:
    """A ready session for one job: ``(session, wall s, reference s)``.

    Building the circuit is not timed; the session's construction
    (vectors, reference simulation, full STA), the lazily built
    reference evaluation and, with ``jobs > 1``, a started and warmed
    shard pool are.  The host's speed is sampled right before and after
    (:mod:`speed`).
    """
    circuit = build_benchmark(wl.circuit, PROFILE)
    config = FlowConfig(
        error_mode=wl.mode,
        error_bound=wl.bound,
        num_vectors=NUM_VECTORS,
        seed=seed,
        effort=EFFORT,
        jobs=wl.jobs,
    )
    gc.collect()
    probe = SpeedProbe()
    probe.sample(SAMPLES_PER_SETUP)
    start = time.perf_counter()
    session = Session(circuit, config=config, cache=False)
    session.ctx.reference_eval()
    if wl.jobs > 1 and tracer is None:
        _start_pool(session.ctx, wl.jobs)
    elif wl.jobs > 1:
        tracer.span("setup.pool", _start_pool, session.ctx, wl.jobs)
    wall = time.perf_counter() - start
    probe.sample(SAMPLES_PER_SETUP)
    return session, wall, wall * probe.factor()


def _start_pool(ctx: Any, jobs: int) -> None:
    parallel.get_dispatcher(ctx, jobs).warmup()


@dataclass
class ResultRecord:
    """What the checks and the determinism comparisons need of a result."""

    method: str
    circuit: Any
    cpd_ori: float
    cpd_fac: float
    area_fac: float
    error: float
    evaluations: int
    structure_key: str
    checks: Dict[str, bool] = field(default_factory=dict)
    error_in: float = math.nan
    error_heldout: float = math.nan

    @property
    def ratio(self) -> float:
        return self.cpd_fac / self.cpd_ori

    def identity(self) -> Tuple:
        """The fields two runs of one job must agree on exactly."""
        return (
            self.method,
            self.structure_key,
            self.cpd_fac,
            self.area_fac,
            self.error,
            self.evaluations,
        )


@dataclass
class JobRecord:
    """One job: its seed, timings and results (or the error it raised)."""

    seed: int
    #: Set-up and job times in reference seconds (see :mod:`speed`) ...
    setup_s: List[float] = field(default_factory=list)
    job_s: float = math.nan
    #: ... and in wall seconds, with the job's speed factor.
    setup_wall_s: List[float] = field(default_factory=list)
    wall_s: float = math.nan
    speed: float = math.nan
    results: List[ResultRecord] = field(default_factory=list)
    error: Optional[str] = None
    recoveries: int = 0
    #: Wall time the speed probe took inside the job (excluded above).
    probe_s: float = 0.0
    #: Tracer counters of the job (traced runs only).
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or any(
            not all(r.checks.values()) for r in self.results
        )


def _records(results: Sequence[Any]) -> List[ResultRecord]:
    return [
        ResultRecord(
            method=r.method,
            circuit=r.circuit,
            cpd_ori=r.cpd_ori,
            cpd_fac=r.cpd_fac,
            area_fac=r.area_fac,
            error=r.error,
            evaluations=r.optimization.evaluations,
            structure_key=r.circuit.full_structure_key().hex(),
        )
        for r in results
    ]


def run_job(
    wl: Workload,
    seed: int,
    setups: int,
    tracer: Optional[Tracer] = None,
) -> JobRecord:
    """Set up ``setups`` times (keeping the last session), then run one job.

    A job is ``Session.run("Ours")`` or, for a Table II row,
    ``Session.compare()``.  With a tracer, the set-ups and the job are
    recorded under the job ids ``setup-<seed>`` and ``<seed>``.
    """
    record = JobRecord(seed=seed)
    session: Optional[Session] = None
    try:
        for i in range(setups):
            if tracer is not None:
                tracer.begin(f"setup-{seed}")
            try:
                session, wall, elapsed = set_up(wl, seed, tracer)
            finally:
                if tracer is not None:
                    tracer.end()
            record.setup_wall_s.append(wall)
            record.setup_s.append(elapsed)
            if i < setups - 1:
                session.close()
                session = None
        gc.collect()
        if tracer is not None:
            tracer.begin(str(seed), wl.bound)
        job = (
            session.compare if wl.compare
            else functools.partial(session.run, "Ours")
        )
        probe = SpeedProbe()
        start = time.perf_counter()
        try:
            if tracer is None:
                out = job(jobs=wl.jobs, callbacks=probe)
            else:
                out = tracer.span("job", job, jobs=wl.jobs, callbacks=probe)
        finally:
            record.wall_s = time.perf_counter() - start - probe.spent
            record.probe_s = probe.spent
            if tracer is not None:
                record.counts = dict(tracer.end())
        record.speed = probe.factor()
        record.job_s = record.wall_s * record.speed
        record.results = _records(list(out.values()) if wl.compare else [out])
        record.recoveries = sum(session.fault_stats().values())
    except Exception:  # a job that raises is a failed operation
        record.error = traceback.format_exc()
    finally:
        if session is not None:
            session.close()
    return record


def _set_up_only(
    wl: Workload, seed: int, count: int
) -> List[Tuple[float, float]]:
    """Timed set-ups whose sessions are closed without running a job;
    returns ``(wall s, reference s)`` pairs."""
    times = []
    for _ in range(count):
        session, wall, elapsed = set_up(wl, seed)
        session.close()
        times.append((wall, elapsed))
    return times


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Checker:
    """Checks results of one workload against references built here."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.library = default_library()
        self.reference = build_benchmark(wl.circuit, PROFILE)
        num_pis = len(self.reference.pi_ids)
        if num_pis <= EXHAUSTIVE_PIS:
            self.heldout = exhaustive_vectors(num_pis)
            self.heldout_desc = f"exhaustive, {1 << num_pis} vectors"
        else:
            self.heldout = random_vectors(
                num_pis, HELDOUT_VECTORS, HELDOUT_SEED
            )
            self.heldout_desc = (
                f"{HELDOUT_VECTORS} random vectors, seed {HELDOUT_SEED}"
            )
        self.heldout_ref = self._po(self.reference, self.heldout)
        self.area_con = self.reference.area(self.library)

    @staticmethod
    def _po(circuit: Any, vectors: Any) -> np.ndarray:
        return po_words(circuit, simulate(circuit, vectors))

    def _error(self, ref_po: np.ndarray, circuit: Any, vectors: Any) -> float:
        return measure_error(
            self.wl.mode, ref_po, self._po(circuit, vectors),
            vectors.num_vectors,
        )

    def check(self, job_seed: int, rec: ResultRecord) -> None:
        """Fill ``rec.checks`` (and the measured errors) for one result.

        * ``sta``: a fresh STA of the final netlist reproduces CPD_fac;
        * ``area``: the final area is at most Area_con (= Area_ori);
        * ``error_in``: the error on the job's own vectors is in bound;
        * ``error_heldout``: the error on held-out vectors is in bound.
        """
        wl = self.wl
        circuit = rec.circuit
        cpd = STAEngine(self.library).analyze(circuit).cpd
        vectors = random_vectors(
            len(self.reference.pi_ids), NUM_VECTORS, job_seed
        )
        rec.error_in = self._error(
            self._po(self.reference, vectors), circuit, vectors
        )
        rec.error_heldout = self._error(self.heldout_ref, circuit, self.heldout)
        rec.checks = {
            "sta": cpd == rec.cpd_fac,
            "area": circuit.area(self.library) <= self.area_con,
            "error_in": rec.error_in <= wl.bound,
            "error_heldout": rec.error_heldout <= wl.bound,
        }


#: Checks whose failure means the program's output is wrong.  The
#: held-out check is not among them: a held-out violation is the known
#: winner's-curse defect, counted as a failed operation instead.
CONTRACT_CHECKS = ("sta", "area", "error_in")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _result_count(wl: Workload, jobs: Sequence[JobRecord]) -> int:
    per_job = len(METHODS) if wl.compare else 1
    return sum(per_job if job.error else len(job.results) for job in jobs)


def ratio_cpd(wl: Workload, jobs: Sequence[JobRecord]) -> float:
    """Geometric mean of CPD_fac / CPD_ori; a failed result counts 1.0.

    A job that raised counts as all of its results failing (five for a
    Table II row, one otherwise).
    """
    logs = [
        math.log(r.ratio)
        for job in jobs
        if job.error is None
        for r in job.results
        if all(r.checks.values())
    ]
    return math.exp(sum(logs) / _result_count(wl, jobs))


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its shard workers (MB).

    ``getrusage`` reports the largest finished child's peak, so the
    workers count as ``workers`` times that; pages a forked worker
    shares with this process are counted in both.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def host_fingerprint() -> Dict[str, Any]:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """The printed result plus the run record written beside it."""

    result: Dict[str, Any]
    record: Dict[str, Any]
    jobs: List[JobRecord]
    spans: List[Any] = field(default_factory=list)


def _check_jobs(wl: Workload, jobs: Sequence[JobRecord]) -> Tuple[bool, str]:
    """Run the output checks on every result.

    Returns whether the outputs are correct (no job raised, no contract
    check failed) and a description of the held-out vector set.
    """
    checker = Checker(wl)
    correct = True
    for job in jobs:
        if job.error is not None:
            correct = False
            continue
        for rec in job.results:
            checker.check(job.seed, rec)
            correct &= all(rec.checks[name] for name in CONTRACT_CHECKS)
    return correct, checker.heldout_desc


def _job_json(job: JobRecord) -> Dict[str, Any]:
    return {
        "seed": job.seed,
        "setup_s": job.setup_s,
        "setup_wall_s": job.setup_wall_s,
        "job_s": job.job_s,
        "wall_s": job.wall_s,
        "speed": job.speed,
        "probe_s": job.probe_s,
        "error": job.error,
        "recoveries": job.recoveries,
        "results": [
            {
                "method": r.method,
                "ratio_cpd": r.ratio,
                "cpd_ori": r.cpd_ori,
                "cpd_fac": r.cpd_fac,
                "area_fac": r.area_fac,
                "error": r.error,
                "error_in": r.error_in,
                "error_heldout": r.error_heldout,
                "evaluations": r.evaluations,
                "structure_key": r.structure_key,
                "checks": r.checks,
            }
            for r in job.results
        ],
    }


def run_untraced(wl: Workload, seed: int, seconds: float) -> RunOutcome:
    """The end-to-end run: set-up and job timings, peak memory, checks."""
    seeds = job_seeds(seed, wl.job_count(seconds, traced=False))
    # One untimed set-up first, so one-time process costs (lazy imports,
    # the shared cell library) do not land in the first sample.
    _set_up_only(wl, seeds[0], 1)
    jobs = [run_job(wl, s, SETUPS_PER_GAP) for s in seeds]
    tail = _set_up_only(wl, seeds[-1], SETUPS_PER_GAP)
    peak = peak_rss_mb(wl.jobs)
    correct, heldout = _check_jobs(wl, jobs)
    setups = [t for job in jobs for t in job.setup_s] + [t for _, t in tail]
    times = [job.job_s for job in jobs]
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": sum(job.failed for job in jobs),
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "job_s": _metric(statistics.median(times), "s"),
            "peak_rss_mb": _metric(peak, "MB"),
        },
    }
    record = {
        "heldout": heldout,
        "ratio_cpd": _metric(ratio_cpd(wl, jobs), "ratio"),
        "tail_setups": tail,
        "samples": {
            "setup_s": len(setups),
            "job_s": len(times),
            "ratio_cpd": _result_count(wl, jobs),
            "peak_rss_mb": 1,
        },
    }
    return RunOutcome(result, record, jobs)


def run_traced(wl: Workload, seed: int, seconds: float) -> RunOutcome:
    """The traced run: per-layer metrics from spans and counters.

    Every job seed runs twice, untraced and then traced, so the tracing
    overhead is measured on identical work and the two runs' results
    must agree exactly (a mismatch makes the run incorrect).
    """
    seeds = job_seeds(seed, wl.job_count(seconds, traced=True))
    _set_up_only(wl, seeds[0], 1)
    tracer = Tracer()
    plain: List[JobRecord] = []
    traced: List[JobRecord] = []
    for s in seeds:
        plain.append(run_job(wl, s, SETUPS_PER_GAP))
        tracer.install()
        try:
            traced.append(run_job(wl, s, SETUPS_PER_GAP, tracer))
        finally:
            tracer.uninstall()
    correct, heldout = _check_jobs(wl, plain + traced)
    identical = [
        [r.identity() for r in a.results] == [r.identity() for r in b.results]
        and (a.error is None) == (b.error is None)
        for a, b in zip(plain, traced)
    ]
    correct &= all(identical)
    metrics, samples = _layer_metrics(tracer, traced, plain)
    metrics["ratio_cpd"] = _metric(ratio_cpd(wl, traced), "ratio")
    result = {
        "correct": correct,
        "attempted": len(seeds),
        "failed": sum(
            a.failed or b.failed or not same
            for a, b, same in zip(plain, traced, identical)
        ),
        "metrics": metrics,
    }
    record = {
        "heldout": heldout,
        "samples": samples,
        "traced_equals_untraced": identical,
        "untraced_jobs": [_job_json(j) for j in plain],
        "unbound": tracer.unbound,
    }
    return RunOutcome(result, record, traced, tracer.spans)


#: Per-layer counts taken from the tracer's counters (per-job means).
COUNT_METRICS = (
    "op.reproduce.calls",
    "op.search.calls",
    "netlist.structure_key.calls",
    "eval.batch.calls",
    "eval.batch.items",
    "sta.stacked.children",
    "sta.single.calls",
    "eval.single.calls",
    "eval.full.calls",
    "parallel.items",
)


def _layer_metrics(
    tracer: Tracer, traced: Sequence[JobRecord], plain: Sequence[JobRecord]
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """Mean-per-job layer metrics of the traced jobs.

    Time metrics are per-job means of layer self times in wall seconds,
    so they and ``untraced_s`` add up to ``trace.job_s`` (the traced
    job's wall time less the speed probe's share) exactly; the set-up
    layers are means per set-up instead.  ``method.<name>_s`` include
    the probe's share.  The tracing overhead compares the traced and
    untraced twins in reference seconds (:mod:`speed`).
    """
    n = len(traced)
    totals: Dict[str, float] = {m: 0.0 for m in LAYERS.values()}
    methods = {m: 0.0 for m in METHODS}
    counts: Dict[str, float] = {m: 0.0 for m in COUNT_METRICS}
    counts["eval.evaluations"] = 0.0
    counts["parallel.recoveries"] = 0.0
    job_total = 0.0
    op_calls = op_evaluated = children = over = 0
    for job in traced:
        duration, layers, per_method = job_layer_times(tracer.spans, str(job.seed))
        job_total += duration - job.probe_s
        for metric, value in layers.items():
            totals[metric] += value
        for method, value in per_method.items():
            methods[method] = methods.get(method, 0.0) + value
        c = job.counts
        for metric in COUNT_METRICS:
            counts[metric] += c.get(metric, 0)
        counts["eval.evaluations"] += sum(r.evaluations for r in job.results)
        counts["parallel.recoveries"] += job.recoveries
        op_calls += c.get("op.calls", 0)
        op_evaluated += c.get("op.evaluated", 0)
        children += c.get("eval.children", 0)
        over += c.get("eval.over_bound", 0)
    setups = 0
    setup_totals = {"setup.context_s": 0.0, "setup.pool_s": 0.0}
    for job in traced:
        _, layers, _ = job_layer_times(tracer.spans, f"setup-{job.seed}")
        setups += len(job.setup_s)
        for metric in setup_totals:
            setup_totals[metric] += layers.get(metric, 0.0)
    job_s = job_total / n
    layer_sum = sum(
        v for m, v in totals.items() if m not in setup_totals
    ) / n
    overhead = sum(j.job_s for j in traced) / sum(j.job_s for j in plain) - 1
    metrics: Dict[str, Any] = {
        "trace.job_s": _metric(job_s, "s"),
        "trace.overhead_frac": _metric(overhead, "ratio"),
        "untraced_s": _metric(job_s - layer_sum, "s"),
    }
    for metric, total in totals.items():
        if metric in setup_totals:
            metrics[metric] = _metric(setup_totals[metric] / setups, "s")
        else:
            metrics[metric] = _metric(total / n, "s")
    for method in METHODS:
        metrics[f"method.{method}_s"] = _metric(methods[method] / n, "s")
    for metric, total in counts.items():
        metrics[metric] = _metric(total / n, "count")
    metrics["op.useful_frac"] = _metric(
        op_evaluated / op_calls if op_calls else 0.0, "ratio"
    )
    metrics["eval.over_bound_frac"] = _metric(
        over / children if children else 0.0, "ratio"
    )
    samples = {"jobs": n, "setups": setups}
    return metrics, samples


def run(
    name: str, seed: int, seconds: float, trace: bool, out_dir: Optional[str]
) -> Dict[str, Any]:
    """Run one workload; write the run record; return the printed result."""
    wl = WORKLOADS[name]
    if trace:
        outcome = run_traced(wl, seed, seconds)
    else:
        outcome = run_untraced(wl, seed, seconds)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_fingerprint(),
        "job_seeds": [job.seed for job in outcome.jobs],
        **outcome.record,
        "jobs": [_job_json(job) for job in outcome.jobs],
        "result": outcome.result,
    }
    if out_dir is not None:
        _write_record(out_dir, name, seed, trace, record, outcome.spans)
    _summary(record)
    return outcome.result


def _write_record(
    out_dir: str, name: str, seed: int, trace: bool,
    record: Dict[str, Any], spans: Sequence[Any],
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}.seed{seed}.trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    if spans:
        write_spans(stem + ".spans.tsv", spans)


def _summary(record: Dict[str, Any]) -> None:
    """A human-readable digest of the run on stderr."""
    res = record["result"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {int(record['trace'])}: jobs {res['attempted']} "
        f"failed {res['failed']} correct {res['correct']}",
        f"host {record['host']}",
        f"job seeds {record['job_seeds']}",
    ]
    for job in record["jobs"]:
        if job["error"]:
            lines.append(f"  job {job['seed']}: raised\n{job['error']}")
            continue
        for r in job["results"]:
            bad = [k for k, ok in r["checks"].items() if not ok]
            lines.append(
                f"  job {job['seed']} {r['method']}: ratio "
                f"{r['ratio_cpd']:.4f} err {r['error_in']:.4f} held-out "
                f"{r['error_heldout']:.4f} evals {r['evaluations']} "
                f"job {job['job_s']:.2f} ref-s ({job['wall_s']:.2f} s wall)"
                + (f" FAILED {bad}" if bad else "")
            )
    metrics = dict(res["metrics"])
    if "ratio_cpd" in record:
        metrics["ratio_cpd"] = record["ratio_cpd"]
    for key, m in metrics.items():
        lines.append(f"  {key:28s} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines), file=sys.stderr)
