"""Self-checks of the flow benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

The identity tests run real one-job workloads (about a minute in all):
counts and ``ratio_cpd`` repeat exactly for one workload seed, the
traced run reproduces the untraced results, and the shard-pool
workload reproduces the serial workload seed for seed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as entry  # noqa: E402

entry.import_program()

import flows  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def test_job_seed_rule_is_fixed_and_avoids_the_heldout_seed():
    assert flows.job_seeds(3, 4) == [3000, 3001, 3002, 3003]
    assert flows.HELDOUT_SEED % 1000 >= flows.MAX_JOBS
    with pytest.raises(ValueError):
        flows.job_seeds(-1, 1)
    with pytest.raises(ValueError):
        flows.job_seeds(1, flows.MAX_JOBS + 1)


def test_job_count_depends_only_on_the_arguments():
    wl = flows.WORKLOADS["dcgwo-cavlc-er"]
    assert wl.job_count(1, traced=False) == 1
    assert wl.job_count(10 * wl.job_budget_s, traced=False) == 10
    assert wl.job_count(10 * wl.job_budget_s, traced=True) == 5


def test_speed_probe_scales_to_reference_seconds():
    probe = speed.SpeedProbe()
    probe.samples = [0.002, 0.004]
    assert probe.factor() == pytest.approx(speed.REFERENCE_KERNEL_S / 0.003)
    probe = speed.SpeedProbe()
    probe.on_run_start("Ours", 20, None)
    probe.on_iteration(None)  # within MIN_INTERVAL_S of the first round
    assert len(probe.samples) == speed.SAMPLES_PER_ROUND
    assert probe.spent >= sum(probe.samples)


def _bench_command(root, *extra):
    return [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", "dcgwo-cavlc-er", "--seed", "1", "--seconds", "10",
        *extra,
    ]


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    manifest = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(manifest):
        shutil.copy(manifest, tmp_path)
    proc = subprocess.run(
        _bench_command(str(tmp_path), "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", entry.REFUSED_ENV)
def test_refuses_fault_injection_and_sanitizer(name):
    env = dict(os.environ, **{name: "1"})
    proc = subprocess.run(
        _bench_command(os.path.dirname(HERE)),
        cwd=os.path.dirname(HERE), env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert name in proc.stderr


@pytest.fixture(scope="module")
def serial_run():
    return flows.run_untraced(flows.WORKLOADS["dcgwo-cavlc-er"], SEED, 1)


def _identities(jobs):
    return [[r.identity() for r in job.results] for job in jobs]


def test_counts_and_ratio_repeat_for_one_seed(serial_run):
    again = flows.run_untraced(flows.WORKLOADS["dcgwo-cavlc-er"], SEED, 1)
    first, second = serial_run.result, again.result
    assert first["correct"] and second["correct"]
    for key in ("attempted", "failed"):
        assert first[key] == second[key]
    assert serial_run.record["ratio_cpd"] == again.record["ratio_cpd"]
    assert _identities(serial_run.jobs) == _identities(again.jobs)
    for job in serial_run.jobs:
        assert job.job_s == job.wall_s * job.speed
        assert len(job.setup_s) == flows.SETUPS_PER_GAP


def test_traced_run_matches_untraced_and_counts_repeat(serial_run):
    wl = flows.WORKLOADS["dcgwo-cavlc-er"]
    (seed,) = flows.job_seeds(SEED, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [flows.run_job(wl, seed, 1, tracer) for _ in range(2)]
    finally:
        tracer.uninstall()
    assert tracer.unbound == []
    assert _identities(traced) == _identities(serial_run.jobs) * 2
    assert traced[0].counts == traced[1].counts
    assert traced[0].counts["op.reproduce.calls"] > 0
    assert traced[0].counts["eval.batch.items"] > 0


@pytest.fixture(scope="module")
def traced_run():
    return flows.run_traced(flows.WORKLOADS["dcgwo-cavlc-er"], SEED, 1)


def test_traced_layer_times_add_up_to_the_traced_job(traced_run):
    outcome = traced_run
    assert outcome.result["correct"]
    assert outcome.record["traced_equals_untraced"] == [True]
    metrics = {k: v["value"] for k, v in outcome.result["metrics"].items()}
    job_layers = [
        m for m in flows.LAYERS.values()
        if m not in ("setup.context_s", "setup.pool_s")
    ]
    total = sum(metrics[m] for m in job_layers) + metrics["untraced_s"]
    assert total == pytest.approx(metrics["trace.job_s"], rel=1e-9)
    assert metrics["untraced_s"] >= 0
    assert metrics["setup.context_s"] > 0


def test_shard_pool_workload_matches_serial_seed_for_seed(serial_run):
    pooled = flows.run_untraced(
        flows.WORKLOADS["dcgwo-cavlc-er-jobs2"], SEED, 1
    )
    assert pooled.result["correct"]
    assert _identities(pooled.jobs) == _identities(serial_run.jobs)
    assert pooled.record["ratio_cpd"] == serial_run.record["ratio_cpd"]
    assert all(job.recoveries == 0 for job in pooled.jobs)


MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_manifest_matches_what_the_runs_print(serial_run, traced_run):
    with open(MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(
        flows.WORKLOADS
    )
    assert flows.METHODS == flows.Session.methods()
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    layers = {m["name"]: m for m in manifest["per_layer"]}
    names = [w["name"] for w in manifest["workloads"]] + list(e2e) + list(layers)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for result, declared in (
        (serial_run.result, e2e), (traced_run.result, layers)
    ):
        assert set(result["metrics"]) == set(declared)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]["unit"]
