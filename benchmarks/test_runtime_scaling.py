"""Runtime scaling of the DCGWO flow with circuit size and worker count.

The paper's §IV summary claims the framework "maintains low time
consumption" thanks to the fast LAC implementation on adjacency lists
and the parallelism-friendly GWO structure.  This bench measures three
things:

* **size scaling** — wall-clock of one full DCGWO run (fixed small
  budget) across circuits of increasing gate count: seconds,
  seconds-per-gate, and candidate evaluations per second (the metric
  the incremental evaluation engine directly improves), so regressions
  in the evaluation hot path show up as super-linear growth or an
  evals/s collapse;
* **shard scaling** — the same run on the two largest circuits with the
  multi-process shard dispatcher at ``jobs`` = 2 and 4 versus serial.
  Worker pools are created and warmed *outside* the timed region (the
  dispatcher is a persistent pool; steady-state throughput is what a
  long optimization sees), and every parallel run is asserted
  bit-identical to the serial one before its throughput is reported.
  Speedups are meaningful only when the host grants the process that
  many cores — the available core count is printed alongside.
* **transport size** — pickled bytes of one child's evaluation
  payload (:func:`repro.core.fitness.eval_payload`, the unit that
  crosses a worker pipe every generation), next to what the same
  payload would cost with per-gate timing dicts instead of the timing
  tuples, and the
  value rows alone (the store's tuple of int rows vs a gid-keyed dict
  of the same rows).  Tracked alongside evals/s so packing regressions
  are as visible as throughput regressions.

Every timed row is the median of several passes (each table title says
how many), so one pass the host slowed down cannot move a row: a single
short pass per row spread ``jobs2_speedup`` over 0.61–0.95 across runs
of one tree.
"""

import os
import pickle
import statistics
import time

from _common import num_vectors, publish, seed

from repro.bench import ripple_adder_circuit
from repro.cells import default_library
from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    applied_copy,
    close_dispatcher,
    evaluate_incremental,
    get_dispatcher,
)
from repro.core.fitness import eval_payload
from repro.netlist import CONST0, CONST1
from repro.reporting import format_series
from repro.sim import ErrorMode

WIDTHS = (8, 16, 32, 64, 128)
PARALLEL_WIDTHS = (64, 128)
PARALLEL_JOBS = (2, 4)
#: Timed passes per row; each row reports their median.
SIZE_PASSES = 3
SHARD_PASSES = 5


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _build_ctx(width, library):
    circuit = ripple_adder_circuit(width)
    return circuit, EvalContext.build(
        circuit, library, ErrorMode.NMED,
        num_vectors=num_vectors(), seed=seed(),
    )


def _timed_run(ctx, jobs, passes):
    """A seeded DCGWO run and the median wall clock of ``passes`` runs.

    Runs are deterministic (identical results every pass — the
    determinism suites pin this), so passes differ only in what the
    host's scheduler did to each, and the median is a typical pass.
    """
    cfg = DCGWOConfig(
        population_size=8, imax=4, seed=seed(), jobs=jobs
    )
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        result = DCGWO(ctx, 0.0244, cfg).optimize()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def _signature(result):
    return (
        result.best.fitness,
        result.best.error,
        result.best.circuit.structure_key(),
        result.evaluations,
        tuple(result.history),
    )


def run_scaling():
    library = default_library()
    rows = {
        "gates": [],
        "seconds": [],
        "ms_per_gate": [],
        "evals_per_s": [],
    }
    for width in WIDTHS:
        circuit, ctx = _build_ctx(width, library)
        # jobs=1 pins the baseline serial even if REPRO_JOBS is set.
        result, elapsed = _timed_run(ctx, jobs=1, passes=SIZE_PASSES)
        rows["gates"].append(float(circuit.num_gates))
        rows["seconds"].append(elapsed)
        rows["ms_per_gate"].append(1000.0 * elapsed / circuit.num_gates)
        rows["evals_per_s"].append(result.evaluations / elapsed)
    return rows


def _legacy_timing_dicts(report):
    """The five per-gate timing dicts the row-indexed tuples replaced."""
    row = report.index.row
    cf = report.critical_fanin_a
    return (
        {gid: report.arrival_a[r] for gid, r in row.items()},
        {gid: report.slew_a[r] for gid, r in row.items()},
        {gid: report.load_a[r] for gid, r in row.items()},
        {gid: report.unit_depth_a[r] for gid, r in row.items()},
        {gid: None if cf[r] < 0 else cf[r] for gid, r in row.items()},
    )


def _legacy_pack_bytes(ev):
    """Pickled size of the payload with five per-gate timing dicts.

    The value rows are kept; only the timing store differs, so the
    delta isolates what the timing tuples save on the wire.
    """
    legacy = (*_legacy_timing_dicts(ev.report), ev.values.rows)
    return len(pickle.dumps(legacy))


def run_transport_sizes():
    """Per-eval payload bytes (shard pipes): timing tuples vs legacy
    dicts."""
    library = default_library()
    # Published in kB so values fit format_series's fixed-width columns.
    rows = {
        "tuples_kb": [],
        "dict_kb": [],
        "ratio": [],
        "rpt_tuples_kb": [],
        "rpt_dict_kb": [],
        "val_rows_kb": [],
        "val_keyed_kb": [],
        "val_ratio": [],
    }
    for width in PARALLEL_WIDTHS:
        circuit, ctx = _build_ctx(width, library)
        parent = ctx.reference_eval()
        # A representative generation member: one LAC off the parent.
        child = applied_copy(circuit, LAC(circuit.logic_ids()[-1], -1))
        ev = evaluate_incremental(ctx, child, parent)
        payload = eval_payload(ev)
        packed = len(pickle.dumps(payload))
        legacy = _legacy_pack_bytes(ev)
        rows["tuples_kb"].append(packed / 1024.0)
        rows["dict_kb"].append(legacy / 1024.0)
        rows["ratio"].append(packed / legacy)
        # The value rows alone: the store's tuple (no keys on the
        # wire) vs a gid-keyed packing of the same rows.
        values = ev.values
        dense = len(pickle.dumps(values.rows))
        keys = [CONST0, CONST1, *values.index.row]
        keyed = len(pickle.dumps({gid: values[gid] for gid in keys}))
        rows["val_rows_kb"].append(dense / 1024.0)
        rows["val_keyed_kb"].append(keyed / 1024.0)
        rows["val_ratio"].append(dense / keyed)
        # The timing tuples alone (what the row-indexed store changed).
        rows["rpt_tuples_kb"].append(
            len(pickle.dumps(payload[:5])) / 1024.0
        )
        rows["rpt_dict_kb"].append(
            len(pickle.dumps(_legacy_timing_dicts(ev.report))) / 1024.0
        )
    return rows


def run_parallel_scaling():
    """Serial vs sharded evals/s on the two largest sweep circuits."""
    library = default_library()
    rows = {"serial_evals_per_s": []}
    for jobs in PARALLEL_JOBS:
        rows[f"jobs{jobs}_evals_per_s"] = []
        rows[f"jobs{jobs}_speedup"] = []
    for width in PARALLEL_WIDTHS:
        _, ctx = _build_ctx(width, library)
        serial_result, serial_s = _timed_run(
            ctx, jobs=1, passes=SHARD_PASSES
        )
        serial_rate = serial_result.evaluations / serial_s
        rows["serial_evals_per_s"].append(serial_rate)
        for jobs in PARALLEL_JOBS:
            _, ctx = _build_ctx(width, library)
            get_dispatcher(ctx, jobs).warmup()  # outside the timed region
            result, elapsed = _timed_run(ctx, jobs=jobs, passes=SHARD_PASSES)
            close_dispatcher(ctx)
            # The determinism contract is part of the bench: a speedup
            # that changed a single bit would be a bug, not a feature.
            assert _signature(result) == _signature(serial_result)
            rate = result.evaluations / elapsed
            rows[f"jobs{jobs}_evals_per_s"].append(rate)
            rows[f"jobs{jobs}_speedup"].append(rate / serial_rate)
    return rows


def test_runtime_scaling(benchmark):
    rows = benchmark.pedantic(
        run_scaling, rounds=1, iterations=1, warmup_rounds=0
    )
    parallel_rows = run_parallel_scaling()
    text = format_series(
        "DCGWO runtime scaling on ripple adders (fixed N=8, Imax=4; "
        f"median of {SIZE_PASSES} passes per row)",
        "width",
        list(WIDTHS),
        rows,
    )
    text += "\n\n" + format_series(
        "Sharded evaluation throughput, serial vs jobs=2/4 "
        f"(warm pools; median of {SHARD_PASSES} passes per row; "
        f"{_available_cores()} core(s) available)",
        "width",
        list(PARALLEL_WIDTHS),
        parallel_rows,
    )
    text += (
        "\nparallel runs asserted bit-identical to serial before "
        "throughput is reported"
    )
    transport_rows = run_transport_sizes()
    text += "\n\n" + format_series(
        "Per-eval transport (pickled kB of eval_payload: timing "
        "tuples vs per-gate dicts)",
        "width",
        list(PARALLEL_WIDTHS),
        transport_rows,
    )
    publish("runtime_scaling", text)
    # The tuple packing must actually be smaller than the dict packing
    # it replaced — a transport regression fails the bench like a
    # throughput regression would.  Same for the tuple of value rows vs
    # a keyed packing of the same rows.
    assert all(r < 1.0 for r in transport_rows["ratio"])
    assert all(r < 1.0 for r in transport_rows["val_ratio"])
    # Soft check: per-gate cost must stay within an order of magnitude
    # across a 16x size sweep (i.e. roughly linear overall scaling).
    per_gate = rows["ms_per_gate"]
    assert max(per_gate) <= 12 * min(per_gate)
