"""Tests for post-run analysis: diffs, LAC recovery, fronts, convergence —
plus the contract-enforcement suite (``repro lint`` + runtime sanitizer)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DCGWO,
    DCGWOConfig,
    EvalContext,
    LAC,
    applied_copy,
    circuit_diff,
    evaluate,
    extract_lacs,
    format_convergence,
    format_diff,
    format_pareto_front,
    pareto_front,
)
from repro.netlist import CONST0, Circuit
from repro.sim import ErrorMode


class TestCircuitDiff:
    def test_identical_empty_diff(self, fig3):
        assert circuit_diff(fig3, fig3.copy()) == []

    def test_single_lac_diff(self, fig3):
        child = applied_copy(fig3, LAC(8, CONST0))
        diffs = circuit_diff(fig3, child)
        assert len(diffs) == 1
        d = diffs[0]
        assert d.gate == 11
        assert d.before == (5, 8)
        assert d.after == (5, CONST0)
        assert d.substitutions() == [(8, CONST0)]

    def test_deleted_gate_reported(self, fig3):
        child = applied_copy(fig3, LAC(8, CONST0))
        from repro.netlist import remove_dangling

        remove_dangling(child)
        diffs = circuit_diff(fig3, child)
        deleted = [d for d in diffs if d.after == ()]
        assert any(d.gate == 8 for d in deleted)

    def test_format_diff_text(self, fig3):
        child = applied_copy(fig3, LAC(8, CONST0))
        text = format_diff(fig3, child)
        assert "U11" in text and "const0" in text
        assert "identical" in format_diff(fig3, fig3.copy())


class TestExtractLacs:
    def test_recovers_applied_lac(self, fig3):
        lac = LAC(8, CONST0)
        child = applied_copy(fig3, lac)
        recovered = extract_lacs(fig3, child)
        assert recovered == [lac]

    def test_multi_consumer_collapses(self, fig3):
        lac = LAC(7, CONST0)  # gate 7 feeds gates 9 and 10
        child = applied_copy(fig3, lac)
        recovered = extract_lacs(fig3, child)
        assert recovered == [lac]

    def test_sequential_lacs(self, adder8):
        c = adder8.copy()
        ids = adder8.logic_ids()
        lacs = [LAC(ids[2], CONST0), LAC(ids[10], CONST0)]
        for lac in lacs:
            c.substitute(lac.target, lac.switch)
        recovered = extract_lacs(adder8, c)
        assert set(recovered) == set(lacs)


class TestFronts:
    @pytest.fixture(scope="class")
    def run(self, library):
        from tests.conftest import build_adder

        adder = build_adder(8)
        ctx = EvalContext.build(
            adder, library, ErrorMode.NMED, num_vectors=256, seed=4
        )
        cfg = DCGWOConfig(population_size=8, imax=4, seed=4)
        return DCGWO(ctx, 0.03, cfg).optimize()

    def test_front_members_nondominated(self, run):
        front = pareto_front(run.population)
        assert front
        for a in front:
            for b in run.population:
                assert not (
                    b.fd >= a.fd and b.fa >= a.fa
                    and (b.fd > a.fd or b.fa > a.fa)
                )

    def test_front_sorted_by_fd(self, run):
        front = pareto_front(run.population)
        fds = [ev.fd for ev in front]
        assert fds == sorted(fds, reverse=True)

    def test_empty_population(self):
        assert pareto_front([]) == []

    def test_format_front(self, run):
        text = format_pareto_front(run.population)
        assert "fd" in text and "fitness" in text
        assert len(text.splitlines()) >= 2

    def test_format_convergence(self, run):
        text = format_convergence(run)
        assert "iter" in text
        assert len(text.splitlines()) == len(run.history) + 1

# ----------------------------------------------------------------------
# Static analysis (repro lint)
# ----------------------------------------------------------------------
from repro.analysis import (  # noqa: E402  (grouped with its tests)
    SanitizerError,
    TrackedLock,
    findings_to_json,
    lint_file,
    lint_paths,
    publish_arrays,
    reset_lock_tracking,
    sanitize_enabled,
    verify_provenance,
)
from repro.core import evaluate as _evaluate  # noqa: E402


def _lint(tmp_path, source, subdir=None, only=None):
    """Write ``source`` under ``tmp_path`` (optionally in a fake package
    directory like ``core`` so path-scoped rules fire) and lint it."""
    directory = tmp_path / subdir if subdir else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / "mod.py"
    target.write_text(textwrap.dedent(source))
    return lint_file(str(target), only=only)


def _rules(findings):
    return [f.rule for f in findings]


class TestLintRules:
    def test_r1_memo_mutation_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def bad(circuit):
                order = topological_order(circuit)
                order.append(3)
            """,
        )
        assert _rules(findings) == ["R1"]
        assert "order" in findings[0].message

    def test_r1_copied_memo_ok(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def good(circuit):
                order = list(topological_order(circuit))
                order.append(3)
                return order
            """,
        )
        assert findings == []

    def test_r1_published_attribute_store_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def bad(report):
                report.arrival_a[3] = 0.0
            """,
        )
        assert _rules(findings) == ["R1"]

    def test_r2_undeclared_copy_edit_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def bad(circuit):
                child = circuit.copy()
                child.substitute(1, 2)
                return child
            """,
        )
        assert _rules(findings) == ["R2"]

    def test_r2_declared_copy_edit_ok(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def good(circuit):
                child = circuit.copy()
                since = child.version
                child.substitute(1, 2)
                child.extend_provenance([3], since, 1)
                return child
            """,
        )
        assert findings == []

    def test_r3_unguarded_registry_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def peek(ctx):
                return ctx._dispatcher
            """,
        )
        assert _rules(findings) == ["R3"]

    def test_r3_lock_helper_ok(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def get_dispatcher(ctx, jobs):
                with _DISPATCHER_LOCK:
                    return ctx._dispatcher
            """,
        )
        assert findings == []

    def test_r4_wall_clock_in_core_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            subdir="core",
        )
        assert _rules(findings) == ["R4"]

    def test_r4_outside_eval_paths_ignored(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            subdir="cli",
        )
        assert findings == []

    def test_r4_seeded_rng_ok(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            import random

            def seeded():
                return random.Random(7).random()
            """,
            subdir="core",
        )
        assert findings == []

    def test_r5_is_const_in_loop_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def count(gates):
                total = 0
                for gid in gates:
                    if is_const(gid):
                        total += 1
                return total
            """,
            subdir="sim",
        )
        assert _rules(findings) == ["R5"]

    def test_r5_outside_loop_ok(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def lone(gid):
                return is_const(gid)
            """,
            subdir="sim",
        )
        assert findings == []

    def test_syntax_error_reported_as_r0(self, tmp_path):
        findings = _lint(tmp_path, "def broken(:\n")
        assert _rules(findings) == ["R0"]


class TestLintAllows:
    def test_justified_allow_suppresses(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def fill(circuit):
                cache = topological_order(circuit)
                # lint: allow[R1] owner-populated memo, version-scoped
                cache.append(3)
            """,
        )
        assert findings == []

    def test_bare_allow_keeps_finding_and_adds_r0(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def fill(circuit):
                cache = topological_order(circuit)
                # lint: allow[R1]
                cache.append(3)
            """,
        )
        assert _rules(findings) == ["R1", "R0"]

    def test_allow_on_def_line_covers_function(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            # lint: allow[R1] publish site: fills a fresh unshared store
            def fill(circuit):
                cache = topological_order(circuit)
                cache.append(3)
            """,
        )
        assert findings == []

    def test_allow_wrong_rule_does_not_suppress(self, tmp_path):
        findings = _lint(
            tmp_path,
            """
            def fill(circuit):
                cache = topological_order(circuit)
                # lint: allow[R2] wrong rule
                cache.append(3)
            """,
        )
        assert _rules(findings) == ["R1"]


class TestLintCli:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_json_output_shape_and_exit_code(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "def bad(c):\n"
            "    order = topological_order(c)\n"
            "    order.append(3)\n"
        )
        proc = self._run(str(bad), "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload == [
            {
                "file": str(bad),
                "line": 3,
                "rule": "R1",
                "message": payload[0]["message"],
            }
        ]

    def test_clean_tree_exits_zero(self, tmp_path):
        good = tmp_path / "mod.py"
        good.write_text("def fine():\n    return 1\n")
        proc = self._run(str(good))
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_repo_scans_clean(self):
        src = Path(__file__).resolve().parent.parent / "src"
        assert lint_paths([str(src)]) == []

    def test_findings_to_json_roundtrip(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "def bad(c):\n"
            "    order = topological_order(c)\n"
            "    order.append(3)\n"
        )
        payload = json.loads(findings_to_json(lint_file(str(bad))))
        assert [p["rule"] for p in payload] == ["R1"]
        assert set(payload[0]) == {"file", "line", "rule", "message"}


# ----------------------------------------------------------------------
# Runtime sanitizer (REPRO_SANITIZE=1)
# ----------------------------------------------------------------------
class TestSanitizerPublish:
    def test_disabled_leaves_arrays_writable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        arr = np.zeros(4)
        publish_arrays(arr, None)
        assert arr.flags.writeable

    def test_enabled_freezes_arrays(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        arr, other = np.zeros(4), np.zeros(2)
        publish_arrays(arr, None, other)
        assert not arr.flags.writeable and not other.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_published_eval_arrays_reject_writes(
        self, fig3, library, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ctx = EvalContext.build(
            fig3, library, ErrorMode.NMED, num_vectors=64, seed=1
        )
        ev = _evaluate(ctx, fig3)
        with pytest.raises(ValueError):
            ev.report.arrival_a[0] = 0.0
        # Value rows are a tuple: read-only by type, sanitizer or not.
        with pytest.raises(TypeError):
            ev.values.rows[0] = 0
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        with pytest.raises(TypeError):
            _evaluate(ctx, fig3).values.rows[0] = 0


class TestProvenanceTripwire:
    def test_undeclared_edit_raises(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        child = fig3.copy()
        since = child.version
        child.substitute(8, CONST0)
        writes = child.version - since
        # The arithmetic closes but gate 11 (the rewritten consumer)
        # is not declared: the tripwire must refuse the record.
        with pytest.raises(SanitizerError):
            child.extend_provenance([9], since, writes)

    def test_declared_edit_passes(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        child = fig3.copy()
        since = child.version
        child.substitute(8, CONST0)
        writes = child.version - since
        child.extend_provenance([11], since, writes)
        assert child.valid_provenance() is not None
        child.copy()  # copy-boundary check passes too

    def test_out_of_order_rewire_raises(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        child = fig3.copy()
        since = child.version
        # Gate 9 now reads gate 10: still acyclic, but a fan-in above
        # its consumer's ID breaks the gid order the hot paths need.
        child.set_fanins(9, (6, 10))
        with pytest.raises(SanitizerError, match="gid-topological"):
            child.extend_provenance([9], since, 1)

    def test_verify_noop_when_record_stale(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        child = fig3.copy()
        child.substitute(8, CONST0)  # undeclared: record goes stale
        assert child.valid_provenance() is None
        verify_provenance(child)  # stale record: nothing to check


class TestDerivedMemoCheck:
    def test_wrong_derivation_raises(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # A derivation that forgets the edit: gate 8 dies in the child,
        # but it would keep its parent's live set.
        monkeypatch.setattr(
            Circuit,
            "_derive_live",
            lambda self, parent, changed: parent.live_gates(),
        )
        child = applied_copy(fig3, LAC(8, CONST0))
        with pytest.raises(SanitizerError, match="'live'"):
            child.live_gates()

    def test_reordered_fanin_dict_raises(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        child = fig3.copy()
        since = child.version
        fanins = child.fanins[11]
        del child.fanins[11]
        child.fanins[11] = fanins  # same record, now last in dict order
        child.extend_provenance([11], since, 2)
        # Derived fan-out lists are ordered by the parent's positions.
        with pytest.raises(SanitizerError, match="'fanins_pos'"):
            child.fanouts()

    def test_derived_memos_pass(self, fig3, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        child = applied_copy(fig3, LAC(8, CONST0))
        assert 8 not in child.live_gates()
        child.structure_key()
        child.full_structure_key()


class TestTrackedLock:
    def test_inversion_raises_before_blocking(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_lock_tracking()
        a = TrackedLock("test.A")
        b = TrackedLock("test.B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(SanitizerError, match="lock-order inversion"):
                a.acquire()
        # The failed acquire must not leak into the held stack.
        with a:
            with b:
                pass

    def test_reentrant_lock_allows_nesting(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_lock_tracking()
        lock = TrackedLock("test.R", reentrant=True)
        with lock:
            with lock:
                pass
        with lock:
            pass

    def test_consistent_order_never_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_lock_tracking()
        a = TrackedLock("test.C")
        b = TrackedLock("test.D")
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_disabled_is_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        reset_lock_tracking()
        b = TrackedLock("test.E")
        a = TrackedLock("test.F")
        with b:
            with a:
                pass
        with a:
            with b:  # would invert, but tracking is off
                pass
