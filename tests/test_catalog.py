"""The run catalog: what a cache directory holds, and the session wiring.

Contracts pinned here:

* **one small file per run** — a completed run under a cache directory
  writes exactly one ``catalog/run-*.pkl`` entry, and evaluation never
  touches the directory (a batch under ``REPRO_CACHE`` leaves every
  child's timing pending);
* **catalog files** — a writer's ``.tmp-`` file is neither counted nor
  read, and a failed write warns once, removes its temporary file and
  leaves the run's result as it was;
* **session wiring** — ``cache=False`` → ``cache_dir=`` →
  ``FlowConfig.cache_dir`` → ``REPRO_CACHE`` resolution (once, when the
  session is built), checkpoint/resume reattachment, and
  ``warm_start`` seeding;
* **parallel compare** — serial and ``jobs=2`` sweeps record the same
  catalog entries.
"""

from __future__ import annotations

import errno
import os
import random
import warnings

import pytest

from reference_circuits import build_adder

from repro import FlowConfig, Session
from repro.__main__ import main
from repro.core import LAC, applied_copy, is_safe
from repro.lake import Catalog, RunRecord
from repro.sim import ErrorMode, best_switch


#: A config whose seeded DCGWO trajectory actually improves the adder
#: (ratio_cpd < 1), so bit-identity checks exercise non-trivial work.
ER_CFG = dict(
    error_mode=ErrorMode.ER,
    error_bound=0.15,
    num_vectors=256,
    effort=0.3,
    seed=1,
)


def _bench_adder():
    from repro.bench import build_benchmark

    return build_benchmark("Adder", "scaled")


def _flow_signature(result):
    return (
        result.ratio_cpd,
        result.cpd_ori,
        result.cpd_fac,
        result.error,
        result.area_ori,
        result.area_fac,
        result.circuit.structure_key(),
    )


def _files(root):
    """Every file under ``root``, relative to it."""
    return sorted(
        os.path.relpath(os.path.join(path, name), root)
        for path, _, names in os.walk(root)
        for name in names
    )


def _catalog_dir(cache_dir):
    return os.path.join(os.path.abspath(cache_dir), "catalog")


def _full_disk_for_catalog(monkeypatch):
    """Make publishing a catalog entry fail as on a full disk."""
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(src).startswith(".tmp-run-"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _entries(catalog):
    """``(method, front structure keys)`` per entry, sorted."""
    return sorted(
        (
            record.method,
            tuple(c.full_structure_key() for c, _ in record.front),
        )
        for record in catalog.runs()
    )


# ----------------------------------------------------------------------
# catalog files
# ----------------------------------------------------------------------
class TestCatalogFiles:
    def test_writers_temp_file_is_not_an_entry(self, tmp_path):
        catalog = Catalog(str(tmp_path / "catalog"))
        catalog.add(
            RunRecord(b"k" * 16, "Ours", "er", 0.05, 1, 0.0, front=[])
        )
        (tmp_path / "catalog" / ".tmp-run-1-0001-abcdef.pkl").write_bytes(
            b"half written"
        )
        assert catalog.count() == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (record,) = catalog.runs()
        assert record.method == "Ours"

    def test_failed_record_warns_once_and_leaves_no_file(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        plain = Session(_bench_adder(), FlowConfig(**ER_CFG), cache=False)
        want = plain.run("Ours")
        plain.close()
        cache_dir = str(tmp_path / "cache")
        session = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        _full_disk_for_catalog(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = session.run("Ours")
        session.close()
        messages = [
            str(w.message) for w in caught
            if "could not record run" in str(w.message)
        ]
        assert len(messages) == 1, messages
        assert _flow_signature(got) == _flow_signature(want)
        assert os.listdir(_catalog_dir(cache_dir)) == []


# ----------------------------------------------------------------------
# a cache directory holds the run catalog only
# ----------------------------------------------------------------------
class TestCatalogOnly:
    def test_run_under_repro_cache_writes_one_small_file(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", str(cache_dir))
        with Session(_bench_adder(), FlowConfig(**ER_CFG)) as session:
            session.run("Ours")
        (name,) = _files(str(cache_dir))
        folder, base = os.path.split(name)
        assert folder == "catalog"
        assert base.startswith("run-") and base.endswith(".pkl")
        assert os.path.getsize(cache_dir / name) < 100_000

    def test_batch_under_repro_cache_leaves_timing_pending(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE", str(cache_dir))
        session = Session(build_adder(8), FlowConfig(num_vectors=128))
        parent = session.ctx.reference_eval()
        rng = random.Random(5)
        circuit = session.circuit
        logic = circuit.logic_ids()
        children = []
        while len(children) < 6:
            target = logic[rng.randrange(len(logic))]
            found = best_switch(circuit, parent.values, target, 128)
            if found is None:
                continue
            lac = LAC(target=target, switch=found[0])
            if is_safe(circuit, lac):
                children.append(applied_copy(circuit, lac))
        evals = session.evaluate_batch(children, parent, jobs=1)
        assert all("_pending" in vars(ev) for ev in evals)
        evals[0].fitness  # the first timing read runs the walk
        assert "_pending" not in vars(evals[0])
        assert all("_pending" in vars(ev) for ev in evals[1:])
        session.close()
        assert not cache_dir.exists()


# ----------------------------------------------------------------------
# session wiring
# ----------------------------------------------------------------------
class TestSessionCatalog:
    def test_run_bit_identical_and_catalogued(self, tmp_path):
        plain = Session(_bench_adder(), FlowConfig(**ER_CFG), cache=False)
        ref = plain.run("Ours")
        plain.close()
        assert ref.ratio_cpd < 1.0  # the config does non-trivial work

        cache_dir = str(tmp_path / "cache")
        session = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        got = session.run("Ours")
        session.close()
        assert _flow_signature(got) == _flow_signature(ref)
        assert session.catalog.count() == 1

    def test_config_cache_dir_attaches_catalog(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cache_dir = str(tmp_path / "cache")
        cfg = FlowConfig(effort=0.2, cache_dir=cache_dir)
        session = Session(build_adder(4), cfg)
        assert session.catalog.path == _catalog_dir(cache_dir)
        session.close()
        # The argument wins over the config field.
        arg_dir = str(tmp_path / "arg")
        session = Session(build_adder(4), cfg, cache_dir=arg_dir)
        assert session.catalog.path == _catalog_dir(arg_dir)
        session.close()

    def test_cache_false_ignores_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envcache"))
        cfg = FlowConfig(num_vectors=64, effort=0.2)
        session = Session(build_adder(4), cfg, cache=False)
        assert session.catalog is None
        session.run("Ours")
        session.close()
        assert not os.path.exists(str(tmp_path / "envcache"))

    def test_env_cache_resolution(self, monkeypatch, tmp_path):
        cache_dir = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE", cache_dir)
        session = Session(build_adder(4), FlowConfig())
        # Decided at build: the environment is not read again.
        monkeypatch.delenv("REPRO_CACHE")
        assert session.catalog.path == _catalog_dir(cache_dir)
        session.close()

    def test_cache_accepts_only_false_or_none(self):
        for cache in (True, "somewhere"):
            with pytest.raises(TypeError, match="False or None"):
                Session(build_adder(4), FlowConfig(), cache=cache)

    def test_checkpoint_resume_reattaches_catalog(self, tmp_path):
        plain = Session(_bench_adder(), FlowConfig(**ER_CFG), cache=False)
        ref = plain.run("Ours")
        plain.close()

        cache_dir = str(tmp_path / "cache")
        ckpt = str(tmp_path / "run.ckpt")
        first = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        partial = first.optimize("Ours", stop_after=2)
        assert not partial.completed
        first.checkpoint(ckpt)
        first.close()

        resumed = Session.resume(ckpt)
        assert resumed.catalog.path == _catalog_dir(cache_dir)
        result = resumed.run("Ours")
        resumed.close()
        assert _flow_signature(result) == _flow_signature(ref)
        assert resumed.catalog.count() == 1

    def test_checkpoint_without_cache_stays_uncached(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        ckpt = str(tmp_path / "run.ckpt")
        session = Session(build_adder(4), FlowConfig(effort=0.2))
        session.checkpoint(ckpt)
        session.close()
        resumed = Session.resume(ckpt)
        assert resumed.catalog is None
        resumed.close()

    def test_checkpoint_keeps_cache_false(self, monkeypatch, tmp_path):
        # A session built with cache=False resumes without a catalog
        # even when REPRO_CACHE names one, and its results are
        # unchanged.
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cfg = FlowConfig(num_vectors=64, effort=0.2)
        plain = Session(build_adder(4), cfg, cache=False)
        ref = plain.run("Ours")
        plain.close()
        ckpt = str(tmp_path / "run.ckpt")
        first = Session(build_adder(4), cfg, cache=False)
        assert not first.optimize("Ours", stop_after=1).completed
        first.checkpoint(ckpt)
        first.close()
        env_cache = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE", str(env_cache))
        resumed = Session.resume(ckpt)
        assert resumed.catalog is None
        result = resumed.run("Ours")
        resumed.close()
        assert not env_cache.exists()
        assert _flow_signature(result) == _flow_signature(ref)

    def test_warm_start_seeds_from_catalog(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        first.run("Ours")
        first.close()

        session = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        seeds = session.warm_start()
        assert seeds
        keys = {c.full_structure_key() for c in seeds}
        assert len(keys) == len(seeds)  # deduplicated
        assert session.warm_start(method="Ours")
        assert session.warm_start(method="HEDALS") == []
        result = session.optimize("Ours", seeds=seeds)
        assert result.completed
        session.close()

    def test_warm_start_other_reference_is_empty(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = Session(
            _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        first.run("Ours")
        first.close()
        other = Session(
            build_adder(4), FlowConfig(**ER_CFG), cache_dir=cache_dir
        )
        assert other.warm_start() == []
        other.close()

    def test_parallel_compare_records_like_serial(self, tmp_path):
        methods = ["Ours", "HEDALS"]
        catalogs = {}
        for jobs in (1, 2):
            cache_dir = str(tmp_path / f"jobs{jobs}")
            with Session(
                _bench_adder(), FlowConfig(**ER_CFG), cache_dir=cache_dir
            ) as session:
                session.compare(methods, jobs=jobs)
            catalogs[jobs] = _entries(Catalog(_catalog_dir(cache_dir)))
        assert [method for method, _ in catalogs[1]] == sorted(methods)
        assert catalogs[2] == catalogs[1]


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestCatalogCLI:
    def test_optimize_cache_dir_flag(self, tmp_path):
        from repro.netlist import write_verilog

        netlist = tmp_path / "adder.v"
        netlist.write_text(write_verilog(build_adder(4)))
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                [
                    "optimize", str(netlist), "--effort", "0.2",
                    "--vectors", "256", "--cache-dir", cache_dir,
                    "--quiet",
                ]
            )
            == 0
        )
        (name,) = _files(cache_dir)
        assert name.startswith(os.path.join("catalog", "run-"))
