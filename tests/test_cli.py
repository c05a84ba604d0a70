"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.netlist import parse_verilog, validate, write_verilog


@pytest.fixture
def adder_v(tmp_path, adder4):
    path = tmp_path / "adder4.v"
    path.write_text(write_verilog(adder4))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_bench_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "NotACircuit"])


class TestBenchCommand:
    def test_generates_netlist(self, tmp_path, capsys):
        out = tmp_path / "adder16.v"
        assert main(["bench", "Adder16", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "CPD" in text
        circuit = parse_verilog(out.read_text())
        validate(circuit)
        assert len(circuit.pi_ids) == 32

    def test_report_only(self, capsys):
        assert main(["bench", "Max16"]) == 0
        assert "area" in capsys.readouterr().out


class TestReportCommand:
    def test_reports_timing(self, adder_v, capsys):
        assert main(["report", str(adder_v)]) == 0
        out = capsys.readouterr().out
        assert "Startpoint" in out and "data arrival time" in out


class TestOptimizeCommand:
    def test_full_flow(self, adder_v, tmp_path, capsys):
        out = tmp_path / "approx.v"
        code = main([
            "optimize", str(adder_v),
            "--mode", "nmed", "--bound", "0.02",
            "--vectors", "256", "--effort", "0.2", "--seed", "1",
            "-o", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Ratio_cpd" in stdout
        approx = parse_verilog(out.read_text())
        validate(approx)
        assert len(approx.po_ids) == 5

    def test_method_selection(self, adder_v, capsys):
        code = main([
            "optimize", str(adder_v),
            "--method", "HEDALS", "--mode", "er", "--bound", "0.05",
            "--vectors", "256", "--effort", "0.2",
        ])
        assert code == 0
        assert "HEDALS" in capsys.readouterr().out



class TestInvalidFlowSettings:
    """A flow setting :class:`FlowConfig` refuses is a usage error: one
    line on stderr and exit code 2, before the netlist is read."""

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("optimize", ["--vectors", "0"], "num_vectors must be >= 1, "
             "not 0"),
            ("optimize", ["--bound", "-0.1"], "error_bound must be >= 0, "
             "not -0.1"),
            ("optimize", ["--bound", "nan"], "error_bound must be >= 0, "
             "not nan"),
            ("optimize", ["--effort", "0"], "effort must be > 0, not 0.0"),
            ("optimize", ["--effort", "-1"], "effort must be > 0, not -1.0"),
            ("optimize", ["--jobs", "-3"], "jobs must be >= 0, not -3"),
            ("compare", ["--vectors", "0"], "num_vectors must be >= 1, "
             "not 0"),
            ("compare", ["--jobs", "-1"], "jobs must be >= 0, not -1"),
        ],
    )
    def test_refused_with_exit_2(
        self, tmp_path, capsys, command, flags, message
    ):
        path = str(tmp_path / "never-read.v")
        with pytest.raises(SystemExit) as exc:
            main([command, path, *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{command}: {message}\n"

    def test_resume_refuses_negative_jobs(self, tmp_path, capsys):
        path = str(tmp_path / "never-read.ckpt")
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--resume", path, "--jobs", "-2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "optimize: jobs must be >= 0, not -2\n"
        )

class TestUnreadableInput:
    """An unreadable input file is a usage error: one line on stderr
    and exit code 2, as argparse gives for a bad argument."""

    @pytest.mark.parametrize(
        "command, args",
        [
            ("optimize", []),
            ("compare", []),
            ("report", []),
            ("optimize", ["--resume"]),
        ],
        ids=["optimize", "compare", "report", "optimize-resume"],
    )
    def test_missing_file(self, tmp_path, capsys, command, args):
        path = str(tmp_path / "missing.v")
        with pytest.raises(SystemExit) as exc:
            main([command, *args, path])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: cannot read {path}: No such file or directory\n"
        )

    def test_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            f"report: cannot read {tmp_path}: "
        )
