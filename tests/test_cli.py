"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from conekit.cli import main
from conekit.generate import InstanceSpec, instance_payload
from conekit.serialize import canonical_json


class TestVerify:
    def test_default_invocation_passes(self, capsys):
        code = main(["verify", "--suite", "cone", "--trials", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite cone" in out
        assert "pointedness: ok" in out

    def test_json_report_is_canonical(self, capsys):
        argv = ["verify", "--suite", "lemmas", "--trials", "4", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical reruns
        report = json.loads(first)
        assert report["suite"] == "lemmas"
        assert report["ok"] is True
        assert canonical_json(report) == first.strip()

    def test_json_to_file_matches_stdout(self, capsys, tmp_path):
        base = ["verify", "--suite", "cone", "--trials", "4", "--seed", "9"]
        assert main([*base, "--json"]) == 0
        streamed = capsys.readouterr().out
        target = tmp_path / "report.json"
        assert main([*base, "--json", str(target)]) == 0
        assert capsys.readouterr().out == ""  # file mode stays quiet
        assert target.read_text(encoding="utf-8") == streamed

    def test_json_to_unwritable_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code = main(["verify", "--suite", "cone", "--trials", "2",
                     "--json", str(target)])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failure_exit_code(self, capsys):
        code = main(
            ["verify", "--suite", "calculus", "--trials", "3", "--tol", "1e-18"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert "replay:" in out

    def test_json_report_with_crashed_trials(self, capsys):
        # at this tolerance sqrt_positive rejects its own positive draws
        code = main(
            ["verify", "--suite", "calculus", "--seed", "3", "--trials", "10",
             "--tol", "1e-17", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert not report["ok"]
        crashed = [f for f in report["failures"] if f["residual"] is None]
        assert crashed
        assert all("Error: " in f["message"] for f in crashed)
        for name in {f["property"] for f in crashed}:
            assert report["properties"][name]["worst_residual"] is None

    def test_all_suite_flag_combination(self, capsys):
        code = main(
            [
                "verify", "--suite", "all", "--trials", "2", "--seed", "7",
                "--blocks", "2", "--max-dim", "3", "--depth", "3", "--workers", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "total: 0 failure(s); ok" in out

    def test_bad_parameters_exit_two(self, capsys):
        code = main(["verify", "--trials", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "trials" in err


class TestGenAndCheck:
    def test_gen_to_stdout_matches_library(self, capsys):
        assert main(["gen", "--seed", "5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == canonical_json(instance_payload(InstanceSpec(seed=5)))

    def test_gen_check_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        assert main(["gen", "--seed", "11", "--depth", "3", "--out", str(path)]) == 0
        assert main(["check", "--instance", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok digest=" in out

    def test_gen_spec_file_with_override(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 3, "depth": 2}))
        assert main(["gen", "--spec", str(spec_path), "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["spec"]["seed"] == 4

    def test_gen_bad_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"sedd": 3}')
        assert main(["gen", "--spec", str(spec_path)]) == 2
        assert "spec" in capsys.readouterr().err

    def test_check_detects_tampering(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        payload = instance_payload(InstanceSpec(seed=13))
        payload["digest"] = "f" * 64
        path.write_text(json.dumps(payload))
        assert main(["check", "--instance", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_missing_file(self, capsys):
        assert main(["check", "--instance", "/nonexistent/instance.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["check", "--tol", "-1"], None),
            (["check", "--tol", "nan"], None),
            (["gen"], {"blocks": 2.5}),
            (["gen"], {"seed": True}),
            (["verify", "--tol", "inf"], None),
        ],
        ids=["check-negative-tol", "check-nan-tol", "gen-float-blocks",
             "gen-bool-seed", "verify-infinite-tol"],
    )
    def test_exit_two_with_one_line_message(self, argv, spec, tmp_path, capsys):
        if argv[0] == "check":
            path = tmp_path / "instance.json"
            path.write_text(canonical_json(instance_payload(InstanceSpec(seed=2))))
            argv = [*argv, "--instance", str(path)]
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = [*argv, "--spec", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"conekit {argv[0]}: ")
        assert captured.err.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "conekit.cli", "verify", "--suite", "cone",
             "--trials", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "suite cone" in proc.stdout

    def test_json_byte_identical_across_processes(self):
        argv = [sys.executable, "-m", "conekit.cli", "verify", "--suite", "theorem",
                "--trials", "4", "--json", "--seed", "21"]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
