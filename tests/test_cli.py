"""Command-line behaviour: outputs, config handling, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from casino_ewac import canonical_model, eta_sweep, smooth
from casino_ewac.cli import (EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK,
                             EXIT_USAGE, PATH_1, PATH_2, main)


def run(*argv):
    return main(list(argv))


class TestBuiltinPaths:
    def test_path_totals(self):
        assert sum(PATH_1) == 105
        assert sum(PATH_2) == 125
        assert len(PATH_1) == len(PATH_2) == 30


class TestSmoothCommand:
    def test_csv_matches_library(self, tmp_path):
        out = tmp_path / "delta.csv"
        assert run("smooth", "--eta", "0.5", "--path", "builtin:1",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,delta_fair,delta_biased"
        assert len(lines) == 31
        delta = smooth(canonical_model(0.5), PATH_1)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(delta[0, 0], rel=1e-11)
        assert float(first[2]) == pytest.approx(delta[0, 1], rel=1e-11)

    def test_explicit_path_and_stdout(self, capsys):
        assert run("smooth", "--eta", "0.0", "--path", "2,4,6") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1,0,1"


class TestBoundsCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run("bounds", "--eta", "0.2", "--path", "builtin:1",
                   "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lb"] == pytest.approx(-7.722944398663, abs=1e-6)
        assert report["ub"] == pytest.approx(18.770564082253, abs=1e-6)
        assert report["lb_cs"] == pytest.approx(13.433516837772, abs=1e-6)
        assert report["naive"] == 0
        assert report["lb_inhom"] <= report["lb"]
        assert report["ub"] <= report["ub_inhom"]
        theta = np.array(report["theta_ub"])
        assert theta.shape == (6, 6)
        np.testing.assert_allclose(theta.sum(), 1.0, atol=1e-9)
        for key in ("ewac_independence", "ewac_comonotonic",
                    "ewac_countermonotonic"):
            assert report["lb"] - 1e-6 <= report[key] <= report["ub"] + 1e-6

    def test_custom_model_via_config(self, tmp_path):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "model": {"p": [0.5, 0.5],
                      "Q": [[0.5, 0.5], [0.5, 0.5]],
                      "E": [[0.25, 0.25, 0.25, 0.25],
                            [0.1, 0.2, 0.3, 0.4]],
                      "w": [1, 2, 3, 4]},
            "path": [1, 4, 4, 2],
        }))
        out = tmp_path / "bounds.json"
        assert run("bounds", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lb"] <= report["ub"]

    def test_non_uniform_fair_die_skips_cs(self, tmp_path):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "model": {"p": [0.5, 0.5],
                      "Q": [[0.5, 0.5], [0.5, 0.5]],
                      "E": [[0.4, 0.6], [0.3, 0.7]],
                      "w": [1, 2]},
            "path": [1, 2, 2],
        }))
        out = tmp_path / "bounds.json"
        assert run("bounds", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lb_cs"] is None and report["ub_cs"] is None


class TestSweepCommands:
    def test_eta_sweep_matches_library(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep-eta", "--path", "builtin:2", "--grid", "0.25,0.75",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("eta,lb,ub,lb_cs,ub_cs,lb_inhom,ub_inhom")
        assert len(lines) == 3
        rows = eta_sweep(PATH_2, [0.25, 0.75])
        got = [float(v) for v in lines[1].split(",")]
        assert got[0] == 0.25
        assert got[1] == pytest.approx(rows[0].lb, rel=1e-11)
        assert got[2] == pytest.approx(rows[0].ub, rel=1e-11)

    def test_horizon_sweep_columns(self, tmp_path):
        out = tmp_path / "horizon.csv"
        assert run("sweep-horizon", "--eta", "0.5", "--t-grid", "20,80",
                   "--seed", "3", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "horizon,lb,ub,naive"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [20, 80]

    def test_horizon_sweep_needs_eta(self, capsys):
        assert run("sweep-horizon", "--t-grid", "20") == EXIT_USAGE
        assert "eta" in capsys.readouterr().err


class TestWacDistCommand:
    def test_rows_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert run("wac-dist", "--eta", "0.5", "--path", "builtin:1",
                       "--theta", "comonotonic", "--samples", "200",
                       "--seed", "21", "--out", str(out)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "sample,wac"
        assert len(lines) == 201
        assert int(lines[1].split(",")[0]) == 1

    def test_optimiser_theta_kinds(self, tmp_path):
        out = tmp_path / "ub.csv"
        assert run("wac-dist", "--eta", "0.5", "--path", "builtin:1",
                   "--theta", "ub", "--constraints", "cs", "--samples", "50",
                   "--seed", "2", "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 51


class TestCopulasCommand:
    def test_three_matrices(self, tmp_path):
        out = tmp_path / "copulas.json"
        assert run("copulas", "--eta", "0.5", "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report) == {"independence", "comonotonic",
                               "countermonotonic"}
        indep = np.array(report["independence"])
        np.testing.assert_allclose(indep[0, 0], (1 / 6) * (1 / 21), atol=1e-12)


class TestConfigHandling:
    def test_flags_equal_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"path": "builtin:2", "grid": [0.3, 0.6]}))
        out_flags = tmp_path / "flags.csv"
        out_config = tmp_path / "config.csv"
        assert run("sweep-eta", "--path", "builtin:2", "--grid", "0.3,0.6",
                   "--out", str(out_flags)) == EXIT_OK
        assert run("sweep-eta", "--config", str(config),
                   "--out", str(out_config)) == EXIT_OK
        assert out_flags.read_bytes() == out_config.read_bytes()

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"eta": 1.0, "path": "1,2"}))
        assert run("smooth", "--config", str(config), "--eta", "0.0") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # eta 0 pins the biased state; the config eta of 1 would pin fair.
        assert lines[1] == "1,0,1"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"paht": "builtin:1"}))
        assert run("sweep-eta", "--config", str(config)) == EXIT_USAGE
        assert "paht" in capsys.readouterr().err

    def test_malformed_json_names_the_line(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"eta": 0.5,\n  "path": }')
        assert run("smooth", "--config", str(config)) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_model_spec_must_be_unambiguous(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": {"p": [0.5, 0.5], "Q": [[0.5, 0.5], [0.5, 0.5]],
                      "E": [[0.5, 0.5], [0.5, 0.5]], "w": [1, 2]}}))
        assert run("bounds", "--config", str(config),
                   "--eta", "0.5") == EXIT_USAGE
        assert "exactly one way" in capsys.readouterr().err
        assert run("bounds") == EXIT_USAGE


class TestExitCodes:
    def test_bad_face_is_a_usage_error(self, capsys):
        assert run("smooth", "--eta", "0.5", "--path", "1,9,2") == EXIT_USAGE
        assert "position 2" in capsys.readouterr().err

    def test_unknown_builtin_path(self, capsys):
        assert run("smooth", "--eta", "0.5",
                   "--path", "builtin:3") == EXIT_USAGE
        assert "builtin" in capsys.readouterr().err

    def test_infeasible_constraints_exit_three(self, tmp_path, capsys):
        # All biased mass on face 1 cannot flow into the upper triangle.
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "model": {"p": [0.5, 0.5], "Q": [[0.5, 0.5], [0.5, 0.5]],
                      "E": [[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]],
                      "w": [1, 2, 3, 4]},
            "path": [1, 1, 1]}))
        code = run("wac-dist", "--config", str(config), "--theta", "ub",
                   "--constraints", "pm", "--samples", "10", "--seed", "0")
        assert code == EXIT_INFEASIBLE
        assert "no joint PMF" in capsys.readouterr().err

    def test_impossible_path_exits_four(self, tmp_path, capsys):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "model": {"p": [1.0, 0.0], "Q": [[1.0, 0.0], [0.0, 1.0]],
                      "E": [[1.0, 0.0], [1.0, 0.0]],
                      "w": [1, 2]},
            "path": [1, 2]}))
        assert run("smooth", "--config", str(config)) == EXIT_NUMERICAL
        assert "zero probability" in capsys.readouterr().err

    def test_usage_error_from_argparse(self):
        assert run("no-such-command") == EXIT_USAGE


class TestDeterminism:
    def test_sweep_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert run("sweep-eta", "--path", "builtin:1",
                       "--grid", "0.1,0.5,0.9", "--out", str(out)) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_console_script_wiring(self, tmp_path):
        out = tmp_path / "delta.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "casino_ewac.cli", "smooth", "--eta", "0.5",
             "--path", "builtin:1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert out.read_text().startswith("t,delta_fair")

    def test_module_run_raises_no_warning(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "casino_ewac.cli",
             "copulas", "--eta", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout).keys() == {
            "independence", "comonotonic", "countermonotonic"}

    def test_builtin_paths_are_shared_with_the_package(self):
        import casino_ewac
        assert casino_ewac.PATH_1 is PATH_1
        assert casino_ewac.PATH_2 is PATH_2
