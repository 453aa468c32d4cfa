"""Command-line behaviour: outputs, config handling, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casino_ewac.cli
from casino_ewac import engine, hmm, sweeps
from casino_ewac import (HmmModel, TransportProblem, canonical_model,
                         copula_pmf, cs_mask, eta_sweep, ewac_bounds,
                         ewac_objective, horizon_sweep, pm_mask, simulate,
                         smooth, solve)
from casino_ewac.cli import (EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK,
                             EXIT_USAGE, PATH_1, PATH_2, _json_text,
                             _parse_path, main)
from casino_ewac.engine import REPORT_COLUMNS
from helpers import (attribute_csv, cold_memo, dense_filter, dense_smooth,
                     exact_canonical_values, iid_cases, iid_law_draws,
                     iid_wac_pmf, json_ready, loop_bounds_report,
                     loop_count_sample_wac, loop_iid_sample_wac,
                     loop_parse_path, path_objective, round12, sticky_model,
                     template_csv, wac_theta)


def run(*argv):
    return main(list(argv))


def run_module(*args, text=True):
    """``python -m casino_ewac.cli`` in a child process that imports the
    package under test, wherever pytest found it."""
    src = str(Path(casino_ewac.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=text, env={**os.environ, "PYTHONPATH": path})


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

    def test_non_uniform_fair_die_reports_cs(self, tmp_path):
        # Ratios 0.75 < 7/6: the cs mask is pm, and the cs pair equals
        # ewac_bounds under it, to the 12 digits printed.
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.4, 0.6], [0.3, 0.7]], [1, 2])
        config = model_config(tmp_path / "model.json", model, path=[1, 2, 2])
        out = tmp_path / "bounds.json"
        assert run("bounds", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        pair = ewac_bounds(path_objective(model, [1, 2, 2])[0],
                           cs_mask(model.emission), tag="cs")
        assert report["lb_cs"] == float(f"{pair.lb:.12g}")
        assert report["ub_cs"] == float(f"{pair.ub:.12g}")
        assert (report["lb"] <= report["lb_cs"] <= report["ub_cs"]
                <= report["ub"])


class TestOneReportRow:
    # bounds and sweep-eta print one row, engine.REPORT_COLUMNS: every
    # number of the bounds JSON is the sweep-eta row's at the same level.
    @pytest.mark.parametrize("path", ["builtin:1", "builtin:2"])
    @pytest.mark.parametrize("eta", ["0", "0.2", "0.37", "0.5", "0.99999",
                                     "1"])
    def test_bounds_equal_the_sweep_row(self, path, eta, tmp_path):
        bounds, sweep = tmp_path / "bounds.json", tmp_path / "sweep.csv"
        assert run("bounds", "--eta", eta, "--path", path,
                   "--out", str(bounds)) == EXIT_OK
        assert run("sweep-eta", "--grid", eta, "--path", path,
                   "--out", str(sweep)) == EXIT_OK
        report = json.loads(bounds.read_text())
        assert sorted(report) == sorted([*REPORT_COLUMNS, "theta_lb",
                                         "theta_ub"])
        header, row = sweep.read_text().splitlines()
        assert tuple(header.split(",")) == ("eta", *REPORT_COLUMNS)
        assert sweeps.ETA_SWEEP_COLUMNS == ("eta", *REPORT_COLUMNS)
        values = [float(value) for value in row.split(",")]
        assert values[0] == float(eta)
        for name, value in zip(REPORT_COLUMNS, values[1:]):
            assert report[name] == value, name


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

    def test_empty_eta_grid_flag_exits_usage(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep-eta", "--grid", "", "--out", str(out)) == EXIT_USAGE
        assert "at least one level" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_eta_grid_config_exits_usage(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"path": "builtin:1", "grid": []}))
        out = tmp_path / "sweep.csv"
        assert run("sweep-eta", "--config", str(config),
                   "--out", str(out)) == EXIT_USAGE
        assert "at least one level" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_sweep_columns(self, tmp_path):
        out = tmp_path / "horizon.csv"
        assert run("sweep-horizon", "--eta", "0.5", "--t-grid", "20,80",
                   "--seed", "3", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "horizon,lb,ub,naive"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [20, 80]

    def test_horizon_sweep_peak_memory_per_period(self, tmp_path,
                                                  monkeypatch):
        # Blocks of 2^12 periods: the sweep keeps face counts at the
        # horizons, not the path, so its peak is one block's temporaries,
        # about 1 byte per period here.  Holding the simulated path took 62.
        periods = 200_000
        monkeypatch.setattr(hmm, "_SIMULATE_BLOCK", 1 << 12)
        out = str(tmp_path / "horizon.csv")
        argv = ("sweep-horizon", "--eta", "0.5", "--out", out)
        assert run(*argv, "--t-grid", "10") == EXIT_OK  # first-call costs
        tracemalloc.start()
        try:
            assert run(*argv, "--t-max", str(periods)) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / periods < 4

    @pytest.mark.parametrize("seed", [0, 7])
    def test_horizon_default_grid_is_the_library_default(self, seed,
                                                         tmp_path):
        # With no grid flag the command sweeps the grid horizon_sweep
        # takes without one: the option table reads its defaults there.
        out = tmp_path / "horizon.csv"
        assert run("sweep-horizon", "--eta", "0.3", "--seed", str(seed),
                   "--out", str(out)) == EXIT_OK
        rows = sweeps.horizon_sweep(0.3, seed=seed)
        columns = sweeps.HORIZON_SWEEP_COLUMNS
        assert out.read_bytes() == template_csv(
            columns, [rows[c].tolist() for c in columns]).encode()

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

    @pytest.mark.parametrize("samples", [70_000, 1])
    def test_csv_equals_the_template(self, samples, tmp_path):
        # The losses, drawn from their exact law and written by the byte
        # writer, give the text of one template per line, across a block
        # boundary and for one line.
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--eta", "0.3", "--path", "builtin:2",
                   "--samples", str(samples), "--seed", "4",
                   "--out", str(out)) == EXIT_OK
        model = canonical_model(0.3)
        wac = iid_law_draws(model, PATH_2,
                            engine.copula_pmf(model, "comonotonic"),
                            samples, 4)
        assert_same_text(out.read_text(), template_csv(
            ("sample", "wac"), (range(1, samples + 1), wac.tolist())))

    @staticmethod
    def losses_csv(wac, tmp_path, monkeypatch):
        """The wac-dist CSV of the Monte-Carlo losses ``wac`` (a Markov
        chain's, so that the draws take that route)."""
        monkeypatch.setattr(
            sweeps, "_sample_wac",
            lambda *args: sweeps.WacSamples(wac=np.asarray(wac, float),
                                            biased_counts=None))
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--config", str(sticky_config(tmp_path)),
                   "--samples", str(len(wac)), "--out", str(out)) == EXIT_OK
        return out.read_text()

    @pytest.mark.parametrize("samples", [9, 10, 9_999, 10_000, 10_001,
                                         65_536, 65_537, 100_001])
    def test_distinct_losses_equal_the_template(self, samples, tmp_path,
                                                monkeypatch):
        # All distinct, not integers, of both signs and many widths: every
        # block's lines then spread over nearly all distinct losses, and
        # blocks end at powers of ten and every 10^4 lines.
        wac = np.random.default_rng(samples).standard_cauchy(samples)
        assert np.unique(wac).size == samples
        assert_same_text(self.losses_csv(wac, tmp_path, monkeypatch),
                         template_csv(("sample", "wac"),
                                      (range(1, samples + 1), wac.tolist())))

    def test_signed_zeros_print_apart(self, tmp_path, monkeypatch):
        # -0.0 == 0.0, yet "%.12g" prints "-0": the losses are told apart
        # by their bits, and the writer keeps both rows in one block.
        wac = [0.0, -0.0, 1.5, -0.0, 0.0]
        assert self.losses_csv(wac, tmp_path, monkeypatch) == (
            "sample,wac\n1,0\n2,-0\n3,1.5\n4,-0\n5,0\n")
        header, *blocks = casino_ewac.cli._numbered_csv(
            ("x", "y"), np.array([[-0.0], [0.0]]), np.array([1, 0, 0, 1]))
        assert header + b"".join(blocks).decode() == (
            "x,y\n1,0\n2,-0\n3,-0\n4,0\n")

    @pytest.mark.parametrize("markov", [False, True])
    def test_config_die_ruling_out_a_face(self, markov, tmp_path):
        # The biased die never shows face 1 and the fair die never shows
        # face 3, so their biased probabilities are 0 and 1; the losses
        # under independence are the loops' draws.
        rows = [[0.6, 0.4], [0.3, 0.7]] if markov else [[0.6, 0.4]] * 2
        model = HmmModel([0.5, 0.5], rows, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
                         [1.0, 2.5, 6.0])
        obs = np.random.default_rng(37).integers(1, 4, 40).tolist()
        config = tmp_path / "die.json"
        config.write_text(json.dumps({
            "model": {"p": model.initial.tolist(), "Q": rows,
                      "E": model.emission.tolist(), "w": [1.0, 2.5, 6.0]},
            "path": ",".join(map(str, obs))}))
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--config", str(config), "--theta",
                   "independence", "--samples", "300", "--seed", "6",
                   "--out", str(out)) == EXIT_OK
        theta = engine.copula_pmf(model, "independence")
        if markov:
            wac, counts = loop_count_sample_wac(model, dense_filter(model, obs),
                                                obs, theta, 300, 6)
        else:
            wac, counts = loop_iid_sample_wac(model, obs, theta, 300, 6)
        assert (counts[:, 0] == 0).all() and counts[:, 2].min() > 0
        assert_same_text(out.read_text(), template_csv(
            ("sample", "wac"), (range(1, 301), wac.tolist())))

    def test_copula_theta_does_not_smooth(self, tmp_path, monkeypatch):
        def no_smoothing(*args):
            raise AssertionError("a copula theta never reads the smoothing")

        monkeypatch.setattr(casino_ewac.cli, "_smoothed_rows", no_smoothing)
        out = tmp_path / "wac.csv"
        for kind in ("independence", "comonotonic", "countermonotonic"):
            assert run("wac-dist", "--eta", "0.5", "--path", "builtin:1",
                       "--theta", kind, "--samples", "20",
                       "--out", str(out)) == EXIT_OK


def sticky_config(tmp_path, path="builtin:1", model=None):
    """A config file holding ``model``, by default helpers.sticky_model(),
    a Markov chain."""
    model = sticky_model() if model is None else model
    config = tmp_path / "sticky.json"
    config.write_text(json.dumps({
        "model": {"p": model.initial.tolist(), "Q": model.transition.tolist(),
                  "E": model.emission.tolist(), "w": model.rewards.tolist()},
        "path": path}))
    return config


class TestWacDistRoutes:
    # On an i.i.d. chain with integral payoffs, wac-dist inverts the loss's
    # exact law at the seed's S uniforms when W^2 <= 2^15 S, W = span(w) T
    # + 1 the points of the loss lattice; other inputs keep the Monte-Carlo
    # draws of sample_wac.

    @pytest.mark.parametrize("path,faces", [("builtin:1", PATH_1),
                                            ("builtin:2", PATH_2)])
    @pytest.mark.parametrize("theta", [
        "independence", "comonotonic", "countermonotonic", "lb", "ub",
        "lb --constraints pm", "ub --constraints pm", "lb --constraints cs",
        "ub --constraints cs"])
    def test_losses_are_the_oracle_law_inverted(self, path, faces, theta,
                                                tmp_path):
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--eta", "0.3", "--path", path, "--theta",
                   *theta.split(), "--samples", "3000", "--seed", "17",
                   "--out", str(out)) == EXIT_OK
        model = canonical_model(0.3)
        wac = iid_law_draws(model, faces, wac_theta(
            model, faces, *theta.replace(" --constraints", "").split()),
            3000, 17)
        assert out.read_text() == template_csv(
            ("sample", "wac"), (range(1, 3001), wac.tolist()))

    def test_draws_pass_a_chi_square_test(self, tmp_path):
        # Level 0.001, cells merged from the left until each expects at
        # least 5 draws, the last merged into the one before it if short.
        chisquare = pytest.importorskip("scipy.stats").chisquare
        count = 20_000
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--eta", "0.5", "--path", "builtin:2",
                   "--theta", "independence", "--samples", str(count),
                   "--seed", "2024", "--out", str(out)) == EXIT_OK
        wac = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        model = canonical_model(0.5)
        support, pmf = iid_wac_pmf(model, PATH_2,
                                   copula_pmf(model, "independence"))
        assert np.isin(wac, support[pmf > 0]).all()
        observed = np.bincount(np.searchsorted(support, wac),
                               minlength=support.size)
        cells, seen, expected = [], 0, 0.0
        for o, e in zip(observed, count * pmf):
            seen, expected = seen + o, expected + e
            if expected >= 5:
                cells.append([seen, expected])
                seen, expected = 0, 0.0
        cells[-1][0] += seen
        cells[-1][1] += expected
        seen, expected = np.array(cells).T
        assert len(cells) > 20
        assert chisquare(seen, expected).pvalue >= 0.001

    @pytest.mark.parametrize("case,digest", [
        ("long-path",
         "d20043bf33f62010e92cd1e914f36b69b754ac450519a9d8e20e4510eaef39ed"),
        ("fractional-payoff",
         "28245672bb223fb31175f271b82f53468275fd56bde452c8020546cb58edc3d4"),
        ("sticky",
         "093027bbdaab1441016ac1a01f260b9a3afc95e0c0682e580989caebbb755dd1"),
    ])
    def test_monte_carlo_inputs_keep_their_bytes(self, case, digest,
                                                 tmp_path):
        # A 10^5-period canonical @file at 50 samples, its digest recorded
        # before the law route existed; an i.i.d. chain whose last payoff
        # is 6.5 and a Markov chain, their digests derived from
        # helpers.loop_iid_sample_wac and loop_count_sample_wac on
        # helpers.dense_filter, written as "%d,%.12g" lines.
        if case == "long-path":
            path = tmp_path / "long.txt"
            faces = simulate(canonical_model(0.5), 10**5, 1)[1]
            path.write_text("\n".join(map(str, faces.tolist())) + "\n")
            argv = ("--eta", "0.5", "--path", f"@{path}", "--theta",
                    "comonotonic", "--samples", "50", "--seed", "11")
        else:
            c = canonical_model(0.5)
            model = None if case == "sticky" else HmmModel(
                c.initial, c.transition, c.emission, [1, 2, 3, 4, 5, 6.5])
            argv = ("--config", str(sticky_config(tmp_path, model=model)),
                    "--theta", "ub", "--constraints", "cs",
                    "--samples", "2000", "--seed", "3")
        out = tmp_path / "wac.csv"
        assert run("wac-dist", *argv, "--out", str(out)) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("samples", [68, 69])
    def test_either_side_of_the_width_rule(self, samples, tmp_path):
        # 300 periods of the canonical casino: W = 5 * 300 + 1 = 1501 and
        # W^2 = 2,253,001 lies above 2^15 * 68 and below 2^15 * 69.
        model = canonical_model(0.5)
        faces = simulate(model, 300, 4)[1].tolist()
        theta = copula_pmf(model, "independence")
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--eta", "0.5", "--path",
                   ",".join(map(str, faces)), "--theta", "independence",
                   "--samples", str(samples), "--seed", "9",
                   "--out", str(out)) == EXIT_OK
        if samples == 68:
            wac, _ = loop_iid_sample_wac(model, faces, theta, samples, 9)
        else:
            wac = iid_law_draws(model, faces, theta, samples, 9)
        assert out.read_text() == template_csv(
            ("sample", "wac"), (range(1, samples + 1), wac.tolist()))

    @pytest.mark.parametrize("samples", [68, 69])
    @pytest.mark.parametrize("theta", ["lb", "ub --constraints cs"])
    def test_face_posteriors_are_computed_once(self, samples, theta,
                                               tmp_path, monkeypatch):
        # The objective's face posteriors are the ones the draws use, on
        # the Monte-Carlo route (68 samples) and the exact law's (69).
        calls = []

        def counted(*args):
            calls.append(args)
            return hmm._iid_posteriors(*args)

        for module in (engine, sweeps):
            monkeypatch.setattr(module, "_iid_posteriors", counted)
        faces = simulate(canonical_model(0.5), 300, 4)[1].tolist()
        out = tmp_path / "wac.csv"
        assert run("wac-dist", "--eta", "0.5", "--path",
                   ",".join(map(str, faces)), "--theta", *theta.split(),
                   "--samples", str(samples), "--seed", "9",
                   "--out", str(out)) == EXIT_OK
        assert len(calls) == 1
        monkeypatch.undo()
        again = tmp_path / "again.csv"
        assert run("wac-dist", "--eta", "0.5", "--path",
                   ",".join(map(str, faces)), "--theta", *theta.split(),
                   "--samples", str(samples), "--seed", "9",
                   "--out", str(again)) == EXIT_OK
        assert again.read_bytes() == out.read_bytes()


class TestMarkovSamplerLog:
    # Backward sampling costs O(S * T); a Markov wac-dist states S * T at
    # info before it samples, and the output does not change by a byte.
    ARGV = ("wac-dist", "--theta", "ub", "--samples", "300", "--seed", "5")

    def test_logs_sample_periods(self, tmp_path, caplog, capsysbinary):
        config = str(sticky_config(tmp_path))
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        assert run(*self.ARGV, "--config", config,
                   "--out", str(quiet)) == EXIT_OK
        assert not caplog.records
        with caplog.at_level(logging.INFO, logger="casino_ewac"):
            assert run(*self.ARGV, "--config", config,
                       "--out", str(loud)) == EXIT_OK
            assert run(*self.ARGV, "--config", config) == EXIT_OK
        assert [r.getMessage() for r in caplog.records] == [
            "backward sampling 9000 sample-periods (300 samples x 30 "
            "periods)"] * 2
        assert quiet.read_bytes() == loud.read_bytes()
        assert capsysbinary.readouterr().out == quiet.read_bytes()

    def test_iid_chain_does_not_log(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="casino_ewac"):
            assert run(*self.ARGV, "--eta", "0.5", "--out",
                       str(tmp_path / "out.csv")) == EXIT_OK
        assert not caplog.records

    def test_process_stderr_has_the_line(self, tmp_path, monkeypatch):
        config = str(sticky_config(tmp_path))
        out = tmp_path / "out.csv"
        assert run(*self.ARGV, "--config", config,
                   "--out", str(out)) == EXIT_OK
        monkeypatch.setenv("CASINO_EWAC_LOG", "info")
        proc = run_module("-m", "casino_ewac.cli", *self.ARGV, "--config",
                          config, text=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == out.read_bytes()
        assert proc.stderr.decode() == (
            "INFO casino_ewac.sweeps: backward sampling 9000 sample-periods "
            "(300 samples x 30 periods)\n")


class TestForwardFilterCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts ``_forward_filter`` calls from every module using it."""
        seen = []
        original = hmm._forward_filter

        def counting(*args):
            seen.append(args)
            return original(*args)

        for module in (hmm, engine, sweeps):
            monkeypatch.setattr(module, "_forward_filter", counting)
        return seen

    @pytest.mark.parametrize("kind", ["lb", "ub"])
    def test_markov_optimiser_draws_filter_once(self, kind, calls, tmp_path):
        # The filter serves the smoothing behind the optimiser and the
        # path draws alike.
        assert run("wac-dist", "--config", str(sticky_config(tmp_path)),
                   "--theta", kind, "--samples", "20",
                   "--out", str(tmp_path / "wac.csv")) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        "smooth --eta 0.3 --path builtin:1",
        "bounds --eta 0.3 --path builtin:2",
        "sweep-eta --path builtin:1 --grid 0.2,0.9",
        "sweep-horizon --eta 0.5 --t-grid 20,80",
        "wac-dist --eta 0.5 --theta ub --constraints cs --samples 20",
        "wac-dist --eta 0.5 --theta lb --samples 20",
        "wac-dist --eta 0.5 --theta independence --samples 20",
    ])
    def test_canonical_commands_never_filter(self, argv, calls, tmp_path):
        assert run(*argv.split(), "--out", str(tmp_path / "out")) == EXIT_OK
        assert calls == []


class TestGoldenOutputs:
    # SHA-256 of the CSV bytes.  smooth, sweep-eta and sweep-horizon were
    # recorded before the CSV writer and the path sampler were rewritten,
    # and still hold with face counts in place of forward-backward; the
    # canonical wac-dist digests were derived from helpers.iid_law_draws
    # (the loss law by sequential convolution, period by period, inverted
    # at the seed's uniforms), written as "%d,%.12g" lines under a
    # "sample,wac" header.
    @pytest.mark.parametrize("argv,digest", [
        pytest.param(
            "smooth --eta 0.5 --path builtin:1",
            "cd31021a5bb57bd0b5c7bb6216adc195ced23d73a592f266b5e30b6f4c6d1fba",
            id="smooth-builtin1"),
        pytest.param(
            "smooth --eta 0.99999 --path builtin:1",
            "11743e823bef4ea3803e192281bd6bb3fb32438cf9aea265eda0b41a22a48335",
            id="smooth-builtin1-near-fair"),
        pytest.param(
            "wac-dist --eta 0.5 --path builtin:1 --theta comonotonic "
            "--samples 200 --seed 21",
            "b9c34e42833ba1eda3e3f95bfae68d29e8d990171b8ff137a05df6e7e3cc972e",
            id="wac-dist-comonotonic"),
        pytest.param(
            "wac-dist --eta 0.5 --path builtin:2 --theta ub --constraints cs "
            "--samples 50 --seed 2",
            "f0fd39cface7776fef209149b3ee961ee0c3edf3967c82ea6c2e21d8b1c983b6",
            id="wac-dist-ub-cs"),
        pytest.param(
            "sweep-eta --path builtin:2 --grid 0.25,0.75",
            "f4b58e47f4362181e14a67170bf138f87ca6cd0ef20c68b5da8d5eb6ee74bd76",
            id="sweep-eta"),
        pytest.param(
            "sweep-horizon --eta 0.5 --t-grid 20,80 --seed 3",
            "4fd11777d99299d21e958ba1c173c604246aac42772680ad81683a6f1e279757",
            id="sweep-horizon"),
    ])
    def test_csv_bytes(self, argv, digest, tmp_path):
        out = tmp_path / "out.csv"
        assert run(*argv.split(), "--out", str(out)) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # SHA-256 of the bounds JSON, recorded while the unmasked bounds still
    # came from the simplex; they pin every printed theta_lb/theta_ub cell.
    @pytest.mark.parametrize("path,eta,digest", [
        ("builtin:1", "0.2",
         "a4e1ae67fd2b20d68fd917732550cd795cc5418a3740764df9be186edec973fc"),
        ("builtin:1", "0.5",
         "349d0da82636ebcc1be5377f23d098aff193b27311612842330f13dc196ced0c"),
        ("builtin:1", "0.8",
         "df9a42c49b99fe75f4a673f7500c34f90f95a0eebad4e1f856989028e45d0ed8"),
        ("builtin:2", "0.2",
         "a315deca58683d2de3f25080f771d3d104ee3af1b8a509b10141c79fc599c52d"),
        ("builtin:2", "0.5",
         "bafe2e3e51ba8368329d2c06e64569cf5421657e1fa611fc495f383661b827d4"),
        ("builtin:2", "0.8",
         "4975a21384c4dfae128d41ba103a1663ac971788329e7679ed6acf7721ab62dc"),
    ])
    def test_bounds_json_bytes(self, path, eta, digest, tmp_path):
        out = tmp_path / "bounds.json"
        assert run("bounds", "--eta", eta, "--path", path,
                   "--out", str(out)) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # SHA-256 of the outputs for a Markov chain (the sticky config model on
    # builtin:1), recorded from the forward-backward code before the
    # i.i.d. route existed; that route must leave them alone.  The
    # wac-dist digests were derived from helpers.loop_count_sample_wac on
    # helpers.dense_filter, written as "%d,%.12g" lines; those cases are
    # named by their arguments alone, so a new digest renames no test.
    @pytest.mark.parametrize("argv,digest", [
        ("smooth",
         "be8f03d9f09b5cdef33c2e5160fbaae87106acff1bc96d5805263ee4a285e917"),
        ("bounds",
         "c8cc468a4b8048a088b619203b42804549c4f161036ccc0cfb1712bc13b54c1a"),
        pytest.param(
            "wac-dist --theta lb",
            "e133f36fb0a536379c7e725043681566a43efbe7f2bb1cdf90cd9ce24145544b",
            id="wac-dist --theta lb"),
        pytest.param(
            "wac-dist --theta ub",
            "90470fd84fcf536fd9eac7fbf15cda20bcab92828fd8e049e3465b53b3568246",
            id="wac-dist --theta ub"),
        pytest.param(
            "wac-dist --theta lb --constraints pm",
            "a5b111d6c3ebb9ea9cde624222e6eb49a8280a208df19ec9386cca24a8586e32",
            id="wac-dist --theta lb --constraints pm"),
        pytest.param(
            "wac-dist --theta independence",
            "f1e15bc2e1d3399e21a0b378276864b2154cf3604b91ff6e62a08867ff5fc90c",
            id="wac-dist --theta independence"),
        pytest.param(
            "wac-dist --theta comonotonic",
            "90470fd84fcf536fd9eac7fbf15cda20bcab92828fd8e049e3465b53b3568246",
            id="wac-dist --theta comonotonic"),
        pytest.param(
            "wac-dist --theta countermonotonic",
            "e133f36fb0a536379c7e725043681566a43efbe7f2bb1cdf90cd9ce24145544b",
            id="wac-dist --theta countermonotonic"),
    ])
    def test_markov_chain_bytes(self, argv, digest, tmp_path):
        if argv.startswith("wac-dist"):
            argv += " --samples 300 --seed 5"
        out = tmp_path / "out"
        assert run(*argv.split(), "--config", str(sticky_config(tmp_path)),
                   "--out", str(out)) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_markov_pm_lower_bound_draws_rederived(self):
        # The digest above, from independent code: the pm maximiser is the
        # simplex vertex (the staircase fill returns the same table, bit
        # for bit), the draws at it come from the per-period loop oracle
        # on the dense filter, and a writer of its own prints them.
        model = sticky_model()
        obj = ewac_objective(model, PATH_1, dense_smooth(model, PATH_1))
        mask = pm_mask(6)
        theta = solve(TransportProblem(obj.coeff, obj.row_marginals,
                                       obj.col_marginals, mask, "max")).theta
        assert theta.tobytes() == ewac_bounds(obj, mask).theta_lb.tobytes()
        wac, _ = loop_count_sample_wac(model, dense_filter(model, PATH_1),
                                       PATH_1, theta, 300, 5)
        text = "sample,wac\n" + "".join(
            "%d,%.12g\n" % (n, x) for n, x in enumerate(wac.tolist(), 1))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a5b111d6c3ebb9ea9cde624222e6eb49a8280a208df19ec9386cca24a8586e32")

    def test_mid_level_lower_bound_is_the_exact_value(self, tmp_path):
        # The EWAC summed as theta_ij f_j (w_j - w_i) keeps the 12th digit
        # that constant - sum coeff * theta lost here (it printed ...111).
        out = tmp_path / "bounds.json"
        assert run("bounds", "--eta", "0.4", "--path", "builtin:1",
                   "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        exact = exact_canonical_values(0.4, PATH_1)
        for key in ("lb", "ewac_countermonotonic"):
            assert report[key] == round12(exact[key]) == 0.0450979941112

    # Near eta = 1 the biased masses are tiny, and a constant formed as the
    # observed winnings minus the fair term cancels to a few digits; the
    # sum of the biased masses times the payoffs keeps all 12 printed.
    # Near eta = 0 the independence value is a difference of terms near 30
    # (builtin:1 printed 2.2e-16 for 0 and 4.50625016191e-08 at 1e-9);
    # the face counts, summed apart from the fair masses, keep its digits.
    @pytest.mark.parametrize("path,obs", [("builtin:1", PATH_1),
                                          ("builtin:2", PATH_2)])
    @pytest.mark.parametrize("eta", [0.99999, 1 - 1e-7, 1 - 1e-5 / 3,
                                     0.0, 1e-9])
    def test_near_fair_bounds_are_the_exact_values(self, path, obs, eta,
                                                   tmp_path):
        out = tmp_path / "bounds.json"
        assert run("bounds", "--eta", repr(eta), "--path", path,
                   "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        for key, value in exact_canonical_values(eta, obs).items():
            assert report[key] == round12(value), key

    def test_horizon_row_is_the_exact_value(self, tmp_path):
        # lb of 16 periods is about 1e-3 of the terms it sums.
        out = tmp_path / "horizon.csv"
        assert run("sweep-horizon", "--eta", "0.9", "--t-max", "1000000",
                   "--seed", "2", "--out", str(out)) == EXIT_OK
        row = next(line.split(",") for line in out.read_text().splitlines()
                   if line.startswith("16,"))
        _, obs = simulate(canonical_model(0.9), 1_000_000, 2)
        exact = exact_canonical_values(0.9, obs[:16])["lb"] / 16
        assert float(row[1]) == round12(exact) == -0.000345032543689

    @pytest.mark.parametrize("eta", ["0.5", "0.99999", "0.2"])
    def test_smooth_csv_is_the_exact_count_formula(self, eta, tmp_path):
        # Bayes' rule per face in exact rationals of the model's floats,
        # rounded once to the printed 12 digits.
        model = canonical_model(float(eta))
        q_fair, q_biased = map(Fraction, model.transition[0].tolist())
        e_fair, e_biased = ([Fraction(x) for x in row]
                            for row in model.emission.tolist())
        lines = ["t,delta_fair,delta_biased"]
        for t, face in enumerate(PATH_1, 1):
            fair = q_fair * e_fair[face - 1]
            biased = q_biased * e_biased[face - 1]
            lines.append("%d,%.12g,%.12g" % (t, fair / (fair + biased),
                                             biased / (fair + biased)))
        out = tmp_path / "delta.csv"
        assert run("smooth", "--eta", eta, "--path", "builtin:1",
                   "--out", str(out)) == EXIT_OK
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_smooth_rows(self, tmp_path):
        out = tmp_path / "delta.csv"
        assert run("smooth", "--eta", "0.99999", "--path", "builtin:1",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[:3] == ["t,delta_fair,delta_biased",
                             "1,0.999991428559,8.57144081631e-06",
                             "2,0.999985714347,1.42856530614e-05"]


class TestCopulasCommand:
    def test_three_matrices(self, tmp_path):
        out = tmp_path / "copulas.json"
        assert run("copulas", "--eta", "0.5", "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report) == {"independence", "comonotonic",
                               "countermonotonic"}
        indep = np.array(report["independence"])
        np.testing.assert_allclose(indep[0, 0], (1 / 6) * (1 / 21), atol=1e-12)


def model_config(file, model, **fields):
    """A config file holding ``model`` and the other ``fields``."""
    file.write_text(json.dumps({
        "model": {"p": model.initial.tolist(), "Q": model.transition.tolist(),
                  "E": model.emission.tolist(), "w": model.rewards.tolist()},
        **fields}))
    return file


def loop_bounds_text(model, obs):
    """The bounds JSON as it was written before the arrays: the report of
    helpers.loop_bounds_report, the naive value and the plain optimisers,
    by ``json.dumps``."""
    objective, _ = path_objective(model, obs)
    plain, report = loop_bounds_report(objective, model,
                                       cs_mask(model.emission), obs)
    report.update(theta_lb=plain.theta_lb, theta_ub=plain.theta_ub)
    return json.dumps(json_ready(report), indent=2, sort_keys=True) + "\n"


def loop_copulas_text(model):
    return json.dumps(json_ready({kind: copula_pmf(model, kind) for kind in (
        "independence", "comonotonic", "countermonotonic")}),
        indent=2, sort_keys=True) + "\n"


# Floats whose text takes each of json's and repr's forms.
JSON_FLOATS = (st.sampled_from([20.0, -3.0, 0.0, -0.0, 1e-05, 1.5e-05, 1e-4,
                                0.1, 1e12, 999999999999.9, 1e15, 1.5e15,
                                1e16, 1e17, 1e-300, 5e-324, 1.7e308,
                                math.nan, math.inf, -math.inf])
               | st.floats(allow_nan=True, allow_infinity=True))


def json_tables(k):
    return st.lists(JSON_FLOATS, min_size=k * k, max_size=k * k).map(
        lambda values: np.array(values).reshape(k, k))


class TestReportsFromArrays:
    # bounds and copulas write JSON, the sweeps CSV, from arrays; these
    # pin the bytes to the writers they replaced (json.dumps of the
    # per-table report, and the attribute-by-attribute CSV writer).
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.dictionaries(
        st.text("abcdefghij_", min_size=1, max_size=12),
        JSON_FLOATS | JSON_FLOATS.map(np.float64)
        | st.integers(2, 7).flatmap(json_tables), min_size=1, max_size=14))
    def test_json_writer_equals_json_dumps(self, report):
        assert _json_text(report) == json.dumps(
            json_ready(report), indent=2, sort_keys=True) + "\n"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=iid_cases(),
           fair=st.sampled_from(["drawn", "uniform", "increasing"]))
    def test_bounds_and_copulas_equal_json_dumps(self, case, fair,
                                                 tmp_path_factory):
        # The fair die as drawn or uniform (the likelihood ratio in any
        # order: the simplex), or uniform beside an increasing biased die
        # (the pm staircase).
        model, obs = case
        if fair != "drawn":
            biased = model.emission[1]
            if fair == "increasing":
                biased = np.sort(biased)
            k = model.num_symbols
            model = HmmModel(model.initial, model.transition,
                             [[1.0 / k] * k, biased], model.rewards)
        folder = tmp_path_factory.mktemp("report")
        out = folder / "out.json"
        config = model_config(folder / "bounds.json", model, path=obs)
        assert run("bounds", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
        assert out.read_text() == loop_bounds_text(model, obs)
        config = model_config(folder / "copulas.json", model)
        assert run("copulas", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
        assert out.read_text() == loop_copulas_text(model)

    @pytest.mark.parametrize("path", ["builtin:1", "builtin:2"])
    @pytest.mark.parametrize("eta", ["0", "0.2", "0.5", "0.99999", "1"])
    def test_canonical_bounds_equal_json_dumps(self, path, eta, tmp_path):
        out = tmp_path / "bounds.json"
        assert run("bounds", "--eta", eta, "--path", path,
                   "--out", str(out)) == EXIT_OK
        obs = list(PATH_1 if path == "builtin:1" else PATH_2)
        assert out.read_text() == loop_bounds_text(canonical_model(
            float(eta)), obs)
        assert run("copulas", "--eta", eta, "--out", str(out)) == EXIT_OK
        assert out.read_text() == loop_copulas_text(canonical_model(
            float(eta)))

    def test_infeasible_pm_exits_three(self, tmp_path, capsys, monkeypatch):
        # Dice whose cs mask is pm have an increasing likelihood ratio, and
        # so a biased CDF that never passes the fair one: the bounds
        # command meets an empty staircase only with the mask forced to
        # pm.  It exits 3 with the message of ewac_bounds.
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.25] * 4, [1.0, 0.0, 0.0, 0.0]], [1, 2, 3, 4])
        objective, _ = path_objective(model, [1, 1, 1])
        with pytest.raises(ValueError) as want:
            ewac_bounds(objective, pm_mask(4), tag="cs")
        monkeypatch.setattr(engine, "cs_mask",
                            lambda emission: pm_mask(emission.shape[1]))
        config = model_config(tmp_path / "model.json", model, path=[1, 1, 1])
        assert run("bounds", "--config", str(config)) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"error: {want.value}\n"

    @pytest.mark.parametrize("argv", [
        "sweep-eta --path builtin:1",
        "sweep-eta --path builtin:2 --grid 0,1,0.5,1e-9",
        "sweep-horizon --eta 0.5 --seed 3",
        "sweep-horizon --eta 0.3 --t-max 1000 --seed 4",
        "sweep-horizon --eta 0.9 --t-grid 1,2,3,57 --seed 2",
    ])
    @pytest.mark.parametrize("block", [None, 7])
    def test_sweep_csv_equals_the_attribute_writer(self, argv, block,
                                                   tmp_path, monkeypatch):
        # Blocks of 7 rows cut the sweeps' tables mid-grid.
        if block is not None:
            monkeypatch.setattr(casino_ewac.cli, "_CSV_BLOCK", block)
        out = tmp_path / "sweep.csv"
        assert run(*argv.split(), "--out", str(out)) == EXIT_OK
        opts = dict(zip(argv.split()[1::2], argv.split()[2::2]))
        if argv.startswith("sweep-eta"):
            grid = opts.get("--grid")
            rows = eta_sweep(_parse_path(opts["--path"]), grid and [
                float(g) for g in grid.split(",")])
            header = sweeps.ETA_SWEEP_COLUMNS
        else:
            grid = opts.get("--t-grid")
            grid = (sweeps.default_horizon_grid(t_max=int(opts.get(
                "--t-max", 100_000))) if grid is None
                else [int(t) for t in grid.split(",")])
            rows = horizon_sweep(float(opts["--eta"]), grid,
                                 int(opts["--seed"]))
            header = sweeps.HORIZON_SWEEP_COLUMNS
        assert out.read_text() == attribute_csv(header, rows)


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

    # Config values reach the library converted strictly: the same value
    # as a flag is a usage error, so it must not be truncated to an
    # integer or end in a TypeError.
    @pytest.mark.parametrize("command,config,key", [
        ("wac-dist", {"eta": 0.5, "samples": 2.7, "seed": 1}, "samples"),
        ("wac-dist", {"eta": 0.5, "samples": 5, "seed": 1.9}, "seed"),
        ("wac-dist", {"eta": 0.5, "samples": None}, "samples"),
        ("wac-dist", {"eta": 0.5, "samples": True}, "samples"),
        ("sweep-horizon", {"eta": 0.5, "t_grid": [10, 100.7, True]},
         "t_grid"),
        ("sweep-horizon", {"eta": 0.5, "t_grid": [10, True]}, "t_grid"),
        ("sweep-horizon", {"eta": [0.5]}, "eta"),
        ("sweep-horizon", {"eta": 0.5, "t_max": {}}, "t_max"),
        ("sweep-horizon", {"eta": 0.5, "t_points": "many"}, "t_points"),
        ("smooth", {"eta": 0.5, "path": [1, 2.5, 6, True]}, "path"),
        ("smooth", {"eta": 0.5, "path": [1, 6, True]}, "path"),
        ("bounds", {"eta": False}, "eta"),
        ("sweep-eta", {"path": [0.5, None]}, "path"),
        ("sweep-eta", {"grid": [0.5, None]}, "grid"),
        ("sweep-eta", {"grid": [[0.5]]}, "grid"),
        ("bounds", {"model": 5}, "model"),
        ("bounds", {"model": None, "eta": 0.5}, "model"),
        ("wac-dist", {"eta": 0.5, "theta": "median"}, "theta"),
        # Checked though the call's --out overrides it, or t_grid leaves
        # it unused.
        ("bounds", {"eta": 0.5, "out": [1]}, "out"),
        ("bounds", {"eta": 0.5, "out": True}, "out"),
        ("sweep-horizon", {"eta": 0.5, "t_grid": [10], "t_min": "x"},
         "t_min"),
    ])
    def test_bad_config_values_name_the_key(self, command, config, key,
                                            tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert run(command, "--config", str(path),
                   "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert f"error: {key} must be" in capsys.readouterr().err

    def test_integral_config_floats_equal_flags(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"eta": 0.5, "t_min": 10.0, "t_max": 1e3,
                                      "t_points": 5.0, "seed": 3.0}))
        out_flags = tmp_path / "flags.csv"
        out_config = tmp_path / "config.csv"
        assert run("sweep-horizon", "--eta", "0.5", "--t-min", "10",
                   "--t-max", "1000", "--t-points", "5", "--seed", "3",
                   "--out", str(out_flags)) == EXIT_OK
        assert run("sweep-horizon", "--config", str(config),
                   "--out", str(out_config)) == EXIT_OK
        assert out_flags.read_bytes() == out_config.read_bytes()
        config.write_text(json.dumps({"eta": 0.5, "path": [1.0, 2, 6.0]}))
        assert run("smooth", "--config", str(config),
                   "--out", str(out_config)) == EXIT_OK
        assert run("smooth", "--eta", "0.5", "--path", "1,2,6",
                   "--out", str(out_flags)) == EXIT_OK
        assert out_flags.read_bytes() == out_config.read_bytes()

    # A negative seed is named when it is cast, as a flag or from a
    # config, before numpy's own error (which names no option).
    @pytest.mark.parametrize("argv,config,value", [
        ("wac-dist --eta 0.5 --seed -1", None, -1),
        ("sweep-horizon --eta 0.5 --t-grid 10 --seed -1", None, -1),
        ("wac-dist", {"eta": 0.5, "path": "builtin:1", "seed": -2}, -2),
        ("sweep-horizon", {"eta": 0.5, "t_grid": [10], "seed": -2}, -2),
    ])
    def test_negative_seed_names_the_option(self, argv, config, value,
                                            tmp_path, capsys):
        argv = argv.split()
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: seed must be a non-negative integer, got {value}\n")
        assert not out.exists()

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

    def test_undecodable_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"path": "\xff"}')
        assert run("smooth", "--eta", "0.5",
                   "--config", str(config)) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: config {config}: 'utf-8' codec can't decode byte 0xff "
            "in position 10: invalid start byte\n")

    def test_model_spec_must_be_unambiguous(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": {"p": [0.5, 0.5], "Q": [[0.5, 0.5], [0.5, 0.5]],
                      "E": [[0.5, 0.5], [0.5, 0.5]], "w": [1, 2]}}))
        assert run("bounds", "--config", str(config),
                   "--eta", "0.5") == EXIT_USAGE
        assert "exactly one way" in capsys.readouterr().err
        assert run("bounds") == EXIT_USAGE


# Options of little work besides the one under test.
_SMALL_RUNS = {"smooth": {"eta": 0.5}, "bounds": {"eta": 0.5},
               "sweep-eta": {"grid": "0.2,0.7"},
               "sweep-horizon": {"eta": 0.5, "t_max": 2000},
               "wac-dist": {"eta": 0.5, "samples": 300}}


class TestOptionTable:
    # Each (command, option) of the table that has a default.
    @pytest.mark.parametrize("command,key", [
        (command, key)
        for command, (_, keys, _, _) in casino_ewac.cli._COMMANDS.items()
        for key in keys if casino_ewac.cli._OPTIONS[key][1] is not None])
    def test_the_default_has_one_source(self, command, key, tmp_path,
                                        capsys):
        default = casino_ewac.cli._OPTIONS[key][1]
        argv = [command]
        for name, value in _SMALL_RUNS[command].items():
            if name != key:
                argv += ["--" + name.replace("_", "-"), str(value)]

        def output(*extra):
            out = tmp_path / "out"
            assert run(*argv, *extra, "--out", str(out)) == EXIT_OK
            return out.read_bytes()

        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: default}))
        flag = "--" + key.replace("_", "-")
        omitted = output()
        assert output(flag, str(default)) == omitted
        assert output("--config", str(config)) == omitted
        capsys.readouterr()
        assert run(command, "--help") == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"{flag} " in help_text
        assert f"(default {default})" in help_text


class TestExitCodes:
    def test_bad_face_is_a_usage_error(self, capsys):
        assert run("smooth", "--eta", "0.5", "--path", "1,9,2") == EXIT_USAGE
        assert "position 2" in capsys.readouterr().err

    def test_bad_token_in_a_path_file_is_named(self, tmp_path, capsys):
        # The message names the file, the token (its first 20 characters)
        # and its position, and stays short however long the file is.
        faces = ["3"] * 40_001
        faces[20_000] = "x" * 50
        path = tmp_path / "path.txt"
        path.write_text("\n".join(faces) + "\n")
        assert run("smooth", "--eta", "0.5",
                   "--path", f"@{path}") == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err
        assert "token 20001 is 'xxxxxxxxxxxxxxxxxxxx', not" in err
        assert len(err) < 200 + len(str(path))

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_undecodable_byte_in_a_path_is_a_bad_token(self, source,
                                                       tmp_path, capsys):
        # The tokenizer's text keeps a byte that is not UTF-8 as a
        # backslash escape, so it is a bad token, named with its file.
        data = b"1\n\xff\n3\n"
        if source == "file":
            name = str(tmp_path / "path.txt")
            Path(name).write_bytes(data)
        else:
            if not os.path.isdir("/dev/fd"):
                pytest.skip("no /dev/fd")
            read, write = os.pipe()
            os.write(write, data)
            os.close(write)
            name = f"/dev/fd/{read}"
        try:
            code = run("bounds", "--eta", "0.5", "--path", f"@{name}")
        finally:
            if source == "pipe":
                os.close(read)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: bad observation path file {name!r}: "
            r"token 2 is '\\xff', not a 64-bit integer" "\n")

    def test_path_parsing_keeps_its_syntax(self, tmp_path, capsys):
        # Commas and newlines separate faces, spaces are dropped, and
        # empty tokens are skipped; a face too large for int64 is a bad
        # token, not a numerical failure.
        path = tmp_path / "path.txt"
        path.write_text("1, 2,,3\n4\n\n5,6\n")
        assert run("smooth", "--eta", "0.5", "--path", f"@{path}") == EXIT_OK
        assert capsys.readouterr().out.count("\n") == 7
        assert run("smooth", "--eta", "0.5",
                   "--path", "1,99999999999999999999") == EXIT_USAGE
        assert "token 2" in capsys.readouterr().err

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

    def test_impossible_path_exits_four_without_smoothing(self, tmp_path,
                                                          capsys):
        # A copula theta skips smoothing; the sampler's filter still fails.
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "model": {"p": [1.0, 0.0], "Q": [[1.0, 0.0], [0.0, 1.0]],
                      "E": [[1.0, 0.0], [1.0, 0.0]],
                      "w": [1, 2]},
            "path": [1, 2]}))
        assert run("wac-dist", "--config", str(config), "--theta",
                   "comonotonic", "--samples", "5") == EXIT_NUMERICAL
        assert "zero probability" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one(self, samples, capsys):
        assert run("wac-dist", "--eta", "0.5", "--path", "builtin:1",
                   "--samples", samples) == EXIT_USAGE
        assert "count must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_horizon_points_below_one(self, points, capsys):
        assert run("sweep-horizon", "--eta", "0.5",
                   "--t-points", points) == EXIT_USAGE
        assert f"need points >= 1, got {points}" in capsys.readouterr().err

    def test_out_of_memory_names_the_size(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(casino_ewac.cli, "_wac_dist", exhausted)
        assert run("wac-dist", "--eta", "0.5", "--path", "builtin:1",
                   "--samples", "10000") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "out of memory" in err
        assert "Traceback" not in err

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

    def test_calls_in_one_process_equal_fresh_runs(self, tmp_path, capsys):
        # One argument parser serves every main() call of a process: no
        # option or default of a call may reach the next, and help and bad
        # flags keep their exit codes in between.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eta": 0.3, "samples": 40, "seed": 9}))
        calls = [("wac-dist", "--eta", "0.5", "--samples", "30",
                  "--seed", "5"),
                 ("wac-dist", "--eta", "0.5", "--samples", "30"),
                 ("wac-dist", "--config", str(config)),
                 ("wac-dist", "--config", str(config), "--seed", "2"),
                 ("sweep-eta", "--path", "builtin:2", "--grid", "0.2,0.4"),
                 ("wac-dist", "--eta", "0.5", "--path", "builtin:2")]
        for i, argv in enumerate(calls):
            assert run(*argv, "--out", str(tmp_path / f"seq{i}")) == EXIT_OK
            assert run("--help") == EXIT_OK
            assert run("wac-dist", "--samples", "x") == EXIT_USAGE
            assert run("bounds", "--no-such-flag") == EXIT_USAGE
        capsys.readouterr()
        for i, argv in enumerate(calls):
            fresh = tmp_path / f"fresh{i}"
            proc = run_module("-m", "casino_ewac.cli", *argv,
                              "--out", str(fresh))
            assert proc.returncode == EXIT_OK, proc.stderr
            assert (tmp_path / f"seq{i}").read_bytes() == fresh.read_bytes()

    def test_cold_and_warm_memo_print_the_same_bytes(self, tmp_path,
                                                     monkeypatch):
        # Every subcommand prints the same bytes from an empty memo of
        # tables as after other dice's commands: the canonical dice on
        # both builtin paths, an unsorted K = 48 die, a K = 7 die and two
        # six-sided pairs that share one die with the canonical pair,
        # interleaved in three orders, so tables kept under the wrong key
        # would show.
        cold_memo(monkeypatch)
        rng, runs = np.random.default_rng(7), {}
        up, flat = np.arange(1.0, 7), np.ones(6)
        for path in ("builtin:1", "builtin:2"):
            wac = ("wac-dist", "--eta", "0.3", "--path", path,
                   "--samples", "200")
            runs[path] = [("bounds", "--eta", "0.3", "--path", path),
                          ("sweep-eta", "--path", path, "--grid", "0.2,0.9"),
                          (*wac, "--theta", "ub", "--constraints", "cs"),
                          (*wac, "--theta", "lb"), wac,
                          ("copulas", "--eta", "0.3"),
                          ("smooth", "--eta", "0.3", "--path", path),
                          ("sweep-horizon", "--eta", "0.3", "--t-max", "300")]
        for k, fair, biased in ((48, np.ones(48), rng.permutation(48) + 1.0),
                                (7, np.ones(7), np.arange(1.0, 8)),
                                ("reversed", flat, up[::-1]),
                                ("unfair", up[::-1], up)):
            model = {"p": [0.4, 0.6], "Q": [[0.4, 0.6]] * 2,
                     "E": [(fair / fair.sum()).tolist(),
                           (biased / biased.sum()).tolist()],
                     "w": list(range(1, fair.size + 1))}
            config, dice = tmp_path / f"k{k}.json", tmp_path / f"d{k}.json"
            config.write_text(json.dumps({"model": model, "path": rng.integers(
                1, fair.size + 1, 60).tolist()}))
            dice.write_text(json.dumps({"model": model}))
            wac = ("wac-dist", "--config", str(config), "--samples", "200")
            runs[k] = [("bounds", "--config", str(config)),
                       (*wac, "--theta", "ub"), (*wac, "--theta", "lb"),
                       (*wac, "--theta", "countermonotonic"),
                       ("copulas", "--config", str(dice)),
                       ("smooth", "--config", str(config))]
            if k == 7:
                runs[k].append((*wac, "--theta", "lb", "--constraints", "pm"))
        out = tmp_path / "out"

        def output(argv):
            return run(*argv, "--out", str(out)), out.read_bytes()

        cold = {}
        for argv in itertools.chain(*runs.values()):
            engine._memo.clear()
            engine._memo_bytes = 0
            cold[argv] = output(argv)
        assert all(code == EXIT_OK for code, _ in cold.values())
        lists = [*runs.values()]
        for order in (itertools.chain(*itertools.zip_longest(*lists)),
                      itertools.chain(*lists[::-1]),
                      itertools.chain(*itertools.zip_longest(
                          *(argvs[::-1] for argvs in lists)))):
            for argv in filter(None, order):
                assert output(argv) == cold[argv], argv

    def test_console_script_wiring(self, tmp_path):
        out = tmp_path / "delta.csv"
        proc = run_module("-m", "casino_ewac.cli", "smooth", "--eta", "0.5",
                          "--path", "builtin:1", "--out", str(out))
        assert proc.returncode == EXIT_OK
        assert out.read_text().startswith("t,delta_fair")

    def test_module_run_raises_no_warning(self):
        proc = run_module("-W", "error", "-m", "casino_ewac.cli", "copulas",
                          "--eta", "0.5")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout).keys() == {
            "independence", "comonotonic", "countermonotonic"}

    def test_builtin_paths_are_shared_with_the_package(self):
        import casino_ewac
        assert casino_ewac.PATH_1 is PATH_1
        assert casino_ewac.PATH_2 is PATH_2


def assert_same_text(got, want):
    """got == want, else a failure naming the first line that differs: on
    texts of 10^5 lines, pytest's own diff would take minutes."""
    if got != want:
        got, want = got.splitlines(True), want.splitlines(True)
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"line {at + 1}: {got[at:at + 1]} != {want[at:at + 1]}")


def write_path(path, faces, end="\n"):
    path.write_text("\n".join(map(str, faces)) + end)
    return f"@{path}"


# Tokens from digits, spaces, signs and a bad letter (empty ones
# included), and 19-20 digit numbers, which pass int64 from
# 9223372036854775808 on.
_TOKEN = (st.text("0123456789 +-x", max_size=4)
          | st.integers(10**18, 10**20 - 1).map(str))
_PATH_TEXT = (st.text("0123456789,\n +-x", max_size=40)
              | st.lists(st.tuples(_TOKEN, st.sampled_from(
                  [",", "\n", ",,", "\n\n", " , ", ",\n"])),
                  max_size=12).map(lambda pairs: "".join(map("".join,
                                                             pairs))))


def assert_parses_as_the_loop(spec):
    """_parse_path gives the token loop's faces, or its error message; the
    faces are one byte each (uint8) when there are some and all lie in
    0..255, else int64."""
    try:
        want = loop_parse_path(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _parse_path(spec)
        assert str(got.value) == str(exc)
    else:
        got = _parse_path(spec)
        narrow = want.size > 0 and 0 <= want.min() and want.max() <= 255
        assert got.dtype == (np.uint8 if narrow else np.int64)
        np.testing.assert_array_equal(got, want)


# A line of 2^19 ones fills the first parse block of 2^20 bytes.
_FULL_BLOCK = "1\n" * (1 << 19)


class TestPathParsing:
    @given(_PATH_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_token_loop(self, tmp_path_factory, text):
        # Inline, newlines are part of a token; in a file they separate.
        path = tmp_path_factory.getbasetemp() / "path.txt"
        path.write_text(text)
        for spec in (text, f"@{path}"):
            assert_parses_as_the_loop(spec)

    @given(_PATH_TEXT | st.text("0123456789,\r\n ", max_size=60),
           st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_small_blocks_equal_the_token_loop(self, tmp_path_factory, text,
                                               block):
        # Blocks of a few bytes cut inside and next to every token.
        path = tmp_path_factory.getbasetemp() / "blocks.txt"
        path.write_text(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(casino_ewac.cli, "_PARSE_BLOCK", block)
            assert_parses_as_the_loop(f"@{path}")

    @pytest.mark.parametrize("text", [
        _FULL_BLOCK[:-4] + "123456\n" + "2\n" * 9,  # a token over the cut
        _FULL_BLOCK[:-1] + ",77,\n3",  # a comma ends the first block
        _FULL_BLOCK + "3x",  # a bad token in the last block
        _FULL_BLOCK + "123456789012345678\n4\n",  # 18 digits
        _FULL_BLOCK + "1234567890123456789\n4\n",  # 19 digits
        _FULL_BLOCK + "9223372036854775807\n",  # int64 max
        _FULL_BLOCK + "9223372036854775808\n",  # past it
        "22" + "1\r\n" * 400_000,  # CRLF, split by the first cut
        _FULL_BLOCK + "6",  # no final newline
    ], ids=["cut", "comma", "bad", "18", "19", "max", "over", "crlf", "end"])
    def test_files_past_one_block_equal_the_token_loop(self, text, tmp_path):
        path = tmp_path / "path.txt"
        path.write_bytes(text.encode())
        assert_parses_as_the_loop(f"@{path}")

    @pytest.mark.parametrize("text", [
        "1\n2\n3\n",  # under one block
        _FULL_BLOCK + "4\n5",  # over it
        _FULL_BLOCK + "123456\n7\n",  # a multi-digit token past the block
        _FULL_BLOCK + "3x",  # a bad token: the tokenizer reads it all
    ], ids=["small", "large", "multi", "bad"])
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_equals_the_token_loop(self, text, tmp_path):
        # A pipe has no size and can be read only once; it is read whole.
        path = tmp_path / "path.txt"
        path.write_text(text)
        read, write = os.pipe()

        def feed():  # stops if the reader closes the pipe unread
            with open(write, "wb", 0) as fh, contextlib.suppress(OSError):
                fh.write(text.encode())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            try:
                want = loop_parse_path(f"@{path}")
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    _parse_path(f"@/dev/fd/{read}")
                assert str(got.value) == str(exc).replace(
                    repr(str(path)), repr(f"/dev/fd/{read}"))
            else:
                np.testing.assert_array_equal(
                    _parse_path(f"@/dev/fd/{read}"), want)
        finally:
            os.close(read)
            writer.join()

    def test_text_without_separators_stops_early(self, monkeypatch):
        # A block whose tail after its last separator is 19 bytes or more
        # goes to the tokenizer at once, so text without a separator is not
        # carried over from block to block.
        monkeypatch.setattr(casino_ewac.cli, "_PARSE_BLOCK", 8)
        fh = io.BytesIO(b"1 2\t" * 25_000)
        assert casino_ewac.cli._digit_runs(fh) is None
        assert fh.tell() <= 4 * 8
        fh = io.BytesIO(b"1 2 " * 25_000)
        assert casino_ewac.cli._digit_runs(fh) is None
        assert fh.tell() <= 6 * 8
        assert_parses_as_the_loop("1 2 " * 25_000)

    def test_a_file_that_grows_is_read_to_its_end(self, tmp_path,
                                                   monkeypatch):
        # The faces go into one array sized from the file's length when
        # opened, which grows when a block does not fit: faces appended
        # while the file is read are parsed by numpy with the rest.
        class Growing(io.FileIO):
            def read(self, size=-1):
                chunk = super().read(size)
                if self.tell() == size:  # after the first block
                    with open(self.name, "a") as fh:
                        fh.write("4\n" * 50)
                return chunk

        faces = [1, 6, 3, 2, 5] * 20
        spec = write_path(tmp_path / "path.txt", faces)
        monkeypatch.setattr(casino_ewac.cli, "_PARSE_BLOCK", 64)
        monkeypatch.setattr(casino_ewac.cli, "open", raising=False,
                            value=lambda name, mode: Growing(name))
        runs = []
        digit_runs = casino_ewac.cli._digit_runs
        monkeypatch.setattr(casino_ewac.cli, "_digit_runs",
                            lambda fh: runs.append(digit_runs(fh)) or runs[0])
        got = _parse_path(spec)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, faces + [4] * 50)
        assert runs[0] is got

    def test_file_without_final_newline(self, tmp_path):
        spec = write_path(tmp_path / "path.txt", [1, 2, 6], end="")
        np.testing.assert_array_equal(_parse_path(spec), [1, 2, 6])

    def test_bad_token_in_the_last_line(self, tmp_path, capsys):
        spec = write_path(tmp_path / "path.txt", [1, 2, "3x"], end="")
        assert run("bounds", "--eta", "0.5", "--path", spec) == EXIT_USAGE
        assert "token 3 is '3x', not a 64-bit integer" in capsys.readouterr().err

    def test_spaces_join_digits(self, tmp_path):
        np.testing.assert_array_equal(_parse_path("1 2,3"), [12, 3])
        spec = write_path(tmp_path / "path.txt", ["1 2", 3])
        np.testing.assert_array_equal(_parse_path(spec), [12, 3])

    @pytest.mark.parametrize("token", ["9223372036854775808",
                                       "99999999999999999999"])
    def test_int64_overflow_exits_two(self, token, tmp_path, capsys):
        spec = write_path(tmp_path / "path.txt", [1] * 70_000 + [token])
        assert run("smooth", "--eta", "0.5", "--path", spec) == EXIT_USAGE
        assert f"token 70001 is '{token}'" in capsys.readouterr().err

    def test_int64_max_is_a_face_not_an_overflow(self):
        top = np.iinfo(np.int64).max
        np.testing.assert_array_equal(_parse_path(f"1,{top}"), [1, top])

    @pytest.mark.parametrize("argv,limit", [(("bounds",), 5),
                                            (("wac-dist", "--theta", "ub"),
                                             8)])
    def test_path_peak_memory_per_period(self, argv, limit, tmp_path,
                                         monkeypatch):
        # Blocks of 16 kB parse the 400 kB file in pieces. The faces, read
        # once and made 0-based in place, take 1 byte per period: `bounds`
        # peaks at about 2 and `wac-dist` at 5.4. Faces as int64 took them
        # to 11 and 12.4, and parsing the whole text as one block takes
        # `bounds` to 14.
        periods = 200_000
        obs = simulate(canonical_model(0.5), periods, seed=1)[1]
        spec = write_path(tmp_path / "path.txt", obs.tolist())
        monkeypatch.setattr(casino_ewac.cli, "_PARSE_BLOCK", 1 << 14)
        out = str(tmp_path / "out.txt")
        # First-call costs (lazy imports) stay out of the peak.
        assert run(*argv, "--eta", "0.5", "--out", out) == EXIT_OK
        tracemalloc.start()
        try:
            assert run(*argv, "--eta", "0.5", "--path", spec,
                       "--out", out) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / periods < limit

    def test_parse_peak_memory_of_a_million_faces(self, tmp_path):
        # One byte per face, each 1-MB block's faces written into one
        # uint8 array sized from the file: the traced peak is one block's
        # temporaries and the faces, about 5.7 MB (5.9 when the blocks were
        # joined at the end).  An int64 array sized from the file peaked at
        # 13.9 MB.
        periods = 1_000_000
        obs = simulate(canonical_model(0.5), periods, seed=1)[1]
        spec = write_path(tmp_path / "path.txt", obs.tolist())
        tracemalloc.start()
        try:
            faces = _parse_path(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert faces.dtype == np.uint8 and faces.nbytes == periods
        np.testing.assert_array_equal(faces, obs)
        assert peak < 7e6


def wide_die(k):
    """An i.i.d. config die of ``k`` faces: uniform fair die, the biased die
    rolling face i with probability proportional to i, face i paying i."""
    row = [0.6, 0.4]
    biased = np.arange(1, k + 1) / (k * (k + 1) / 2)
    return HmmModel(row, [row, row], [np.full(k, 1.0 / k), biased],
                    np.arange(1, k + 1))


class TestNarrowFaces:
    # A path parsed to one byte per face gives the bytes of the same faces
    # given as a config list, which stay int64.
    @pytest.mark.parametrize("k,faces", [
        (300, np.random.default_rng(3).integers(1, 10, 500)),  # one digit
        (300, np.tile([255, 1, 200, 9, 37], 40)),  # numpy's text reader
        (6, np.random.default_rng(4).integers(1, 7, 300)),
    ], ids=["K300-digits", "K300-text", "K6"])
    def test_one_byte_faces_equal_int64_faces(self, k, faces, tmp_path):
        model = wide_die(k)
        spec = write_path(tmp_path / "path.txt", faces.tolist())
        assert _parse_path(spec).dtype == np.uint8
        narrow = model_config(tmp_path / "narrow.json", model, path=spec)
        wide = model_config(tmp_path / "wide.json", model,
                            path=faces.tolist())
        for argv in (("smooth",), ("bounds",),
                     ("wac-dist", "--theta", "ub", "--samples", "500"),
                     ("wac-dist", "--samples", "500", "--seed", "2")):
            outs = []
            for config in (narrow, wide):
                out = tmp_path / f"{config.stem}.out"
                assert run(*argv, "--config", str(config),
                           "--out", str(out)) == EXIT_OK
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], argv
            assert len(outs[0]) > 100


class TestNumberedCsv:
    # The smooth CSV equals one "%d,%.12g,%.12g" template per line, across
    # blocks of 10^4 lines, on the i.i.d. route (K + 1 distinct rows), on
    # a Markov chain (T distinct rows) and at T = 1.  Blocks end before
    # each multiple of 10^4 and each power of ten; T = 9 to 100,001 sits
    # on those edges.
    @pytest.mark.parametrize("markov,periods", [
        (False, 150_000), (True, 70_000), (False, 1), (True, 1),
        (False, 9), (False, 10), (False, 100), (False, 65_536),
        (False, 65_537), (False, 100_001), (True, 100), (True, 65_537),
        (False, 10_001), (True, 10_001), (True, 100_001)])
    def test_smooth_equals_the_template(self, markov, periods, tmp_path):
        model = sticky_model() if markov else canonical_model(0.5)
        obs = simulate(model, periods, seed=4)[1]
        spec = write_path(tmp_path / "path.txt", obs.tolist())
        argv = (["--config", str(sticky_config(tmp_path, spec))] if markov
                else ["--eta", "0.5", "--path", spec])
        out = tmp_path / "delta.csv"
        assert run("smooth", *argv, "--out", str(out)) == EXIT_OK
        delta = smooth(model, obs)
        assert_same_text(out.read_text(), template_csv(
            ("t", "delta_fair", "delta_biased"),
            (range(1, periods + 1), delta[:, 0].tolist(),
             delta[:, 1].tolist())))

    @pytest.mark.parametrize("rows", [[[0.5, 0.5]] * 2,
                                      [[0.9, 0.1], [0.2, 0.8]]])
    def test_mixed_row_widths_equal_the_template(self, rows, tmp_path):
        # Face 2, which only the fair die rolls, prints ",1,0", face 1 of
        # the i.i.d. chain ",0.5,0.5" and most rows 14-digit values: the
        # suffixes differ in width, so the pad bytes are dropped.
        model = HmmModel([0.5, 0.5], rows, [[0.25] * 4, [0.25, 0, 0.35, 0.4]],
                         [1, 2, 3, 4])
        obs = simulate(model, 70_000, seed=2)[1]
        config = tmp_path / "model.json"
        config.write_text(json.dumps({
            "model": {"p": [0.5, 0.5], "Q": rows, "E": model.emission.tolist(),
                      "w": [1, 2, 3, 4]},
            "path": write_path(tmp_path / "path.txt", obs.tolist())}))
        out = tmp_path / "delta.csv"
        assert run("smooth", "--config", str(config),
                   "--out", str(out)) == EXIT_OK
        delta = smooth(model, obs)
        text = out.read_text()
        suffixes = {line.partition(",")[2] for line in text.splitlines()[1:]}
        assert "1,0" in suffixes and len(set(map(len, suffixes))) >= 3
        assert_same_text(text, template_csv(
            ("t", "delta_fair", "delta_biased"),
            (range(1, obs.size + 1), delta[:, 0].tolist(),
             delta[:, 1].tolist())))

    @pytest.mark.parametrize("lines", [9_998, 10_001, 19_999, 20_003])
    def test_ragged_rows_across_block_edges(self, lines):
        # Rows of many widths, -0, NaN and infinities among them, in random
        # order, with lines on both sides of 9,999/10,000/10,001 and
        # 19,999/20,000: the bytes of one template per line, in blocks
        # that each hold lines of one multiple of 10^4.
        rows = np.array([[0.5, -0.0], [np.nan, np.inf], [1e20, -np.inf],
                         [1 / 3, 0.0], [-0.0, 2.5e-7]])
        index = np.random.default_rng(lines).integers(0, len(rows), lines)
        header, *blocks = casino_ewac.cli._numbered_csv(("t", "a", "b"),
                                                        rows, index)
        blocks = [bytes(block) for block in blocks]
        assert header + b"".join(blocks).decode() == template_csv(
            ("t", "a", "b"), (range(1, lines + 1), rows[index, 0].tolist(),
                              rows[index, 1].tolist()))
        last = np.cumsum([block.count(b"\n") for block in blocks])
        first = np.r_[1, last[:-1] + 1]
        assert (first // 10**4 == last // 10**4).all()

    @pytest.mark.parametrize("rows", [1, 10**4, 10**4 + 1])
    def test_rows_on_both_sides_of_one_block(self, rows):
        # Up to 10^4 rows are formatted once, widest first, and gathered by
        # every block; more are formatted block by block in line order.
        table = np.random.default_rng(rows).standard_normal((rows, 2))
        index = np.random.default_rng(1).integers(0, rows, 25_003)
        header, *blocks = casino_ewac.cli._numbered_csv(("t", "a", "b"),
                                                        table, index)
        assert header + b"".join(map(bytes, blocks)).decode() == template_csv(
            ("t", "a", "b"), (range(1, index.size + 1),
                              table[index, 0].tolist(),
                              table[index, 1].tolist()))

    @pytest.mark.parametrize("lines", [10**5, 10**6])
    def test_writer_peak_memory_is_bounded(self, lines):
        # A block holds at most 10^4 lines, so the writer's peak does not
        # grow with the number of lines.
        rows = np.random.default_rng(0).random((7, 2))
        index = np.random.default_rng(1).integers(0, 6, lines)
        index[0] = 6
        for _ in casino_ewac.cli._numbered_csv(("t", "a", "b"), rows,
                                               index[:10]):
            pass  # the digit table is built once per process
        tracemalloc.start()
        try:
            for _ in casino_ewac.cli._numbered_csv(("t", "a", "b"), rows,
                                                   index):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_smooth_peak_memory_per_period(self, tmp_path):
        # The text, the faces and the index cost a few tens of bytes per
        # period, and a block of lines is fixed; a list of all T lines
        # costs over 250.
        periods = 200_000
        obs = simulate(canonical_model(0.5), periods, seed=1)[1]
        spec = write_path(tmp_path / "path.txt", obs.tolist())
        tracemalloc.start()
        try:
            assert run("smooth", "--eta", "0.5", "--path", spec,
                       "--out", str(tmp_path / "delta.csv")) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / periods < 100


class TestStdout:
    # Output is written in binary mode, to stdout as to a file.
    @pytest.mark.parametrize("argv", [
        "smooth --eta 0.5 --path {path}",
        "smooth --eta 0.5 --path builtin:2",
        "bounds --eta 0.3 --path builtin:2",
        "sweep-eta --path builtin:1 --grid 0.2,0.7",
        "wac-dist --eta 0.5 --path {path} --theta ub --samples 300",
    ])
    def test_stdout_equals_out(self, argv, tmp_path, capsysbinary):
        obs = simulate(canonical_model(0.5), 70_000, seed=3)[1]
        argv = argv.format(path=write_path(tmp_path / "path.txt",
                                           obs.tolist())).split()
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == EXIT_OK
        assert run(*argv) == EXIT_OK
        assert_same_text(capsysbinary.readouterr().out.decode(),
                         out.read_text())

    def test_text_stream_in_place_of_stdout(self, tmp_path):
        # A stream without a binary buffer, as io.StringIO, gets the text.
        out = tmp_path / "delta.csv"
        assert run("smooth", "--eta", "0.5", "--out", str(out)) == EXIT_OK
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert run("smooth", "--eta", "0.5") == EXIT_OK
        assert text.getvalue() == out.read_text()

    def test_process_stdout_equals_out(self, tmp_path):
        # The real stdout of a process, which pytest's capture replaces.
        out = tmp_path / "delta.csv"
        argv = ("-m", "casino_ewac.cli", "smooth", "--eta", "0.5",
                "--path", "builtin:2")
        proc = run_module(*argv, text=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert run_module(*argv, "--out", str(out)).returncode == EXIT_OK
        assert proc.stdout == out.read_bytes()
