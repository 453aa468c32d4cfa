"""Smoke tests of the benchmark harness, at tiny sizes.

    python -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_per_layer_metrics_match_the_declared_list():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better)
        for name, (unit, better, _) in layer_trace.METRICS.items()]


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("short-paths", 0, cwd=tmp_path,
                         script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def canonical_report(program, eta, faces):
    model = program.canonical_model(eta)
    objective = program.ewac_objective(model, faces, program.smooth(model, faces))
    plain = program.ewac_bounds(objective)
    tied = program.ewac_bounds(objective, program.cs_mask(model.emission), tag="cs")
    loose = program.inhomogeneous_bounds(objective)
    report = {"lb": plain.lb, "ub": plain.ub, "lb_cs": tied.lb, "ub_cs": tied.ub,
              "lb_inhom": loose.lb, "ub_inhom": loose.ub,
              "naive": program.naive_ewac(model, faces)}
    for kind in checks.COPULA_KINDS:
        report[f"ewac_{kind}"] = program.ewac_of_theta(
            objective, program.copula_pmf(model, kind))
    return report


@pytest.mark.parametrize("eta", [0.01, 0.2, 0.5, 0.8, 0.99])
def test_oracle_agrees_with_the_simplex(eta):
    program = run.load_program()
    for faces in (program.PATH_1, program.PATH_2):
        report = canonical_report(program, eta, faces)
        checks.check_bounds(json.dumps(report).encode(), eta, faces)


@pytest.mark.parametrize("field,other,shift", [
    ("lb", "lb", -1e-6), ("ub", "ub", 1e-6), ("lb_cs", "lb", -0.5),
    ("ub_inhom", "ub", -0.5), ("ewac_comonotonic", "ub", 0.5)])
def test_bounds_check_rejects_a_wrong_value(field, other, shift):
    program = run.load_program()
    report = canonical_report(program, 0.5, program.PATH_1)
    report[field] = report[other] + shift
    with pytest.raises(checks.CheckFailed):
        checks.check_bounds(json.dumps(report).encode(), 0.5, program.PATH_1)


def test_smooth_and_wac_checks_reject_wrong_output():
    faces = np.array([1, 6, 6, 3, 2])
    want = checks.posterior_biased(0.5)[faces - 1]
    rows = [f"{t + 1},{1 - b:.12g},{b:.12g}" for t, b in enumerate(want)]
    good = ("t,delta_fair,delta_biased\n" + "\n".join(rows) + "\n").encode()
    checks.check_smooth(good, 0.5, faces)
    with pytest.raises(checks.CheckFailed):
        checks.check_smooth(good.replace(rows[2].encode(), b"3,0.5,0.5"), 0.5, faces)
    draws = "sample,wac\n" + "".join(f"{s + 1},{v}\n" for s, v in
                                     enumerate([100.0, 101.0, 99.0, 100.5]))
    with pytest.raises(checks.CheckFailed):
        checks.check_wac(draws.encode(), 0.5, faces, 4)


def test_missing_function_is_reported_as_missing(monkeypatch):
    program = run.load_program()
    monkeypatch.delattr(program.engine, "inhomogeneous_bounds")
    tracer = layer_trace.Tracer()
    metrics = layer_trace.layer_metrics(tracer, 1, 0, 0.0, tracer)
    assert metrics["engine.inhomogeneous_bounds.calls"]["value"] is None
    assert metrics["hmm.smooth.calls"]["value"] == 0


def test_layer_scan_writes_every_layer(tmp_path):
    out = tmp_path / "scan.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "layer_scan.py"), "--sizes", "300",
         "--reps", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report["layers"]) == set(report["roadmap_baseline_s"])
    assert all("300" in by_size for by_size in report["layers"].values())
