"""Tests of the benchmark itself, at tiny sizes: every metric named in
BENCHMARK.json is emitted with its unit, a wrong answer is counted as a
failure, and the benchmark refuses a directory that is not a checkout.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = dict(seconds=0.0, scale=0.02, min_jobs=1, setup_runs=1)


def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def at_repo(monkeypatch):
    monkeypatch.chdir(REPO)


def assert_metrics(result, names, units):
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(names)
    for name in names:
        m = metrics[name]
        assert m["unit"] == units[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_spec_matches_the_metrics_the_runner_knows():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == run.PER_LAYER_UNITS


def test_tiny_untraced_run_emits_every_end_to_end_metric(at_repo):
    rep = run.run_workload("orbit-sweep", 1, trace=0, **TINY)
    assert_metrics(rep["result"], run.END_TO_END_UNITS, run.END_TO_END_UNITS)
    values = {k: m["value"] for k, m in rep["result"]["metrics"].items()}
    assert values["answer_ok_ratio"] == 1.0
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload, ran", [
    ("orbit-sweep", ("dynamics.step.calls", "analysis.detect_period.self_s")),
    ("solve-sweep", ("expr.derivative.calls", "analysis.function_distance.evals_per_sample",
                     "dynamics.find_fixed_points.evals_per_root")),
    ("cli-batch", ("render.to_svg.bytes", "render.to_csv.bytes", "cli.main.self_s",
                   "cli.startup_s", "cli.stdout_bytes")),
])
def test_tiny_traced_run_emits_every_per_layer_metric(at_repo, workload, ran):
    rep = run.run_workload(workload, 2, trace=1, **TINY)
    assert_metrics(rep["result"], run.PER_LAYER_UNITS, run.PER_LAYER_UNITS)
    values = {k: m["value"] for k, m in rep["result"]["metrics"].items()}
    for name in ran + ("expr.evaluate.calls", "expr.parse.calls", "trace.spans"):
        assert values[name] > 0, name


def test_wrong_answer_counts_as_failed(at_repo, monkeypatch):
    import worker
    pkg = worker.import_library()
    jobs = workloads.generate("orbit-sweep", 3, scale=0.02)[:4]
    runner = worker.Library(pkg, jobs)
    real_orbit = pkg.dynamics.orbit

    def off_by_one_ulp(s, x0, steps):
        o = real_orbit(s, x0, steps)
        last = o.states[-1]
        bad = pkg.dynamics.SystemState(math.nextafter(last.x, 2.0), last.y, last.index)
        return pkg.dynamics.Orbit(o.states[:-1] + (bad,), o.terminated_by)
    monkeypatch.setattr(pkg.dynamics, "orbit", off_by_one_ulp)
    res = worker.measure(runner, jobs, 0.0, 1)
    assert res["attempted"] == len(jobs)
    assert res["failed"] == len(jobs)
    assert all("differ" in r for r in res["reasons"])


def test_oracle_rejects_a_changed_cli_answer():
    job = workloads.generate("cli-batch", 4, scale=0.02)[0]
    assert job["command"] == "simulate"
    states, _ = oracle._model_orbit(job["model"])
    good = "i,x,y\n" + "".join("%d,%.17g,%.17g\n" % (i, x, y) for x, y, i in states)
    assert oracle.check(job, (0, good.encode())) is None
    assert oracle.check(job, (0, good.replace("1,", "1,1", 1).encode())) is not None
    assert oracle.check(job, (3, good.encode())) is not None


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit-sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "not a reflexivity checkout" in r.stderr
