"""Benchmark of the reflexivity library and CLI in the checkout it runs from.

    python3 perfbench/run.py --workload orbit-sweep|solve-sweep|cli-batch \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every process it starts imports the
checkout's own `src/`.  With --trace 0 it sets the workload up several
times (each in a fresh interpreter) and then runs its jobs in a closed loop
for at least S seconds; with --trace 1 it runs the job list once untraced,
once with spans around every public library function, and once untraced
again, and reports per-layer numbers.  Every answer is checked against
plain re-implementations and closed forms (oracle.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The exit
code is 1 when any answer is wrong, 2 when the checkout cannot be run.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import clock  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7  # fresh set-ups per run; setup_s is their median
# How fully the machine's speed state scales each workload's times (clock.py).
PROBE_EXPONENT = {"orbit-sweep": 1.0, "solve-sweep": 1.0, "cli-batch": 0.5}
MIN_JOBS = 100  # so p90 has at least ten samples above it
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "peak_rss_mb": "MB", "answer_ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "expr.evaluate.calls": "count", "expr.evaluate.self_s": "s",
    "expr.evaluate.us_per_call": "us", "expr.derivative.calls": "count",
    "expr.derivative.self_s": "s", "expr.parse.calls": "count", "expr.parse.self_s": "s",
    "expr.nodes_mean": "nodes", "expr.domain_errors": "count",
    "dynamics.make_system.self_s": "s", "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s", "dynamics.orbit.self_s": "s",
    "dynamics.orbit.steps": "count", "dynamics.find_fixed_points.self_s": "s",
    "dynamics.find_fixed_points.roots": "count",
    "dynamics.find_fixed_points.evals_per_root": "evals/fixedpoint",
    "analysis.function_distance.self_s": "s",
    "analysis.function_distance.evals_per_sample": "evals/sample",
    "analysis.verify_conjugacy.self_s": "s", "analysis.detect_period.self_s": "s",
    "analysis.detect_period.found_ratio": "ratio", "analysis.detect_boom_bust.self_s": "s",
    "render.staircase.self_s": "s", "render.to_svg.self_s": "s", "render.to_svg.bytes": "bytes",
    "render.to_csv.self_s": "s", "render.to_csv.bytes": "bytes",
    "render.phase_portrait.self_s": "s", "cli.process_s": "s", "cli.main.self_s": "s",
    "cli.startup_s": "s", "cli.stdout_bytes": "bytes", "trace.spans": "count",
    "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run here (no checkout, a worker broke)."""


def checkout_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reflexivity", "__init__.py")):
        raise BenchError(f"{root} is not a reflexivity checkout (no src/reflexivity)")
    return root


def environment(root):
    """Commit, source hash, Python, core count and load, kept with each result."""
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    h = hashlib.sha256()
    src = os.path.join(root, "src", "reflexivity")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".pyc"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(v, 2) for v in os.getloadavg()]}


def start_worker(root, workload, seed, mode, extra=()):
    """Start a worker; return (process, seconds until it printed READY)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} did not get ready")
    return proc, ready


def finish_worker(proc, result=True):
    """Wait for a worker; return its JSON result line (None for setup-only)."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past its time limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or (result and not lines):
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1]) if result else None


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_workload(workload, seed, seconds, trace, scale=1.0, min_jobs=MIN_JOBS,
                 setup_runs=SETUP_RUNS):
    """Everything one invocation reports, as a dict (see `main`).  The tests
    shrink `scale`, `min_jobs` and `setup_runs` to get a run of seconds."""
    root = checkout_root()
    jobs = workloads.generate(workload, seed, scale)
    extra = ("--scale", repr(scale))
    if trace:
        proc, _ = start_worker(root, workload, seed, "trace", extra)
        res = finish_worker(proc)
        metrics = res["layers"]
        units = PER_LAYER_UNITS
    else:
        # Set up in fresh interpreters; the last one goes on to run the jobs.
        # Each set-up is converted with the mean of a probe before and after it.
        exponent = PROBE_EXPONENT[workload]
        setups, raw_setups = [], []
        for k in range(setup_runs):
            last = k == setup_runs - 1
            args = ("--seconds", repr(float(seconds)), "--min-jobs", str(min_jobs))
            before = clock.probe()
            proc, ready = start_worker(root, workload, seed, "measure" if last else "setup",
                                       extra + args if last else extra)
            if not last:
                finish_worker(proc, result=False)
                after = clock.probe()
            else:
                res = finish_worker(proc)
                after = res["probes_s"][0]  # taken right after READY
            raw_setups.append(ready)
            setups.append(clock.normalized(ready, 0.5 * (before + after), exponent))
        raw = res["latencies_s"]
        lat = [clock.normalized(t, p, exponent) for t, p in zip(raw, res["probes_s"])]
        metrics = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": len(lat) / sum(lat),
            "job_p50_ms": 1e3 * percentile(lat, 0.50),
            "job_p90_ms": 1e3 * percentile(lat, 0.90),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "answer_ok_ratio": 1.0 - res["failed"] / res["attempted"],
        }
        unconverted = {"setup_s": statistics.median(raw_setups),
                       "jobs_per_s": len(raw) / sum(raw),
                       "job_p50_ms": 1e3 * percentile(raw, 0.50),
                       "job_p90_ms": 1e3 * percentile(raw, 0.90),
                       "probe_us_median": 1e6 * statistics.median(res["probes_s"])}
        units = END_TO_END_UNITS
    return {
        "env": environment(root),
        "properties": workloads.properties(workload, jobs),
        "job_labels": [f"{job['id']} {job['kind']} {job.get('command') or job.get('family')}"
                       for job in jobs],
        "samples": None if trace else len(res["latencies_s"]),
        "cycles": None if trace else res["cycles"],
        "outputs_sha256": res["outputs_sha256"],
        "job_sha256": res["job_sha256"],
        "unconverted": None if trace else unconverted,
        "reasons": res["reasons"],
        "result": {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="reflexivity benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for this process and everything it starts, so each speed probe
    # runs where the job it converts runs (a CLI child as well as a worker).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        rep = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"# env {json.dumps(rep['env'])}")
    print(f"# workload {args.workload} seed={args.seed} properties {json.dumps(rep['properties'])}")
    if rep["samples"] is not None:
        print(f"# samples={rep['samples']} cycles={rep['cycles']}")
        print(f"# unconverted {json.dumps(rep['unconverted'])}")
    print(f"# outputs_sha256={rep['outputs_sha256']}")
    for label, digest in zip(rep["job_labels"], rep["job_sha256"]):
        print(f"# job {label} sha256={digest}")
    for reason in rep["reasons"]:
        print(f"# FAILED {reason}")
    for name, m in rep["result"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(rep["result"]))
    return 0 if rep["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
