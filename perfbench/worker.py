"""One benchmark process: set up a workload, then run its jobs.

Started by run.py in a fresh interpreter with the checkout's `src/` first on
PYTHONPATH, from the checkout root:

    python3 perfbench/worker.py --workload W --seed N --mode setup|measure|trace
        [--seconds S] [--min-jobs N] [--scale F]

It prints READY once the first job could run, and in the measure and trace
modes one JSON line with what it saw.  It runs jobs one after another in a
closed loop, one caller, no threads.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import clock
import oracle
import tracing
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")


def cli_env():
    return dict(os.environ, PYTHONPATH=SRC)


def import_library():
    """Import `reflexivity` and refuse any copy that is not the checkout's."""
    import reflexivity
    import reflexivity.cli  # noqa: F401  (the traced run wraps cli.main)
    where = os.path.realpath(reflexivity.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported reflexivity from {where}, not from {SRC}")
    return reflexivity


# ---------------------------------------------------------------------------
# setup: everything the first job needs

class Library:
    """Runs library jobs; setup parses every source and builds every system."""

    def __init__(self, pkg, jobs):
        self.pkg = pkg
        self.jobs = jobs
        self.inputs = self.build()

    def build(self):
        dyn, ex = self.pkg.dynamics, self.pkg.expr
        inputs = []
        for job in self.jobs:
            if job["kind"] == "conjugacy":
                inputs.append(tuple(ex.parse(job[k]) for k in ("f_src", "g_src", "h_src")))
            else:
                inputs.append(dyn.make_system(job["f_src"], job["phi_src"],
                                              job["x_domain"], job["y_domain"]))
        return inputs

    def run(self, job):
        dyn, an = self.pkg.dynamics, self.pkg.analysis
        inp = self.inputs[job["id"]]
        kind = job["kind"]
        if kind == "orbit":
            o = dyn.orbit(inp, job["x0"], job["steps"])
            rep = an.detect_period(dyn.compose_gamma(inp), job["x0"],
                                   job["max_period"], job["burn_in"])
            return o, rep, an.detect_boom_bust(o, 5, 0.5)
        if kind == "fixed":
            return dyn.find_fixed_points(inp, job["size"])
        if kind == "distance":
            return an.function_distance(inp, job["size"])
        f, g, h = inp
        return an.verify_conjugacy(f, g, h, job["interval"], job["size"])

    @staticmethod
    def normalize(job, raw):
        """Plain tuples, compared with the oracle and hashed for identity."""
        kind = job["kind"]
        if kind == "orbit":
            o, rep, events = raw
            return {"states": [(s.x, s.y, s.index) for s in o.states], "tag": o.terminated_by,
                    "period": None if rep is None else (rep.period, rep.cycle, rep.residual),
                    "events": [(e.rise_start, e.peak, e.reversal_end, e.amplitude,
                                e.retrace_fraction) for e in events]}
        if kind == "fixed":
            return [(p.x_bar, p.y_bar, p.residual_f, p.residual_phi, p.multiplier, p.stability)
                    for p in raw]
        if kind == "distance":
            return (raw.d, raw.argmax_y, raw.samples, raw.monotone_direction)
        return (raw.max_residual, raw.fixed_point_images_checked, raw.verdict, raw.violation_x)

    @staticmethod
    def digest(out):
        return hashlib.sha256(repr(out).encode()).hexdigest()

    def close(self):
        pass


class Cli:
    """Runs CLI jobs as `python -m reflexivity.cli`; setup writes the
    scenario files and makes one start-up call that also checks the import."""

    def __init__(self, jobs):
        self.jobs = jobs
        os.makedirs(SCRATCH, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=SCRATCH)
        self.argvs = []
        for job in jobs:
            argv = [job["command"]]
            if job["bundled"]:
                argv += ["--scenario", job["bundled"]]
            elif job["scenario"] is not None:
                path = os.path.join(self.dir, f"job{job['id']}.json")
                with open(path, "w") as fh:
                    json.dump(job["scenario"], fh, indent=2)
                argv += ["--scenario", path]
            self.argvs.append(argv + job["argv"])
        probe = subprocess.run(
            [sys.executable, "-c", "import reflexivity.cli; print(reflexivity.cli.__file__)"],
            env=cli_env(), capture_output=True, check=True, text=True)
        where = os.path.realpath(probe.stdout.strip())
        if not where.startswith(os.path.realpath(SRC) + os.sep):
            raise SystemExit(f"the CLI imports reflexivity from {where}, not from {SRC}")

    def run(self, job):
        r = subprocess.run([sys.executable, "-m", "reflexivity.cli"] + self.argvs[job["id"]],
                           env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return r.returncode, r.stdout

    def run_in_process(self, job):
        """`cli.main(argv)` in this process (the traced run), stdout captured."""
        from reflexivity import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(self.argvs[job["id"]]))
        return code, out.getvalue().encode("utf-8")

    @staticmethod
    def normalize(job, raw):
        return raw

    @staticmethod
    def digest(out):
        code, stdout = out
        return f"{code}:{hashlib.sha256(stdout).hexdigest()}"

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# passes over the job list

class Record:
    """Latencies, first outputs and failures of every job execution."""

    def __init__(self, runner, probe=False):
        self.runner = runner
        self.probe = probe
        self.probes = []
        self.latencies = []
        self.first = {}
        self.digests = {}
        self.failed = 0
        self.reasons = []

    def run(self, job, call):
        before = clock.probe() if self.probe else 0.0
        t0 = time.perf_counter()
        try:
            raw = call(job)
        except Exception as exc:  # a job that raises is a failed job; keep going
            raw, exc_text = None, f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        if self.probe:  # the machine's speed around the job: probes on both sides
            self.probes.append(0.5 * (before + clock.probe()))
        if raw is None:
            self.failed += 1
            self.reasons.append(f"job {job['id']} raised {exc_text}")
            return
        out = self.runner.normalize(job, raw)
        d = self.runner.digest(out)
        if job["id"] not in self.first:
            self.first[job["id"]] = out
            self.digests[job["id"]] = d
        elif d != self.digests[job["id"]]:
            self.failed += 1
            self.reasons.append(f"job {job['id']} gave a different answer on a repeat")

    def check(self, jobs):
        """Oracle-check each job's first answer; a wrong one fails every run of it."""
        per_job = len(self.latencies) // len(jobs)
        for job in jobs:
            if job["id"] not in self.first:
                continue
            reason = oracle.check(job, self.first[job["id"]])
            if reason:
                self.failed += per_job
                label = job.get("family") or job.get("command")
                self.reasons.append(f"job {job['id']} ({label}): {reason}")

    def summary(self, jobs):
        """Per-job output digests and one digest over all of them."""
        per_job = [self.digests.get(job["id"], "missing") for job in jobs]
        return {"job_sha256": per_job,
                "outputs_sha256": hashlib.sha256("".join(per_job).encode()).hexdigest()}


def measure(runner, jobs, seconds, min_jobs):
    if isinstance(runner, Library) and tracing.wrapped(runner.pkg):
        raise SystemExit("untraced run found tracing wrappers installed")
    rec = Record(runner, probe=True)
    t0 = time.perf_counter()
    cycles = 0
    while True:
        for job in jobs:
            rec.run(job, runner.run)
        cycles += 1
        if time.perf_counter() - t0 >= seconds and len(rec.latencies) >= min_jobs:
            break
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if isinstance(runner, Cli)
                               else resource.RUSAGE_SELF)
    rec.check(jobs)
    return {"latencies_s": rec.latencies, "probes_s": rec.probes,
            "attempted": len(rec.latencies),
            "failed": rec.failed, "reasons": rec.reasons[:20], "cycles": cycles,
            "wall_s": wall, "peak_rss_kb": usage.ru_maxrss, **rec.summary(jobs)}


def one_pass(runner, jobs, call, tracer=None):
    rec = Record(runner)
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is None:
            rec.run(job, call)
        else:
            tracer.job = job["id"]
            with tracer.span("job"):
                rec.run(job, call)
    return rec, time.perf_counter() - t0


def trace(pkg, runner, jobs, workload):
    """Untraced pass, traced pass, untraced pass; per-layer numbers from the
    traced one, and every pass must give the same answers."""
    is_cli = isinstance(runner, Cli)
    call = runner.run_in_process if is_cli else runner.run
    before, wall_before = one_pass(runner, jobs, call)
    tracer = tracing.Tracer(pkg)
    tracer.install()
    try:
        traced_call = call
        if not is_cli:  # set up again under the tracer, so parse and validation show
            with tracer.span("setup"):
                traced_call = Library(pkg, jobs).run
        traced, wall_traced = one_pass(runner, jobs, traced_call, tracer)
    finally:
        tracer.uninstall()
    after, wall_after = one_pass(runner, jobs, call)
    process = one_pass(runner, jobs, runner.run)[0] if is_cli else None

    before.check(jobs)
    failed, reasons = before.failed, list(before.reasons)
    others = [("traced", traced), ("second untraced", after)]
    if process is not None:
        others.append(("subprocess", process))
    for label, rec in others:
        failed += rec.failed
        reasons += rec.reasons
        for job in jobs:
            if rec.digests.get(job["id"]) != before.digests.get(job["id"]):
                failed += 1
                reasons.append(f"job {job['id']}: {label} answer differs from the untraced one")
    os.makedirs(SCRATCH, exist_ok=True)
    tracer.write(os.path.join(SCRATCH, f"spans-{workload}.csv"))
    untraced = 0.5 * (wall_before + wall_after)
    layers = layer_metrics(tracer, traced, untraced, wall_traced, before, process)
    return {"attempted": len(jobs) * len(others) + len(jobs), "failed": failed,
            "reasons": reasons[:20], "layers": layers, **before.summary(jobs)}


def layer_metrics(tracer, traced, untraced, wall_traced, before, process):
    totals, evals_under = tracer.totals()
    c = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    ev_calls = calls("expr.evaluate")
    roots = c.get("dynamics.find_fixed_points.roots", 0)
    samples = c.get("analysis.function_distance.samples", 0)
    periods = calls("analysis.detect_period")
    m = {
        "expr.evaluate.calls": ev_calls,
        "expr.evaluate.self_s": self_s("expr.evaluate"),
        "expr.evaluate.us_per_call": 1e6 * self_s("expr.evaluate") / ev_calls if ev_calls else 0.0,
        "expr.derivative.calls": calls("expr.derivative"),
        "expr.derivative.self_s": self_s("expr.derivative"),
        "expr.parse.calls": calls("expr.parse"),
        "expr.parse.self_s": self_s("expr.parse"),
        "expr.nodes_mean": (sum(tracer.parsed_nodes) / len(tracer.parsed_nodes)
                            if tracer.parsed_nodes else 0.0),
        "expr.domain_errors": c.get("expr.domain_errors", 0),
        "dynamics.make_system.self_s": self_s("dynamics.make_system"),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.self_s": self_s("dynamics.step"),
        "dynamics.orbit.self_s": self_s("dynamics.orbit"),
        "dynamics.orbit.steps": c.get("dynamics.orbit.steps", 0),
        "dynamics.find_fixed_points.self_s": self_s("dynamics.find_fixed_points"),
        "dynamics.find_fixed_points.roots": roots,
        "dynamics.find_fixed_points.evals_per_root": (
            evals_under["dynamics.find_fixed_points"] / roots if roots else 0.0),
        "analysis.function_distance.self_s": self_s("analysis.function_distance"),
        "analysis.function_distance.evals_per_sample": (
            evals_under["analysis.function_distance"] / samples if samples else 0.0),
        "analysis.verify_conjugacy.self_s": self_s("analysis.verify_conjugacy"),
        "analysis.detect_period.self_s": self_s("analysis.detect_period"),
        "analysis.detect_period.found_ratio": (
            c.get("analysis.detect_period.found", 0) / periods if periods else 0.0),
        "analysis.detect_boom_bust.self_s": self_s("analysis.detect_boom_bust"),
        "render.staircase.self_s": self_s("render.staircase"),
        "render.to_svg.self_s": self_s("render.to_svg"),
        "render.to_svg.bytes": c.get("render.to_svg.bytes", 0),
        "render.to_csv.self_s": self_s("render.to_csv"),
        "render.to_csv.bytes": c.get("render.to_csv.bytes", 0),
        "render.phase_portrait.self_s": self_s("render.phase_portrait"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.process_s": 0.0, "cli.startup_s": 0.0, "cli.stdout_bytes": 0,
        "trace.spans": len(tracer.start),
        "trace.traced_s": wall_traced,
        "trace.untraced_s": untraced,
        "trace.overhead_s": wall_traced - untraced,
    }
    if process is not None:
        proc = sum(process.latencies)
        m["cli.process_s"] = proc
        m["cli.startup_s"] = proc - sum(before.latencies)
        m["cli.stdout_bytes"] = sum(len(out[1]) for out in process.first.values())
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-jobs", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    is_cli = args.workload == "cli-batch"
    pkg = None if is_cli and args.mode != "trace" else import_library()
    jobs = workloads.generate(args.workload, args.seed, args.scale)
    runner = Cli(jobs) if is_cli else Library(pkg, jobs)
    print("READY", flush=True)
    try:
        if args.mode == "measure":
            result = measure(runner, jobs, args.seconds, args.min_jobs)
        elif args.mode == "trace":
            result = trace(pkg, runner, jobs, args.workload)
        else:
            return 0
    finally:
        runner.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
