"""Seeded job lists for the three workloads.

Each workload is a fixed list of jobs drawn from `--seed`.  The share of
jobs in each stratum (family, orbit length, grid or sample size) is fixed,
and the seed only picks parameters inside a stratum, so the cost mix is the
same for every seed while the inputs differ.  Jobs are plain dicts; trees
are kept next to their DSL text so the oracle never reads the program's
parse.
"""

import math
import random

import expressions as E

WORKLOADS = ("orbit-sweep", "solve-sweep", "cli-batch")
PI = math.pi
TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
LOGISTIC_PERIODS = ((3.2, 2), (3.5, 4), (3.83, 3))


def generate(workload, seed, scale=1.0):
    """The job list of `workload` for `seed`; `scale` < 1 shrinks every size."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"orbit-sweep": _orbit_jobs, "solve-sweep": _solve_jobs,
            "cli-batch": _cli_jobs}[workload]
    jobs = make(rng, scale)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def _scaled(n, scale, floor=16):
    return max(floor, int(round(n * scale)))


def _round(v, digits=4):
    return round(v, digits)


# ---------------------------------------------------------------------------
# map families (trees in the DSL's left-to-right order)

def logistic(r):
    return E.mul(E.mul(E.num(r), E.X), E.sub(E.num(1.0), E.X))


def tent(mu):
    return E.mul(E.num(mu), E.sub(E.num(1.0), E.call(
        "abs", E.sub(E.mul(E.num(2.0), E.X), E.num(1.0)))))


def sine_map(a):
    return E.mul(E.num(a), E.call("sin", E.mul(E.num(PI), E.X)))


def wobble(eps):
    """phi = y + eps*sin(2*pi*y): maps [0, 1] into itself for eps < 1/(2*pi)."""
    return E.add(E.X, E.mul(E.num(eps), E.call("sin", E.mul(E.num(TWO_PI), E.X))))


def random_tree(rng, n):
    """A tree of exactly n nodes over + - * sin cos tanh abs, with x in it."""
    while True:
        t = _grow(rng, n)
        if "var" in repr(t):
            return t


def _grow(rng, n):
    if n == 1:
        return E.X if rng.random() < 0.6 else E.num(_round(rng.uniform(0.2, 2.0), 3))
    if n == 2 or rng.random() < 0.25:
        return E.call(rng.choice(("sin", "cos", "tanh", "abs")), _grow(rng, n - 1))
    left = rng.randint(1, n - 2)
    return (rng.choice("+-*"), _grow(rng, left), _grow(rng, n - 1 - left))


def deep_map(rng, n, x0):
    """f = sin(k*T) with T random: bounded in [-1, 1], n nodes in total.

    Only maps whose orbit from x0 is still moving after 300 steps are kept,
    so every deep job runs its whole step budget and the cost of a job list
    does not depend on how many random maps happen to settle.
    """
    while True:
        k = _round(rng.uniform(2.0, 4.0), 3)
        f = E.call("sin", E.mul(E.num(k), random_tree(rng, n - 3)))
        fn = E.compile_tree(f)
        xs, x = [], x0
        for _ in range(300):
            x = fn(x)
            xs.append(x)
        if max(xs[-50:]) - min(xs[-50:]) > 1e-2:
            return f


# ---------------------------------------------------------------------------
# orbit-sweep

ORBIT_STEPS = (600, 1200, 2400)
BLOCK_STEPS = 3600


def _orbit_job(family, f, phi, domain, x0, steps, expect_period=None, param=None):
    return {
        "kind": "orbit", "family": family, "f": f, "phi": phi,
        "f_src": E.source(f, "x"), "phi_src": E.source(phi, "y"),
        "x_domain": domain, "y_domain": domain, "x0": x0, "steps": steps,
        "burn_in": 200, "max_period": 32, "expect_period": expect_period,
        "param": param,
    }


def _orbit_jobs(rng, scale):
    jobs = []
    steps = [_scaled(s, scale) for s in ORBIT_STEPS]
    unit = (0.0, 1.0)
    for i in range(6):  # chaotic logistic, half with a perturbed phi
        r = _round(rng.uniform(3.6, 4.0))
        phi = wobble(_round(rng.uniform(0.001, 0.02))) if i % 2 else E.X
        jobs.append(_orbit_job("logistic", logistic(r), phi, unit,
                               _round(rng.uniform(0.1, 0.9)), steps[i % 3], param=r))
    for r, period in LOGISTIC_PERIODS:  # periodic windows with closed-form periods
        jobs.append(_orbit_job("logistic-periodic", logistic(r), E.X, unit,
                               _round(rng.uniform(0.1, 0.9)), steps[1], period, r))
    for _ in range(2):  # a stable fixed point: the orbit converges early
        r = _round(rng.uniform(2.4, 2.7))
        jobs.append(_orbit_job("logistic-converging", logistic(r), E.X, unit,
                               _round(rng.uniform(0.1, 0.9)), steps[2], param=r))
    for i in range(3):
        mu = _round(rng.uniform(0.7, 0.99))
        jobs.append(_orbit_job("tent", tent(mu), E.X, unit,
                               _round(rng.uniform(0.1, 0.9)), steps[i], param=mu))
    for i in range(3):
        a = _round(rng.uniform(0.87, 0.999))
        phi = wobble(_round(rng.uniform(0.001, 0.02))) if i == 1 else E.X
        jobs.append(_orbit_job("sine", sine_map(a), phi, unit,
                               _round(rng.uniform(0.1, 0.9)), steps[i], param=a))
    sym = (-1.0, 1.0)
    for n in (20, 24, 28, 32, 36, 40):
        x0 = _round(rng.uniform(-0.9, 0.9))
        jobs.append(_orbit_job("deep", deep_map(rng, n, x0), E.X, sym, x0, steps[0]))
    # The four slowest jobs have the same shape and cost (chaotic logistic,
    # phi = y), so p90 of a cycle (its third-slowest job) lands inside them
    # whatever the seed draws for the random deep maps.
    for _ in range(4):
        r = _round(rng.uniform(3.6, 4.0))
        jobs.append(_orbit_job("logistic-long", logistic(r), E.X, unit,
                               _round(rng.uniform(0.1, 0.9)), _scaled(BLOCK_STEPS, scale),
                               param=r))
    return jobs


# ---------------------------------------------------------------------------
# solve-sweep: monotone pairs with closed-form answers

def sin_pair(a, eps):
    """f = a*x, phi = y/a + eps*sin(y): gamma(x) = x + eps*sin(a*x)."""
    f = E.mul(E.num(a), E.X)
    phi = E.add(E.div(E.X, E.num(a)), E.mul(E.num(eps), E.call("sin", E.X)))
    return f, phi


def affine_pair(a, b, c, e):
    """f = a*x + b, phi = (y - b)/a + c + e*y."""
    f = E.add(E.mul(E.num(a), E.X), E.num(b))
    phi = E.add(E.add(E.div(E.sub(E.X, E.num(b)), E.num(a)), E.num(c)),
                E.mul(E.num(e), E.X))
    return f, phi


def _pair_job(kind, rng, size, family):
    if family == "sin":
        a = _round(rng.uniform(1.5, 3.0))
        eps = _round(rng.uniform(0.01, 0.2))
        f, phi = sin_pair(a, eps)
        # Endpoints sit between roots k*pi/a so no root lies on the boundary.
        k_lo, k_hi = rng.randint(2, 4), rng.randint(4, 8)
        lo = -(k_lo + _round(rng.uniform(0.2, 0.8))) * PI / a
        hi = (k_hi + _round(rng.uniform(0.2, 0.8))) * PI / a
        params = {"a": a, "eps": eps}
    else:
        a = _round(rng.uniform(0.5, 3.0))
        b = _round(rng.uniform(0.0, 2.0))
        c = _round(rng.uniform(0.05, 0.5))
        e = _round(rng.uniform(0.05, 0.3))
        f, phi = affine_pair(a, b, c, e)
        x_star = -(c + e * b) / (e * a)
        lo, hi = x_star - _round(rng.uniform(1.0, 4.0)), x_star + _round(rng.uniform(1.0, 4.0))
        params = {"a": a, "b": b, "c": c, "e": e}
    lo, hi = _round(lo, 6), _round(hi, 6)
    f_lo, f_hi = params["a"] * lo + params.get("b", 0.0), params["a"] * hi + params.get("b", 0.0)
    # y_domain sits strictly inside the image of f.  function_distance
    # samples the image clipped to y_domain; when the image itself is the
    # range, its top grid point can round one ulp above f(hi) and the
    # inversion raises OutOfRangeError (a library defect, see CHANGES.md).
    margin = 0.05 * (f_hi - f_lo)
    y_domain = (_round(f_lo + margin, 3), _round(f_hi - margin, 3))
    return {
        "kind": kind, "family": family, "f": f, "phi": phi,
        "f_src": E.source(f, "x"), "phi_src": E.source(phi, "y"),
        "x_domain": (lo, hi), "y_domain": y_domain, "size": size, "params": params,
    }


def conjugacy_triple(rng, family, violated):
    """(f, g, h, interval, fixed points of f) with h(f(x)) = g(h(x)) exactly in
    real arithmetic unless `violated`, which adds d*sin(y) to g."""
    if family == "tent-logistic":
        # h = p*sin(pi*x/2)^2 + q carries the full tent map onto the logistic
        # map at r = 4, moved by the affine change y -> p*y + q.
        p, q = _round(rng.uniform(0.5, 2.0)), _round(rng.uniform(0.0, 1.0))
        f = tent(1.0)
        u = E.div(E.sub(E.X, E.num(q)), E.num(p))
        g = E.add(E.mul(E.num(p), E.mul(E.mul(E.num(4.0), u), E.sub(E.num(1.0), u))), E.num(q))
        h = E.add(E.mul(E.num(p), ("^", E.call("sin", E.mul(E.num(HALF_PI), E.X)),
                                   E.num(2.0))), E.num(q))
        interval, fps = (0.0, 1.0), (0.0, 2.0 / 3.0)
    elif family == "affine-logistic":
        r = _round(rng.uniform(1.5, 2.9))
        p, q = _round(rng.uniform(0.5, 2.0)), _round(rng.uniform(0.0, 1.0))
        f = logistic(r)
        u = E.div(E.sub(E.X, E.num(q)), E.num(p))
        g = E.add(E.mul(E.num(p), E.mul(E.mul(E.num(r), u), E.sub(E.num(1.0), u))), E.num(q))
        h = E.add(E.mul(E.num(p), E.X), E.num(q))
        interval, fps = (0.0, 1.0), (0.0, 1.0 - 1.0 / r)
    elif family == "power-log":
        c = _round(rng.uniform(0.6, 1.6))
        f = E.mul(E.num(c), ("^", E.X, E.num(2.0)))
        log_c = math.log(c)
        g = (E.add(E.mul(E.num(2.0), E.X), E.num(log_c)) if log_c >= 0.0
             else E.sub(E.mul(E.num(2.0), E.X), E.num(-log_c)))
        h = E.call("log", E.X)
        x_star = 1.0 / c
        interval, fps = (0.25, 3.0), (x_star,)
    else:  # "linear-exp"
        a = _round(rng.uniform(0.3, 0.9))
        f = E.mul(E.num(a), E.X)
        g = ("^", E.X, E.num(a))
        h = E.call("exp", E.X)
        interval, fps = (-1.0, 1.5), (0.0,)
    d = 0.0
    if violated:
        d = _round(rng.uniform(1e-4, 1e-2), 6)
        g = E.add(g, E.mul(E.num(d), E.call("sin", E.X)))
    return {"f": f, "g": g, "h": h, "interval": interval,
            "fixed_points": fps, "perturbation": d}


CONJ_FAMILIES = ("tent-logistic", "affine-logistic", "power-log", "linear-exp")


def _conj_job(rng, size, family, violated=False):
    t = conjugacy_triple(rng, family, violated)
    t.update({
        "kind": "conjugacy", "family": family, "size": size,
        "f_src": E.source(t["f"], "x"), "g_src": E.source(t["g"], "y"),
        "h_src": E.source(t["h"], "x"),
        "expect": "violated" if violated else "consistent",
    })
    return t


# (size, count) strata of the pair jobs; each stratum alternates sin/affine.
PAIR_SIZES = {
    "fixed": ((256, 4), (1024, 4), (4096, 4)),
    "distance": ((256, 7), (512, 4), (4096, 1)),
}
# Conjugacy jobs: every family at 256 and 1024, one violated pair in each;
# at 4096 a block of four tent-logistic jobs of equal cost, so p90 of a
# cycle (its fourth-slowest job) lands inside a block of 4096-sample jobs.
CONJ_JOBS = tuple((size, fam, fam == "affine-logistic") for size in (256, 1024)
                  for fam in CONJ_FAMILIES) + (
    (4096, "tent-logistic", False), (4096, "tent-logistic", True),
    (4096, "tent-logistic", False), (4096, "tent-logistic", False),
    (4096, "affine-logistic", False), (4096, "power-log", False),
    (4096, "linear-exp", False))


def _solve_jobs(rng, scale):
    jobs = []
    for kind, strata in PAIR_SIZES.items():
        for size, count in strata:
            for k in range(count):
                family = "sin" if k % 2 == 0 else "affine"
                jobs.append(_pair_job(kind, rng, _scaled(size, scale), family))
    for size, family, violated in CONJ_JOBS:
        jobs.append(_conj_job(rng, _scaled(size, scale), family, violated))
    return _distinct(jobs)


def _distinct(jobs):
    """Every solve job has its own source text, so a parse or compile cache
    keyed on the text cannot serve one job from another."""
    keys = {_texts(job) for job in jobs}
    if len(keys) != len(jobs):
        raise RuntimeError("duplicate source text in the solve-sweep job list")
    return jobs


# ---------------------------------------------------------------------------
# cli-batch

BUNDLED = {
    # The bundled scenarios as the oracle knows them (src/reflexivity/scenarios).
    "case1": {"f": E.mul(E.num(2.0), E.X),
              "phi": E.add(E.div(E.X, E.num(2.0)), E.mul(E.num(0.05), E.call("sin", E.X))),
              "x0": 1.0, "steps": 2000, "x_domain": (-1.0, 4.0), "y_domain": (-2.0, 8.0),
              "burn_in": 1000, "max_period": 32, "min_run": 5, "retrace": 0.5,
              "family": "sin", "params": {"a": 2.0, "eps": 0.05}, "size": 4096},
    "case2": {"f": E.X,
              "phi": E.sub(E.add(E.X, E.num(0.25)), E.mul(E.num(10.25), E.add(
                  E.sub(E.X, E.num(2.0)), E.call("abs", E.sub(E.X, E.num(2.0)))))),
              "x0": 0.12, "steps": 60, "x_domain": (-3.0, 3.0), "y_domain": (-3.0, 3.0),
              "burn_in": 0, "max_period": 32, "min_run": 5, "retrace": 0.5,
              "fixed_points": (2.0 + 0.25 / 20.5,)},
}


def _scenario(f, phi, x0, steps, x_domain, y_domain, **extra):
    data = {"f": E.source(f, "x"), "phi": E.source(phi, "y"), "x0": x0, "steps": steps,
            "x_domain": list(x_domain), "y_domain": list(y_domain),
            "analysis": {"min_run": 5, "retrace_threshold": 0.5, "max_period": 32,
                         "burn_in": 1000},
            "render": {"width": 800, "height": 600, "margin": 60, "curve_samples": 256}}
    data.update(extra)
    return data


def _cli_job(command, bundled=None, scenario=None, model=None, argv=()):
    """`model` holds the trees and numbers the oracle needs for this call."""
    return {"kind": "cli", "command": command, "bundled": bundled, "scenario": scenario,
            "model": model, "argv": list(argv)}


def _cli_jobs(rng, scale):
    jobs = []
    long_steps = _scaled(5000, scale)
    for name, command in (("case1", "simulate"), ("case1", "fixed-points"),
                          ("case1", "distance"), ("case1", "period"),
                          ("case2", "boom-bust"), ("case2", "staircase"),
                          ("case1", "portrait"), ("case2", "simulate")):
        jobs.append(_cli_job(command, bundled=name, model=dict(BUNDLED[name])))

    def orbit_model(f, phi, x0, steps, domain, **more):
        return dict({"f": f, "phi": phi, "x0": x0, "steps": steps, "x_domain": domain,
                     "y_domain": domain, "burn_in": 1000, "max_period": 32,
                     "min_run": 5, "retrace": 0.5}, **more)

    unit = (0.0, 1.0)
    # Four 5000-step staircases of equal cost sit just below the bundled
    # distance call, so p90 of a cycle (its third-slowest call) lands inside
    # a block of calls with large SVG output.
    for command, count, steps in (("simulate", 3, long_steps), ("staircase", 4, long_steps),
                                  ("portrait", 2, _scaled(3000, scale)),
                                  ("boom-bust", 2, _scaled(2000, scale))):
        for k in range(count):
            r = _round(rng.uniform(3.6, 4.0))
            x0 = _round(rng.uniform(0.1, 0.9))
            if command == "simulate" and k == 2:
                x0 = _round(rng.uniform(-0.9, 0.9))
                f, phi, domain, fps = deep_map(rng, 30, x0), E.X, (-1.0, 1.0), None
                steps = _scaled(2000, scale)
            else:
                f, phi, domain, fps = logistic(r), E.X, unit, (0.0, 1.0 - 1.0 / r)
            model = orbit_model(f, phi, x0, steps, domain, fixed_points=fps)
            jobs.append(_cli_job(command, scenario=_scenario(f, phi, x0, steps, domain, domain),
                                 model=model))
    for r, period in LOGISTIC_PERIODS:
        x0 = _round(rng.uniform(0.1, 0.9))
        model = orbit_model(logistic(r), E.X, x0, 10, unit, expect_period=period, r=r)
        jobs.append(_cli_job("period", scenario=_scenario(logistic(r), E.X, x0, 10, unit, unit),
                             model=model))
    for command, key, family, size in (("fixed-points", "grid", "sin", 4096),
                                       ("fixed-points", "grid", "affine", 1024),
                                       ("distance", "samples", "sin", 256),
                                       ("distance", "samples", "affine", 256)):
        pair = _pair_job(command, rng, size, family)  # the pair job doubles as the model
        jobs.append(_cli_job(command, model=pair, scenario=_scenario(
            pair["f"], pair["phi"], 0.5, 10, pair["x_domain"], pair["y_domain"],
            **{key: size})))
    for family, violated in (("tent-logistic", False), ("tent-logistic", True),
                             ("linear-exp", False)):
        t = conjugacy_triple(rng, family, violated)
        t["expect"] = "violated" if violated else "consistent"
        t["size"] = _scaled(1024, scale)
        argv = ["--f", E.source(t["f"], "x"), "--g", E.source(t["g"], "y"),
                "--h", E.source(t["h"], "x"), "--domain", repr(t["interval"][0]),
                repr(t["interval"][1]), "--samples", str(t["size"])]
        jobs.append(_cli_job("conjugacy", model=t, argv=argv))
    return jobs


# ---------------------------------------------------------------------------
# properties a later optimisation might depend on

def properties(workload, jobs):
    """Measured shares of the job list, for the record printed with each run."""
    out = {"jobs": len(jobs)}
    texts = [_texts(j) for j in jobs]
    out["distinct_source_share"] = round(len(set(texts)) / len(texts), 3)
    if workload == "orbit-sweep":
        sizes = sorted(E.nodes(j["f"]) for j in jobs)
        out["f_nodes_min_median_max"] = (sizes[0], sizes[len(sizes) // 2], sizes[-1])
        out["step_budgets"] = _histogram(j["steps"] for j in jobs)
        out["early_converging_share"] = round(
            sum(j["family"] == "logistic-converging" for j in jobs) / len(jobs), 3)
        out["closed_form_period_share"] = round(
            sum(j["expect_period"] is not None for j in jobs) / len(jobs), 3)
    elif workload == "solve-sweep":
        out["kinds"] = _histogram(j["kind"] for j in jobs)
        out["sizes"] = _histogram(j["size"] for j in jobs)
        out["violated_conjugacy_share"] = round(
            sum(j.get("expect") == "violated" for j in jobs) / len(jobs), 3)
    else:
        out["commands"] = _histogram(j["command"] for j in jobs)
        out["bundled_share"] = round(sum(j["bundled"] is not None for j in jobs) / len(jobs), 3)
    return out


def _texts(job):
    if job["kind"] == "cli":
        return repr((job["command"], job["bundled"], job["scenario"], job["argv"]))
    return repr(tuple(job.get(k) for k in ("f_src", "phi_src", "g_src", "h_src")))


def _histogram(values):
    hist = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    return {str(k): hist[k] for k in sorted(hist)}
