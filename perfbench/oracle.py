"""Independent answers for every job, computed without the library.

Orbits, periods and boom-bust events are re-implemented in plain `math`
from the documented rules and must match the program bit for bit (same
operations in the same order).  Fixed points, multipliers, distances and
conjugacy verdicts come from closed forms and must match within the
tolerances below.  Each `check_*` returns None when the answer is right and
a one-line reason when it is not.
"""

import math
import xml.etree.ElementTree as ET

import expressions as E

# The library's documented iteration rules.
DIVERGENCE_CUTOFF = 1e12
CONVERGENCE_RTOL = 1e-13
CONVERGENCE_WINDOW = 3
PERIOD_RTOL = 1e-8
STABILITY_BAND = 1e-6
CONJUGACY_TOL = 1e-9

# Tolerances for answers that come out of a numeric solve.  Bisection stops
# at |g| < 1e-12, so a root sits within 1e-12/|g'| of the true one; the
# smallest slope here is 0.015, so 1e-8 leaves a wide margin.
ROOT_TOL = 1e-8
MULTIPLIER_TOL = 1e-6
RESIDUAL_TOL = 1e-9
DIST_TOL = 1e-8  # inversion stops at |f(x) - y| <= 1e-12*max(1, |y|)
CYCLE_TOL = 1e-7


def _finite(v):
    return v == v and abs(v) != float("inf")


# ---------------------------------------------------------------------------
# plain re-implementations

def orbit(f, phi, x0, max_steps):
    """[(x, y, index)] and the termination tag, as `dynamics.orbit` documents."""
    x0 = float(x0)
    states = [(x0, f(x0), 0)]
    tag = "step-budget"
    streak = 0
    for _ in range(max_steps):
        px, _, pi = states[-1]
        x = phi(f(px))
        states.append((x, f(x), pi + 1))
        if not _finite(x) or abs(x) > DIVERGENCE_CUTOFF:
            tag = "divergence"
            break
        if abs(x - px) < CONVERGENCE_RTOL * max(1.0, abs(px)):
            streak += 1
            if streak >= CONVERGENCE_WINDOW:
                tag = "convergence"
                break
        else:
            streak = 0
    return states, tag


def _diverged(x):
    return x != x or abs(x) > DIVERGENCE_CUTOFF


def period(gamma, x0, max_period, burn_in):
    """(period, cycle, residual) of the orbit tail, or None."""
    p = float(x0)
    for _ in range(burn_in):
        p = gamma(p)
        if _diverged(p):
            return None
    its = [p]
    for _ in range(2 * max_period):
        nxt = gamma(its[-1])
        if _diverged(nxt):
            return None
        its.append(nxt)
    tol = PERIOD_RTOL * max(1.0, abs(p))
    for n in range(1, max_period + 1):
        if abs(its[n] - p) <= tol:
            return n, tuple(its[:n]), max(abs(its[k + n] - its[k]) for k in range(n))
    return None


def boom_bust(xs, min_run, threshold):
    """[(rise_start, peak, reversal_end, amplitude, retrace_fraction)]."""
    runs, i, n = [], 0, len(xs)

    def sign(d):
        return 1 if d > 0 else (-1 if d < 0 else 0)
    while i < n - 1:
        s = sign(xs[i + 1] - xs[i])
        if s == 0:
            i += 1
            continue
        j = i + 1
        while j < n - 1 and sign(xs[j + 1] - xs[j]) == s:
            j += 1
        runs.append((s, i, j))
        i = j
    events = []
    for (s, i, j), (ns, nstart, nend) in zip(runs, runs[1:]):
        if j - i < min_run or nstart != j or ns != -s:
            continue
        amplitude = xs[j] - xs[i]
        fraction = min(1.0, abs(xs[j] - xs[nend]) / abs(amplitude))
        if fraction >= threshold:
            events.append((i, j, nend, amplitude, fraction))
    return events


def _grid(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


# ---------------------------------------------------------------------------
# closed forms

def stability(multiplier):
    mag = abs(multiplier)
    if mag < 1.0 - STABILITY_BAND:
        return "attracting"
    return "repelling" if mag > 1.0 + STABILITY_BAND else "marginal"


def pair_fixed_points(family, params, lo, hi):
    """[(x_bar, multiplier)] of the pair on [lo, hi]."""
    if family == "sin":
        a, eps = params["a"], params["eps"]
        ks = range(math.ceil(lo * a / math.pi), math.floor(hi * a / math.pi) + 1)
        return [(k * math.pi / a, 1.0 + a * eps * (-1.0) ** k) for k in ks]
    a, b, c, e = params["a"], params["b"], params["c"], params["e"]
    x = -(c + e * b) / (e * a)
    return [(x, 1.0 + a * e)] if lo < x < hi else []


def pair_inverse(family, params):
    a, b = params["a"], params.get("b", 0.0)
    return (lambda y: y / a) if family == "sin" else (lambda y: (y - b) / a)


def grid_distance(model):
    """(d, distance function) of phi against the closed-form inverse of f on
    the y-grid the documented method samples."""
    f, phi = E.compile_tree(model["f"]), E.compile_tree(model["phi"])
    inv = pair_inverse(model["family"], model["params"])
    lo, hi = model["x_domain"]
    y_lo = max(min(f(lo), f(hi)), model["y_domain"][0])
    y_hi = min(max(f(lo), f(hi)), model["y_domain"][1])

    def diff(y):
        return abs(phi(y) - inv(y))
    return max(diff(y) for y in _grid(y_lo, y_hi, model["size"])), diff


# ---------------------------------------------------------------------------
# checks on library answers (normalized to plain tuples by the worker)

def check_orbit_job(job, out):
    f, phi = E.compile_tree(job["f"]), E.compile_tree(job["phi"])
    states, tag = orbit(f, phi, job["x0"], job["steps"])
    if out["tag"] != tag:
        return f"orbit terminated by {out['tag']}, expected {tag}"
    if out["states"] != states:
        return (f"orbit states differ from the plain re-implementation "
                f"({len(out['states'])} vs {len(states)} states)")
    expected = period(lambda x: phi(f(x)), job["x0"], job["max_period"], job["burn_in"])
    if out["period"] != expected:
        got = out["period"] and out["period"][0]
        return f"period {got} differs from {expected and expected[0]}"
    reason = _closed_form_period(job, expected)
    if reason:
        return reason
    if out["events"] != boom_bust([s[0] for s in states], 5, 0.5):
        return "boom-bust events differ from the plain re-implementation"
    return None


def _closed_form_period(job, rep):
    want = job.get("expect_period")
    if want is None:
        return None
    if rep is None or rep[0] != want:
        return f"logistic r={job['param']} has period {want}, got {rep and rep[0]}"
    r = job["param"]
    if want == 2:  # the 2-cycle of r*x*(1-x) in closed form
        s = math.sqrt((r + 1.0) * (r - 3.0))
        cycle = [((r + 1.0) - s) / (2 * r), ((r + 1.0) + s) / (2 * r)]
        if any(abs(u - v) > CYCLE_TOL for u, v in zip(sorted(rep[1]), cycle)):
            return f"2-cycle {rep[1]} differs from closed form {cycle}"
    return None


def check_fixed_job(job, out):
    lo, hi = job["x_domain"]
    want = pair_fixed_points(job["family"], job["params"], lo, hi)
    if len(out) != len(want):
        return f"{len(out)} fixed points, closed form has {len(want)}"
    f, phi = E.compile_tree(job["f"]), E.compile_tree(job["phi"])
    for (x, y, res_f, res_phi, mult, stab), (wx, wm) in zip(out, want):
        if abs(x - wx) > ROOT_TOL:
            return f"fixed point {x!r} is not at closed form {wx!r}"
        if y != f(x) or res_f != 0.0 or abs(phi(y) - x) != res_phi or res_phi > RESIDUAL_TOL:
            return f"residuals at {x!r} do not match"
        if abs(mult - wm) > MULTIPLIER_TOL or stab != stability(wm):
            return f"multiplier {mult!r} ({stab}) at {x!r}, closed form {wm!r} ({stability(wm)})"
    return None


def check_distance_job(job, out):
    d, argmax, samples, direction = out
    want, diff = grid_distance(job)
    if samples != job["size"] or direction != "increasing":
        return f"distance report has samples={samples} direction={direction}"
    if abs(d - want) > DIST_TOL:
        return f"distance {d!r} differs from closed form {want!r}"
    if abs(diff(argmax) - d) > DIST_TOL:
        return f"argmax {argmax!r} does not attain the distance"
    return None


def conjugacy_residual(job):
    f, g, h = (E.compile_tree(job[k]) for k in ("f", "g", "h"))
    return max(abs(h(f(x)) - g(h(x))) for x in _grid(*job["interval"], job["size"]))


def check_conjugacy_job(job, out):
    max_res, checked, verdict, violation_x = out
    if verdict != job["expect"]:
        return f"conjugacy verdict {verdict}, closed form says {job['expect']}"
    lo, hi = job["interval"]
    n_fp = sum(lo <= x <= hi for x in job["fixed_points"])
    if checked != n_fp:
        return f"{checked} fixed-point images checked, closed form has {n_fp}"
    if verdict == "consistent":
        if not (0.0 <= max_res <= CONJUGACY_TOL) or violation_x is not None:
            return f"consistent pair reports residual {max_res!r}"
    else:
        if violation_x is None or abs(max_res - conjugacy_residual(job)) > RESIDUAL_TOL:
            return f"violated pair reports residual {max_res!r}"
    return None


CHECKS = {"orbit": check_orbit_job, "fixed": check_fixed_job,
          "distance": check_distance_job, "conjugacy": check_conjugacy_job}


def check(job, out):
    if job["kind"] == "cli":
        return check_cli(job, out)
    return CHECKS[job["kind"]](job, out)


# ---------------------------------------------------------------------------
# CLI stdout

def _model_orbit(m):
    f, phi = E.compile_tree(m["f"]), E.compile_tree(m["phi"])
    return orbit(f, phi, m["x0"], m["steps"])


def check_cli(job, out):
    code, stdout = out
    if code != 0:
        return f"{job['command']} exited {code}"
    try:
        text = stdout.decode("utf-8")
        return _CLI_CHECKS[job["command"]](job, job["model"], text)
    except (ValueError, IndexError, KeyError, ET.ParseError) as exc:
        return f"{job['command']} output unreadable: {exc}"


def _cli_simulate(job, m, text):
    states, _ = _model_orbit(m)
    want = "i,x,y\n" + "".join("%d,%.17g,%.17g\n" % (i, x, y) for x, y, i in states)
    return None if text == want else "simulate CSV rows differ from the plain orbit"


def _cli_fixed_points(job, m, text):
    lines = text.splitlines()
    if lines[0] != "# x_bar y_bar lambda stability residual_f residual_phi":
        return "fixed-points header missing"
    rows = []
    for ln in lines[1:]:
        x, y, lam, stab, rf, rp = ln.split()
        rows.append((float(x), float(y), float(rf), float(rp), float(lam), stab))
    lo, hi = m["x_domain"]
    want = pair_fixed_points(m["family"], m["params"], lo, hi)
    if len(rows) != len(want):
        return f"{len(rows)} fixed points, closed form has {len(want)}"
    for (x, _, rf, rp, lam, stab), (wx, wm) in zip(rows, want):
        if abs(x - wx) > ROOT_TOL or abs(lam - wm) > MULTIPLIER_TOL or stab != stability(wm):
            return (f"fixed point {x!r} (multiplier {lam!r}) differs from "
                    f"closed form {wx!r} ({wm!r})")
        if rf > RESIDUAL_TOL or rp > RESIDUAL_TOL:
            return f"residuals at {x!r} too large"
    return None


def _cli_distance(job, m, text):
    fields = dict(kv.split("=") for kv in text.split())
    want, diff = grid_distance(m)
    d = float(fields["d"])
    if int(fields["samples"]) != m["size"] or fields["direction"] != "increasing":
        return "distance report fields differ"
    if abs(d - want) > DIST_TOL or abs(diff(float(fields["argmax_y"])) - d) > DIST_TOL:
        return f"distance {d!r} differs from closed form {want!r}"
    return None


def _cli_period(job, m, text):
    f, phi = E.compile_tree(m["f"]), E.compile_tree(m["phi"])
    rep = period(lambda x: phi(f(x)), m["x0"], m["max_period"], m["burn_in"])
    if rep is None:
        want = "period=none\n"
    else:
        want = "period=%d residual=%.3g cycle=%s\n" % (
            rep[0], rep[2], " ".join("%.17g" % v for v in rep[1]))
    if text != want:
        return "period line differs from the plain re-implementation"
    if "expect_period" in m:
        return _closed_form_period({"expect_period": m["expect_period"], "param": m["r"]}, rep)
    if m.get("family") == "sin":  # gamma = x + eps*sin(a*x) settles on the root pi/a
        a = m["params"]["a"]
        if rep is None or rep[0] != 1 or abs(rep[1][0] - math.pi / a) > CYCLE_TOL:
            return f"period report {rep} is not the fixed point pi/{a}"
    return None


def _cli_boom_bust(job, m, text):
    states, _ = _model_orbit(m)
    events = boom_bust([s[0] for s in states], m["min_run"], m["retrace"])
    lines = [f"events={len(events)}"] + [
        "event rise_start=%d peak=%d reversal_end=%d amplitude=%.17g "
        "retrace_fraction=%.17g" % ev for ev in events]
    return None if text == "\n".join(lines) + "\n" else "boom-bust events differ"


def _svg_counts(text):
    root = ET.fromstring(text.encode("utf-8"))
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        raise ValueError("root element is not svg")
    counts = {}
    for el in root:
        key = el.tag.split("}")[1] + "." + el.get("class", "")
        counts[key] = counts.get(key, 0) + 1
    return counts


def _cli_staircase(job, m, text):
    states, _ = _model_orbit(m)
    c = _svg_counts(text)
    n_fp = len(m["fixed_points"]) if "fixed_points" in m else len(
        pair_fixed_points(m["family"], m["params"], *m["x_domain"]))
    want = {"line.step": 2 * len(states) - 1, "circle.fixed-point": n_fp,
            "polyline.curve-f": 1, "polyline.curve-phi": 1, "line.tick": 10,
            "text.tick-label": 10, "line.axis": 2}
    bad = {k: (c.get(k, 0), v) for k, v in want.items() if c.get(k, 0) != v}
    return f"staircase SVG element counts (got, want): {bad}" if bad else None


def _cli_portrait(job, m, text):
    states, _ = _model_orbit(m)
    c = _svg_counts(text)
    want = {"circle.orbit-point": len(states), "polyline.orbit": 1 if len(states) > 1 else 0,
            "line.tick": 10, "text.tick-label": 10, "line.axis": 2}
    bad = {k: (c.get(k, 0), v) for k, v in want.items() if c.get(k, 0) != v}
    return f"portrait SVG element counts (got, want): {bad}" if bad else None


def _cli_conjugacy(job, m, text):
    fields = dict(kv.split("=") for kv in text.split())
    out = (float(fields["max_residual"]), int(fields["fixed_points_checked"]),
           fields["verdict"], float(fields["violation_x"]) if "violation_x" in fields else None)
    return check_conjugacy_job(m, out)


_CLI_CHECKS = {"simulate": _cli_simulate, "fixed-points": _cli_fixed_points,
               "distance": _cli_distance, "period": _cli_period,
               "boom-bust": _cli_boom_bust, "staircase": _cli_staircase,
               "portrait": _cli_portrait, "conjugacy": _cli_conjugacy}
