"""The compiled distance sweep and the grid scans against the loops they
replace.

function_distance runs its grid through the system's compiled sweep in one
call, which solves every sample itself with the solve lines of
dynamics._SOLVE; the per-sample loop over the Python solver, in
solve_points.py, is the reference (tests/test_solve.py runs the solve
against that solver on its own too).  find_map_fixed_points and
_monotone_direction scan their grids in compiled kernels that make their
own points; the grid lists and builtin scans those replaced, and the loops
the builtin scans replaced before them, are kept here as references, and
the kernels are also run with crafted columns in place of an expression's
lines.  The monotonicity scan reports where it stops, and
_monotone_direction raises from there; the point loop it ran again before
is the reference.  verify_conjugacy computes and scans its residuals in one
compiled loop (_RESIDUALS), which raises the error the first failing x
meets; the grid passes and builtin scans it replaced, with the
point-by-point evaluation that found that error before the loop raised it
itself, and the loop over the residuals before them, are kept here as
references.  The fixed-point scan skips and counts a failing point itself,
and solves each sign change where it finds it; the point loop it ran
again before, with the Python solver on each sign change after it
(scan_points.point_search), is the reference.  The finiteness check of
make_system runs one loop over its grid; the grid pass and point loop it
replaced are the reference.  Reports are compared by repr, so -0.0 and NaN
are told apart, warnings by message, and errors by type and message; a
TypeError is raised, not compared, as no compared call raises one by
design.
"""

import gc
import logging
import math
import pickle
import random
from bisect import bisect_right
from collections import Counter
from itertools import compress, filterfalse, repeat
from operator import gt, lt, mul, sub

import pytest

import solve_points
from conftest import gen_source
from reflexivity import analysis, cli, dynamics, expr, render
from reflexivity.analysis import function_distance
from reflexivity.dynamics import make_system
from scan_points import point_map, point_search
from solve_points import per_sample_distance


def outcome(run):
    """repr of the result, or the error's type and message, and a
    NonMonotoneError's x_pair too."""
    try:
        return repr(run())
    except TypeError:
        raise
    except analysis.NonMonotoneError as exc:
        return type(exc).__name__, str(exc), repr(exc.x_pair)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc).__name__, str(exc)


def warned(caplog, run):
    """run's outcome and the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        got = outcome(run)
    return got, [r.getMessage() for r in caplog.records]


def same_as_loop(caplog, monkeypatch, s, samples):
    """Assert function_distance agrees with the per-sample reference, in its
    outcome and warnings, and runs s's sweep at most once (not at all if it
    refuses its input first); return (outcome, messages)."""
    want = warned(caplog, lambda: per_sample_distance(s, samples))
    runs = []
    real = analysis._kernel

    def spy(system):
        sweep = real(system)
        return lambda *args: runs.append(args) or sweep(*args)

    with monkeypatch.context() as m:
        m.setattr(analysis, "_kernel", spy)
        got = warned(caplog, lambda: function_distance(s, samples))
    assert got == want, (s.f.source, s.phi.source, samples)
    assert len(runs) == 1 or not runs and isinstance(got[0], tuple), runs
    return got


class TestSweepMatchesLoop:
    @pytest.mark.parametrize("f, phi, x_domain, y_domain, samples", [
        ("2*x + 1", "(y - 1)/2", (0.0, 1.0), (1.0, 3.0), 4096),
        ("x + 0.3*sin(3*x)", "y - 0.2", (-2.0, 2.0), (-5.0, 5.0), 1000),
        ("-x^3 - x", "-y/2", (-1.5, 1.5), (-5.0, 5.0), 777),
        ("exp(8*x)", "log(y)/8 + 0.01", (-1.0, 1.0), (1e-4, 3000.0), 2048),
        ("1e6*x + 1e-3*x^3", "y*1e-6", (-3.0, 3.0), (-4e6, 4e6), 513),
        ("tanh(40*x) + 1e-3*x", "y/40", (-1.0, 1.0), (-2.0, 2.0), 1500),
        ("1e-9*x", "1e9*y", (0.0, 1.0), (-1.0, 1.0), 300),
        ("x^3", "y", (-1.0, 1.0), (-1.0, 1.0), 2),
        ("x", "-(0 - y)", (0.0, 1.0), (0.0, 1.0), 9),  # phi(0) - 0.0 is -0.0; d is 0.0
    ], ids=["affine", "increasing", "decreasing", "steep-exp", "steep-wide", "steep-tanh",
            "flat", "two-samples", "signed-zero"])
    def test_smooth(self, caplog, monkeypatch, f, phi, x_domain, y_domain, samples):
        s = make_system(f, phi, x_domain, y_domain)
        got, said = same_as_loop(caplog, monkeypatch, s, samples)
        assert got.startswith("DistanceReport") and not said

    def test_jump_mid_grid(self, caplog, monkeypatch):
        # The samples in the jump, y in (0.2, 0.4), lie mid-grid; the sweep
        # inverts each to where f jumps and goes on.
        s = make_system("x + 0.1*tanh(1e300*(x-0.3))", "y", (0.0, 1.0), (-1.0, 2.0))
        got, said = same_as_loop(caplog, monkeypatch, s, 1201)
        assert said == ["function_distance: 198 of 1201 samples lie in a jump of f; "
                        "each is inverted to where f jumps"], got

    def test_one_sample_in_a_jump_mid_grid(self, caplog, monkeypatch):
        # f jumps by 2e-4 at x = 0.49995; of the 1001 samples only y = 0.5
        # lies in the jump, and the sweep goes on after it to the end.
        s = make_system("x + 1e-4*tanh(1e300*(x - 0.49995))", "y", (0.0, 1.0), (0.0, 1.0))
        got, said = same_as_loop(caplog, monkeypatch, s, 1001)
        assert got.startswith("DistanceReport"), got
        assert said == ["function_distance: 1 of 1001 samples lie in a jump of f; "
                        "each is inverted to where f jumps"]

    def test_top_grid_point_rounding_past_range(self, caplog, monkeypatch):
        s = make_system("1.2754*x + 1.4597", "(y - 1.4597)/1.2754",
                        (-3.303485, 0.367968), (-4.0, 3.0))
        f_max = expr.evaluate(s.f, 0.367968)
        assert dynamics._grid(expr.evaluate(s.f, -3.303485), f_max, 256)[-1] > f_max
        got, said = same_as_loop(caplog, monkeypatch, s, 256)
        assert got.startswith("DistanceReport") and not said

    def test_iteration_cap_in_the_sweep(self, caplog, monkeypatch):
        # A sweep compiled under the lowered cap stops where the reference
        # solver does, logs as it does and goes on with the same end.
        monkeypatch.setattr(dynamics, "SOLVE_MAX_ITER", 2)
        s = make_system("x^3 + x", "y", (0.0, 1.0), (0.0, 2.0))
        got, said = same_as_loop(caplog, monkeypatch, s, 50)
        assert got.startswith("DistanceReport") and said, got
        assert all("no convergence in 2 iterations" in m for m in said)

    def test_y_out_of_range(self, caplog, monkeypatch):
        # A y-grid whose points would leave float range is refused before
        # either path runs: f's image, 1.6e305 wide, fits the 1024 points of
        # phi's validation grid but not 4096 samples.  A y_domain 3.4e308
        # wide is refused when the system is built.
        s = make_system("1e305*x", "1", (-1.5, 1.5), (-8e304, 8e304))
        got, _ = same_as_loop(caplog, monkeypatch, s, 4096)
        assert got == (
            "DomainValidationError", "[-8e+304, 8e+304] is too wide for a grid of 4096 points")
        with pytest.raises(dynamics.DomainValidationError, match="too wide for a grid of 1024"):
            make_system("1e308*x", "1", (-1.5, 1.5), (-1.7e308, 1.7e308))

    # 0.5*(0.03 + 0.62) = 0.325 is the first point the second sample's solve
    # tries, and lies on neither validation grid.
    @pytest.mark.parametrize("f, phi, y_domain, samples, error", [
        ("x + 0*log(abs(x - 0.325))", "y", (0.0, 3.0), 64, "log of non-positive value 0.0"),
        ("x + 0/(x - 0.325)", "y", (0.0, 3.0), 64, "division by zero"),
        ("x", "y + 0*log(abs(y - 0.5))", (0.0, 1.0), 1025, "log of non-positive value 0.0"),
        ("x", "y + 0*sqrt(abs(y - 0.5) - 1e-300)", (0.0, 1.0), 1025, "sqrt of negative value"),
    ], ids=["log-in-f", "division-in-f", "log-in-phi", "sqrt-in-phi"])
    def test_failure_mid_sweep(self, caplog, monkeypatch, f, phi, y_domain, samples, error):
        x_domain = (0.03, 0.62) if phi == "y" else (0.0, 1.0)
        s = make_system(f, phi, x_domain, y_domain)
        got, _ = same_as_loop(caplog, monkeypatch, s, samples)
        assert got[0] == "EvalDomainError" and got[1].startswith(error), got
        # Each error carries only the exception of its own line: a failing
        # value line of f raises outside the solve's tries.
        chains = []
        for run in (function_distance, per_sample_distance):
            with pytest.raises(expr.EvalDomainError) as raised:
                run(s, samples)
            exc, chain = raised.value, []
            while exc is not None:
                chain.append(type(exc))
                exc = exc.__context__
            chains.append(chain)
        assert chains[0] == chains[1] and len(chains[0]) == 2, chains

    def test_derivative_failure_in_the_sweep(self, caplog, monkeypatch):
        # abs has no derivative at 0.325, where the value is fine: the
        # second sample's solve bisects there instead of taking a Newton step.
        s = make_system("x + 0.1*abs(x - 0.325)", "y", (0.03, 0.62), (0.0, 3.0))
        got, said = same_as_loop(caplog, monkeypatch, s, 64)
        assert got.startswith("DistanceReport") and not said

    def test_random_monotone_pairs(self, caplog, monkeypatch):
        rng = random.Random(20261018)
        for _ in range(120):
            a = rng.choice((-1, 1)) * rng.uniform(0.05, 20.0)
            eps = rng.uniform(-0.9, 0.9) * abs(a)
            b, delta = rng.uniform(-5.0, 5.0), rng.uniform(-0.5, 0.5)
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + rng.uniform(1e-3, 15.0)
            s = make_system(f"{a!r}*x + {b!r} + {eps!r}*sin(x)",
                            f"(y - {b!r})/{a!r} + {delta!r}*cos(y)",
                            (lo, hi), (-1e3, 1e3))
            got, _ = same_as_loop(caplog, monkeypatch, s, rng.choice((2, 3, 97, 1000, 4096)))
            assert got.startswith("DistanceReport"), got


class TestNanDistance:
    def test_nan_sample_is_counted_and_logged(self, caplog, monkeypatch):
        # phi is NaN only at y = 0.5, which the 1025-point grid holds and
        # the 1024-point validation grid does not.
        s = make_system("x", "y + 0.1*tanh((y - 0.5)*(1e300*1e300))", (0, 1), (0, 1))
        got, said = same_as_loop(caplog, monkeypatch, s, 1025)
        rep = function_distance(s, 1025)
        assert rep.d == pytest.approx(0.1) and got == repr(rep)
        assert said == ["function_distance: 1 of 1025 samples have no finite distance"]

    def test_no_finite_sample_gives_nan(self, caplog, monkeypatch):
        s = make_system("x", "y + tanh(y*(1e300*1e300)) - tanh((y - 1)*(1e300*1e300))",
                        (0, 1), (-0.3, 1.7))
        got, said = same_as_loop(caplog, monkeypatch, s, 2)
        assert got == ("DistanceReport(d=nan, argmax_y=0.0, samples=2, "
                       "monotone_direction='increasing')")
        assert said == ["function_distance: 2 of 2 samples have no finite distance"]

    def test_finite_samples_log_nothing(self, caplog):
        s = make_system("2*x", "y/2 + 0.01", (0, 1), (0, 2))
        with caplog.at_level(logging.WARNING):
            function_distance(s, 300)
        assert not caplog.records


def spy_compile_loop(monkeypatch):
    """The list of the templates expr.compile_loop compiles from now on."""
    compiled = []
    real = expr.compile_loop
    monkeypatch.setattr(expr, "compile_loop", lambda template, *a, **k: compiled.append(
        template) or real(template, *a, **k))
    return compiled


class TestKernelCache:
    def test_one_system_compiles_each_kernel_once(self, monkeypatch):
        # Every kernel is kept on f, each under its own template, so no
        # call makes another compile again, and phi keeps none.  The one
        # fixed point lies between two grid points, so its bracket is solved.
        s = make_system("x + 0.2*sin(x)", "y/2 + 0.1", (0.0, 2.0), (0.0, 3.0))
        compiled = spy_compile_loop(monkeypatch)
        for _ in range(3):
            dynamics.orbit(s, 0.3, 50)
            analysis.detect_period(dynamics.compose_gamma(s), 0.3, 8, 20)
            dynamics.find_fixed_points(s, 256)
            function_distance(s, 128)
        assert compiled == [dynamics._LOOP, dynamics._SCAN, analysis._MONOTONE, analysis._SWEEP]
        assert list(s.f._kernels) == compiled and s.phi._kernels == {}


class TestSweepCache:
    def test_compiled_once_on_first_call(self, monkeypatch):
        # The first call compiles f's monotonicity scan and the sweep, both
        # kept on f; later calls compile nothing.
        s = make_system("x + 0.2*sin(x)", "y", (0.0, 2.0), (0.0, 3.0))
        assert s.f._kernels == {}
        compiled = spy_compile_loop(monkeypatch)
        first = function_distance(s, 500)
        kept = dict(s.f._kernels)
        assert compiled == [analysis._MONOTONE, analysis._SWEEP] == list(kept)
        assert function_distance(s, 500) == first and function_distance(s, 37).samples == 37
        assert s.f._kernels == kept and s.phi._kernels == {}
        assert compiled == [analysis._MONOTONE, analysis._SWEEP]

    def test_sweep_is_kept_on_its_system(self, caplog, monkeypatch):
        # A sweep cached by id() would be handed to a later system at the
        # same address; kept on the system's f it dies with it.
        for k in range(200):
            c = 1.0 + k / 100
            s = make_system(f"{c!r}*x + 0.1*sin(x)", "y", (0.0, 1.0), (-1.0, 4.0))
            got, said = same_as_loop(caplog, monkeypatch, s, 64)
            assert got.startswith("DistanceReport") and not said, c
            del s
            if k % 50 == 0:
                gc.collect()


class TestScanCache:
    def test_gamma_scan_compiled_once_and_kept_on_its_system(self, monkeypatch):
        # The scan, which solves its brackets itself, kept on f.
        s = make_system("2.5*x*(1 - x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        compiled = spy_compile_loop(monkeypatch)
        first = dynamics.find_fixed_points(s, 500)
        scan = dynamics._scan(s.f, s.phi)
        assert len(first) == 2 and compiled == [dynamics._SCAN]
        assert dynamics.find_fixed_points(s, 500) == first
        assert len(dynamics.find_fixed_points(s, 37)) == 2
        assert s.f._kernels == {dynamics._SCAN: ([s.phi], scan)}
        assert s.phi._kernels == {} and compiled == [dynamics._SCAN]

    def test_scan_is_kept_on_its_system(self):
        # As the sweep is: a scan cached by id() could serve a later system.
        for k in range(200):
            c = 1.5 + k / 100
            s = make_system(f"{c!r}*x*(1 - x)", "y", (0.0, 1.0), (0.0, 1.0))
            _, fp = dynamics.find_fixed_points(s, 64)
            assert fp.x_bar == pytest.approx(1.0 - 1.0 / c, abs=1e-12), c
            del s
            if k % 50 == 0:
                gc.collect()


# ---------------------------------------------------------------------------
# The grid scans

def list_fixed_points(fn, many, lo, hi, grid_n=dynamics.DEFAULT_GRID, tol=dynamics.ROOT_TOL):
    """find_map_fixed_points as it was before its compiled scan: the grid as
    a list, the map's values from one many(xs) pass while no point fails and
    from fn point by point otherwise, scanned with builtins.  The reference
    for the scan."""
    if grid_n < 2:
        raise dynamics.PreconditionError("grid_n must be >= 2")
    dynamics._check_interval(lo, hi)
    xs = dynamics._grid(lo, hi, grid_n)
    skipped = 0
    try:
        gs = list(map(sub, many(xs), xs))
    except expr.EvalDomainError:
        gs = []
        for x in xs:
            try:
                gs.append(fn(x) - x)
            except expr.EvalDomainError:
                gs.append(math.nan)
                skipped += 1
    if skipped == grid_n:
        raise dynamics.DomainValidationError("map invalid over the entire domain")
    if skipped:
        dynamics.log.warning("fixed-point grid: skipped %d of %d points", skipped, grid_n)
    g = lambda x: fn(x) - x  # noqa: E731
    dg = lambda x: fn.derivative(x) - 1.0  # noqa: E731
    roots = list(compress(xs, map(gt, repeat(tol), map(abs, gs))))
    jumps = 0
    for i in compress(range(grid_n - 1), map((0.0).__gt__, map(mul, gs, gs[1:]))):
        ga, gb = gs[i], gs[i + 1]
        if abs(ga) < tol or abs(gb) < tol:
            continue
        try:
            x, status, _ = solve_points.bracket_solve(g, xs[i], xs[i + 1], ga, gb, tol, dg=dg)
        except expr.EvalDomainError:
            skipped += 1
            continue
        if status == "discontinuity":
            jumps += 1
        else:
            roots.append(x)
    if jumps:
        dynamics.log.warning("fixed-point search: dropped %d sign changes that are jumps, "
                             "not roots", jumps)
    roots.sort()
    merged = []
    radius = dynamics.DEDUP_RADIUS_FACTOR * (hi - lo)
    for r in roots:
        if not merged or r - merged[-1] > radius:
            merged.append(r)
    return merged, skipped


def reference_fixed_points(fn, many, lo, hi, grid_n=dynamics.DEFAULT_GRID,
                           tol=dynamics.ROOT_TOL):
    """find_map_fixed_points with its loops over (x, g) pairs: the reference
    for the builtin scans of list_fixed_points."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    xs = dynamics._grid(lo, hi, grid_n)
    skipped = 0
    try:
        vals = [(x, v - x) for x, v in zip(xs, many(xs))]
    except expr.EvalDomainError:
        vals = []
        for x in xs:
            try:
                vals.append((x, fn(x) - x))
            except expr.EvalDomainError:
                vals.append(None)
                skipped += 1
    if skipped == grid_n:
        raise dynamics.DomainValidationError("map invalid over the entire domain")
    if skipped:
        dynamics.log.warning("fixed-point grid: skipped %d of %d points", skipped, grid_n)
    g = lambda x: fn(x) - x  # noqa: E731
    dg = lambda x: fn.derivative(x) - 1.0  # noqa: E731
    roots = []
    jumps = 0
    for entry in vals:
        if entry is not None and abs(entry[1]) < tol:
            roots.append(entry[0])
    for a, b in zip(vals, vals[1:]):
        if a is None or b is None:
            continue
        (xa, ga), (xb, gb) = a, b
        if abs(ga) < tol or abs(gb) < tol or not ga * gb < 0:
            continue
        try:
            x, status, _ = solve_points.bracket_solve(g, xa, xb, ga, gb, tol, dg=dg)
        except expr.EvalDomainError:
            skipped += 1
            continue
        if status == "discontinuity":
            jumps += 1
        else:
            roots.append(x)
    if jumps:
        dynamics.log.warning("fixed-point search: dropped %d sign changes that are jumps, "
                             "not roots", jumps)
    roots.sort()
    merged = []
    radius = dynamics.DEDUP_RADIUS_FACTOR * (hi - lo)
    for r in roots:
        if not merged or r - merged[-1] > radius:
            merged.append(r)
    return merged, skipped


def list_direction(f, lo, hi):
    """_monotone_direction as it was before its compiled scan: the grid as a
    list, f's values from one evaluate_many pass (else computed as the loop
    reaches them), neighbours compared with builtins, and the loop over the
    differences only where that decides nothing.  The reference for the
    scan."""
    prev_x, prev_v = lo, expr.evaluate(f, lo)
    xs = dynamics._grid(lo, hi, analysis.MONOTONE_DIFFS + 1)[1:]
    try:
        vs = expr.evaluate_many(f, xs)
    except expr.EvalDomainError:
        vs = (expr.evaluate(f, x) for x in xs)
    if isinstance(vs, list):
        us = [prev_v, *vs]
        if all(map(lt, us, vs)):
            return "increasing"
        if all(map(gt, us, vs)):
            return "decreasing"
    direction = 0
    for x, v in zip(xs, vs):
        d = v - prev_v
        sign = 1 if d > 0 else (-1 if d < 0 else 0)
        if sign == 0 or (direction and sign != direction):
            raise analysis.NonMonotoneError(
                f"not strictly monotone between {prev_x!r} and {x!r}", x_pair=(prev_x, x))
        direction = sign
        prev_x, prev_v = x, v
    return "increasing" if direction > 0 else "decreasing"


def point_loop_direction(fn, lo, hi):
    """_monotone_direction's loop over the differences, with the callable
    fn called point by point, as it ran for a plain callable and, for an
    Expression, wherever the compiled scan found no direction or failed.
    The reference for the scan's (sign, k) and the error raised from it."""
    prev_x, prev_v = lo, fn(lo)
    n = analysis.MONOTONE_DIFFS + 1
    w, m = dynamics._grid_span(lo, hi, n)
    direction = 0
    for k in range(1, n):
        x = lo + w * k / m
        v = fn(x)
        d = v - prev_v
        sign = 1 if d > 0 else (-1 if d < 0 else 0)
        if sign == 0 or (direction and sign != direction):
            raise analysis.NonMonotoneError(
                f"not strictly monotone between {prev_x!r} and {x!r}", x_pair=(prev_x, x))
        direction = sign
        prev_x, prev_v = x, v
    return "increasing" if direction > 0 else "decreasing"


FAIL = "fail"  # a crafted column's failing point


class Column:
    """A crafted column of a kernel's part: column[k, x] is values[k], or
    raises EvalDomainError where values[k] is FAIL, the typed error a
    failing line's handler raises, and records x in seen."""

    def __init__(self, values, seen):
        self.values, self.seen = values, seen

    def __getitem__(self, key):
        k, x = key
        self.seen.append(x)
        if self.values[k] is FAIL:
            raise expr.EvalDomainError("crafted failure")
        return self.values[k]


def looked_up(name, var="x"):
    """A part of a crafted kernel whose one line `<name>v0 = column[k, var]`
    stands for an expression's lines."""
    em = expr._Emitter(False, prefix=name)
    em.lines.append(f"{name}v0 = column[k, {var}]")
    return em, f"{name}v0"


def held(name, var):
    """A part with no lines, which holds its variable var."""
    return expr._Emitter(False, var=var, prefix=name), var


class CraftedMap:
    """A crafted map on the reals for the fixed-point scan: at the grid point
    xs[k] its value is col[k], and strictly between xs[j] and xs[j + 1] it is
    x + gaps[j][0]; its slope at x is gaps[j][1] for the gap x opens (the
    last gap's at the last point).  value and derivative raise
    EvalDomainError where their entry is FAIL.  asked logs each x where
    the value is asked for."""

    def __init__(self, xs, col, gaps):
        self.xs, self.col, self.gaps = xs, col, gaps
        self.index = {x: k for k, x in enumerate(xs)}
        self.asked = []

    def value(self, x):
        self.asked.append(x)
        k = self.index.get(x)
        if k is None:
            c = self.gaps[bisect_right(self.xs, x) - 1][0]
            v = FAIL if c is FAIL else x + c
        else:
            v = self.col[k]
        if v is FAIL:
            raise expr.EvalDomainError("crafted failure")
        return v

    def derivative(self, x):
        d = self.gaps[min(bisect_right(self.xs, x), len(self.gaps)) - 1][1]
        if d is FAIL:
            raise expr.EvalDomainError("crafted failure")
        return d


class Lookup:
    """lookup[x] is fn(x), with fn's EvalDomainError raised as the class
    raises, as a failing line raises: a crafted line's lookup, whose fn a
    test may set again before each call."""

    def __init__(self, fn=None, raises=ValueError):
        self.fn, self.raises = fn, raises

    def __getitem__(self, x):
        try:
            return self.fn(x)
        except expr.EvalDomainError:
            raise self.raises("crafted failure") from None


def at_x(name, table):
    """A part of a crafted kernel whose one line `<name>v0 = <table>[x]`
    stands for an expression's lines."""
    em = expr._Emitter(False, prefix=name)
    em.lines.append(f"{name}v0 = {table}[x]")
    return em, f"{name}v0"


def crafted_scan(column, dcolumn):
    """The fixed-point scan with the lookups column[x] and dcolumn[x] in
    place of f's value and derivative lines, and the identity as phi."""
    return expr._define(dynamics._SCAN, {
        "f": at_x("f", "column"), "phi": held("phi", "y"), "df": at_x("df", "dcolumn"),
        "dphi": held("dphi", "1.0")},
        {**dynamics._solve_env(), "nan": math.nan, "column": column, "dcolumn": dcolumn})


def fixed_point_trials(rng):
    """(values, failing indices, tol) of the map on the grid: the edge cases
    first, then 3000 random draws."""
    nan, inf = math.nan, math.inf
    trials = [([1.0, -1.0], set(), dynamics.ROOT_TOL), ([1e-200, -1e-200], set(), 0.0),
              ([0.0, -0.0, 0.0], set(), 0.0), ([0.0, -0.0], set(), dynamics.ROOT_TOL),
              ([nan, 1.0, -1.0, nan], set(), dynamics.ROOT_TOL), ([inf, -inf, inf], set(), 0.0),
              ([5e-324, 1e-200, -1e-200, -0.3], set(), 0.0), ([1.0, -1.0], {0}, 0.0),
              ([1.0, -1.0], {1}, dynamics.ROOT_TOL), ([1.0, -1.0], {0, 1}, 0.0)]
    for bad in ({0}, {3}, {6}, {0, 6}):
        trials.append(([0.3, -1.0, 1.0, -2.5, 1e-13, -1.0, 1.0], bad, dynamics.ROOT_TOL))
    for trial in range(3000):
        n = rng.randint(2, 12)
        vs = [rng.choice(SPECIAL) for _ in range(n)]
        bad = {i for i in range(n) if rng.random() < 0.15 * (trial % 2)}
        trials.append((vs, bad, rng.choice((dynamics.ROOT_TOL, 0.0))))
    return trials


def monotone_trials(rng):
    """(differences, lo, column: f at lo and at each grid point after it):
    the edge cases first, then 600 random draws at MONOTONE_DIFFS."""
    nan, inf = math.nan, math.inf
    n = analysis.MONOTONE_DIFFS
    up = [float(k) for k in range(n + 1)]
    trials = [(1, 0.0, [0.0, 1.0]), (1, 0.0, [1.0, 0.0]), (1, 0.0, [0.0, -0.0]),
              (1, 0.0, [nan, 1.0]), (1, 0.0, [0.0, FAIL]), (2, 0.0, [0.0, 1.0, 0.5]),
              (2, 0.0, [-inf, 0.0, inf]), (2, 0.0, [inf, 0.0, -inf]),
              (2, 0.0, [0.0, 1.0, FAIL]), (2, 0.0, [0.0, FAIL, 1.0]),
              (n, 1.0, up), (n, 1.0, up[::-1])]
    for k in (1, n // 2, n):
        for bad in (nan, FAIL, up[k - 1]):
            trials.append((n, 0.0, up[:k] + [bad] + up[k + 1:]))
    # A failure after a pair that is not monotone, and one before it.
    trials.append((n, 0.0, up[:10] + [5.0] + up[11:20] + [FAIL] + up[21:]))
    trials.append((n, 0.0, up[:10] + [FAIL] + up[11:20] + [5.0] + up[21:]))
    for _ in range(600):
        lo = rng.choice((0.0, -0.0, 1.0, -1e308, 1e-300))
        sign = rng.choice((1, -1))
        vs = sorted(lo + sign * rng.uniform(1e-3, 1e6) for _ in range(n))
        vs = vs if sign > 0 else vs[::-1]
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(n)
            vs[i] = rng.choice(SPECIAL + (vs[i - 1], -vs[i], FAIL))
        trials.append((n, lo, [lo, *vs]))
    return trials


def reference_fixed_point_images(f, g, h, lo, hi, fp_tol, verdict, violation_x):
    """verify_conjugacy's check that g fixes the images of f's fixed points:
    (images checked, verdict, violation_x)."""
    f_map = point_map(lambda x: expr.evaluate(f, x), lambda x: expr.derivative(f, x))
    fixed_points, _ = list_fixed_points(f_map, lambda xs: expr.evaluate_many(f, xs), lo, hi,
                                        grid_n=1024)
    checked = 0
    for x_bar in fixed_points:
        hx = expr.evaluate(h, x_bar)
        if not abs(expr.evaluate(g, hx) - hx) <= fp_tol:
            verdict = "violated"
            if violation_x is None:
                violation_x = x_bar
        checked += 1
    return checked, verdict, violation_x


def reference_residuals(f, g, h, interval, samples=analysis.DEFAULT_SAMPLES,
                        tol=analysis.CONJUGACY_TOL, fp_tol=analysis.CONJUGACY_FP_TOL):
    """verify_conjugacy with its loop over the residuals: the reference for
    the scan."""
    lo, hi = interval
    h_fn = lambda x: expr.evaluate(h, x)  # noqa: E731
    f_fn = lambda x: expr.evaluate(f, x)  # noqa: E731
    g_fn = lambda x: expr.evaluate(g, x)  # noqa: E731
    analysis._monotone_direction(h, lo, hi)
    xs = dynamics._grid(lo, hi, samples)
    try:
        sides = zip(expr.evaluate_many(h, expr.evaluate_many(f, xs)),
                    expr.evaluate_many(g, expr.evaluate_many(h, xs)))
    except expr.EvalDomainError:
        sides = ((h_fn(f_fn(x)), g_fn(h_fn(x))) for x in xs)
    max_residual = math.nan
    argmax = lo
    nan_x = None
    for x, (hf, gh) in zip(xs, sides):
        r = abs(hf - gh)
        if not r <= max_residual:
            if r == r:
                max_residual = r
                argmax = x
            elif nan_x is None:
                nan_x = x
    violation_x = argmax if max_residual > tol else nan_x
    verdict = "consistent" if violation_x is None else "violated"
    checked, verdict, violation_x = reference_fixed_point_images(
        f, g, h, lo, hi, fp_tol, verdict, violation_x)
    return analysis.ConjugacyReport(max_residual, checked, verdict, violation_x)


def reference_grid_passes(f, g, h, interval, samples=analysis.DEFAULT_SAMPLES,
                          tol=analysis.CONJUGACY_TOL, fp_tol=analysis.CONJUGACY_FP_TOL):
    """verify_conjugacy with four evaluate_many passes over its grid and the
    residuals scanned with builtins: the reference for the compiled
    residual loop."""
    if samples < 2:
        raise dynamics.PreconditionError("samples must be >= 2")
    lo, hi = interval
    h_fn = lambda x: expr.evaluate(h, x)  # noqa: E731
    f_fn = lambda x: expr.evaluate(f, x)  # noqa: E731
    g_fn = lambda x: expr.evaluate(g, x)  # noqa: E731
    analysis._monotone_direction(h, lo, hi)
    xs = dynamics._grid(lo, hi, samples)
    try:
        hf = expr.evaluate_many(h, expr.evaluate_many(f, xs))
        gh = expr.evaluate_many(g, expr.evaluate_many(h, xs))
    except expr.EvalDomainError:
        # Point by point, so the error is the one the first failing x meets:
        # the evaluation verify_conjugacy ran to find it before its compiled
        # loop raised it itself.
        hf, gh = [], []
        for x in xs:
            hf.append(h_fn(f_fn(x)))
            gh.append(g_fn(h_fn(x)))
    rs = list(map(abs, map(sub, hf, gh)))
    # max keeps the first of equal values, so index finds where it is.
    max_residual = max(filterfalse(math.isnan, rs), default=math.nan)
    argmax = lo if math.isnan(max_residual) else xs[rs.index(max_residual)]
    nan_x = next(compress(xs, map(math.isnan, rs)), None)  # the first NaN x
    violation_x = argmax if max_residual > tol else nan_x
    verdict = "consistent" if violation_x is None else "violated"
    checked, verdict, violation_x = reference_fixed_point_images(
        f, g, h, lo, hi, fp_tol, verdict, violation_x)
    return analysis.ConjugacyReport(max_residual, checked, verdict, violation_x)


SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-200, -1e-200, 1.0, -1.0, 0.3,
           -2.5, 1e-13, -5e-13, 1e308, -1e308, 5e-324)


class TestScansMatchLoops:
    def test_fixed_point_scan(self, caplog, monkeypatch):
        # The scan compiled with a crafted map in place of f's lines (phi is
        # the identity), its value and slope looked up by x: at the grid's
        # points from the trial's column, and in each gap between them as
        # x plus the gap's constant, so that each sign change's solve asks
        # for points off the grid.  A failing entry raises as a failing
        # line does, ValueError or ZeroDivisionError, which the scan skips
        # at a grid point, and counts as a failed bracket in a solve.
        # evaluate and derivative give f the same map point by point.  Grid
        # points within 1e-300 of 0, so g = v - x is v for every v drawn
        # here but the smallest; 1e-200 * -1e-200 underflows to -0.0.
        rng = random.Random(7)
        f, phi = expr.parse("x"), expr.parse("y")
        real_value, real_slope = expr.evaluate, expr.derivative
        counts = Counter()
        column, dcolumn = Lookup(), Lookup()
        kernel = crafted_scan(column, dcolumn)
        for vs, bad, tol in fixed_point_trials(rng):
            n = len(vs)
            xs = dynamics._grid(-1e-300, 1e-300, n)
            w, m = dynamics._grid_span(-1e-300, 1e-300, n)
            gaps = [(rng.choice((FAIL, 0.0, -0.0, 3e-301, -3e-301, 1.0, -2.5, math.nan)),
                     rng.choice((FAIL, 0.0, 1.0, 2.0, -1.0, 1e300, math.nan)))
                    for _ in range(n - 1)]
            fmap = CraftedMap(xs, [FAIL if i in bad else v for i, v in enumerate(vs)], gaps)
            column.fn, dcolumn.fn = fmap.value, fmap.derivative
            column.raises = dcolumn.raises = rng.choice((ValueError, ZeroDivisionError))
            fn = point_map(fmap.value, fmap.derivative)

            def many(ts):
                assert ts == xs
                if bad:
                    raise expr.EvalDomainError("bad point", 0)
                return list(vs)

            def find():
                return dynamics.find_map_fixed_points(f, phi, -1e-300, 1e-300, n)

            # The kernel alone makes _grid's points, in order, each before
            # any solve asks for it, and gives what point_search gives from
            # the same map.
            got = kernel(-1e-300, w, m, n, tol)
            grid_asked = dict.fromkeys(x for x in fmap.asked if x in fmap.index)
            assert list(map(repr, grid_asked)) == list(map(repr, xs))
            with monkeypatch.context() as mp:
                mp.setattr(expr, "evaluate",
                           lambda e, x: fmap.value(x) if e is f else real_value(e, x))
                mp.setattr(expr, "derivative",
                           lambda e, x: fmap.derivative(x) if e is f else real_slope(e, x))
                assert got == point_search(f, phi)(-1e-300, w, m, n, tol), (vs, bad, gaps, tol)
            counts.update(roots=len(got[0]), jumps=got[2], failed=got[3])

            results = []
            for run, scan in ((find, lambda *_: kernel), (find, point_search),
                              (lambda: list_fixed_points(fn, many, -1e-300, 1e-300, n, tol),
                               None),
                              (lambda: reference_fixed_points(fn, many, -1e-300, 1e-300, n, tol),
                               None)):
                fmap.asked.clear()
                caplog.clear()
                with monkeypatch.context() as mp, caplog.at_level(logging.WARNING):
                    mp.setattr(dynamics, "ROOT_TOL", tol)
                    mp.setattr(expr, "evaluate",
                               lambda e, x: fmap.value(x) if e is f else real_value(e, x))
                    mp.setattr(expr, "derivative",
                               lambda e, x: fmap.derivative(x) if e is f else real_slope(e, x))
                    if scan is not None:
                        mp.setattr(dynamics, "_scan", scan)
                    got = outcome(run)
                # The points off the grid each solve asks for, in order; at
                # a collapsed bracket the kernel asks for the value at its
                # ends again, where the references ask only for the slope.
                off_grid = dict.fromkeys(x for x in fmap.asked if x not in fmap.index)
                results.append((got, list(map(repr, off_grid)),
                                [r.getMessage() for r in caplog.records]))
            assert results[0] == results[1] == results[2] == results[3], (vs, bad, gaps, tol)
        assert min(counts.values()) > 100, counts

    def test_failure_heavy_grid_is_scanned_once(self, caplog, monkeypatch):
        # sqrt and log fail on the 2,048 points of [-1, 0); the scan skips
        # each itself, in one pass, as the point-by-point scan does.
        e, identity = expr.parse("sqrt(x) - 0.5*log(x)"), expr.parse("y")
        scans = []
        real = dynamics._scan

        def counted(f, phi):
            kernel = real(f, phi)
            return lambda *grid: scans.append(grid) or kernel(*grid)

        results = []
        for scan in (counted, point_search):
            monkeypatch.setattr(dynamics, "_scan", scan)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                got = dynamics.find_map_fixed_points(e, identity, -1.0, 1.0, 4096)
            results.append((got, [r.getMessage() for r in caplog.records]))
        assert results[0] == results[1] == (
            ([1.0], 2048), ["fixed-point grid: skipped 2048 of 4096 points"])
        monkeypatch.setattr(dynamics, "_scan", counted)
        with pytest.raises(dynamics.DomainValidationError,
                           match="^map invalid over the entire domain$"):
            dynamics.find_map_fixed_points(e, identity, -2.0, -1.0, 64)
        assert len(scans) == 2

    def test_residual_scan(self, monkeypatch):
        # The residual loop compiled with crafted columns for h(f(x)) and
        # g(h(x)), looked up by x, in place of the parts' lines: the edge
        # cases below, then 600 random draws.
        nan, inf = math.nan, math.inf
        trials = [([-0.0] * 5, [0.0] * 5),
                  ([0.0, -0.0, 5e-324, -5e-324], [5e-324, 0.0, 0.0, 0.0]),
                  ([1.0, 2.0, 1.0, 2.0, nan], [0.0] * 5),
                  ([nan] * 4, [1.0] * 4),
                  ([inf, -inf, 1e308, -1e308], [inf, inf, -1e308, 1e308]),
                  ([nan, 0.3, -0.0], [1e-13, -5e-13, -0.0])]
        rng = random.Random(11)
        values = SPECIAL + (-5e-324,)
        for _ in range(600):
            n = rng.randint(2, 20)
            cols = [rng.choice(values) for _ in range(n)], [rng.choice(values) for _ in range(n)]
            trials.append(([nan] * n, cols[1]) if rng.random() < 0.1 else cols)
        f, g, h = expr.parse("x + 5"), expr.parse("x"), expr.parse("x")
        real = expr.evaluate_many
        for cols in trials:
            n = len(cols[0])
            xs = dynamics._grid(-1.0, 1.0, n)
            lookups = {name: dict(zip(xs, col)) for name, col in zip(("hfcol", "ghcol"), cols)}
            parts = {name: expr._Emitter(False, prefix=name) for name in ("f", "h", "hf", "gh")}
            parts["hf"].lines.append("hfv0 = hfcol[x]")
            parts["gh"].lines.append("ghv0 = ghcol[x]")
            kernel = expr._define(analysis._RESIDUALS, {
                "f": (parts["f"], "x"), "h": (parts["h"], "x"),
                "hf": (parts["hf"], "hfv0"), "gh": (parts["gh"], "ghv0")},
                {"range": range, **lookups})
            with monkeypatch.context() as m:
                m.setattr(analysis, "_residuals", lambda *args: kernel)
                got = outcome(lambda: analysis.verify_conjugacy(f, g, h, (-1.0, 1.0), n))
            # f's column is h(f(x)) and g's is g(h(x)), h being x.
            crafted = {id(f): cols[0], id(g): cols[1]}
            with monkeypatch.context() as m:
                m.setattr(expr, "evaluate_many", lambda e, ts: list(
                    crafted[id(e)]) if id(e) in crafted and len(ts) == n else real(e, ts))
                want = outcome(lambda: reference_residuals(f, g, h, (-1.0, 1.0), n))
                assert outcome(lambda: reference_grid_passes(f, g, h, (-1.0, 1.0), n)) == want
            assert got == want, cols

    def test_monotone_scan(self, monkeypatch):
        # The scan compiled with a crafted column for f, looked up by grid
        # index, in place of f's lines; evaluate and evaluate_many give the
        # same column to the loop and to the list reference, point by point
        # in grid order.
        rng = random.Random(13)
        f = expr.parse("x")
        real = expr.evaluate
        for diffs, lo, col in monotone_trials(rng):
            grid = dynamics._grid(lo, lo + 1.0, diffs + 1)
            points = []

            def point(e, x):
                if e is not f:
                    return real(e, x)
                k = len(points)
                points.append(x)
                assert repr(x) == repr(grid[k])
                if col[k] is FAIL:
                    raise expr.EvalDomainError("crafted failure", 0)
                return col[k]

            def many(e, xs):
                assert e is f and xs == grid[1:]
                if FAIL in col[1:]:
                    raise expr.EvalDomainError("crafted failure", 0)
                return col[1:]

            seen = []
            kernel = expr._define(analysis._MONOTONE, {"f": looked_up("f")},
                                  {"range": range, "column": Column(col, seen)})
            with monkeypatch.context() as m:
                m.setattr(analysis, "MONOTONE_DIFFS", diffs)
                m.setattr(expr, "evaluate", point)
                m.setattr(analysis, "_monotone", lambda e: kernel)
                got = outcome(lambda: analysis._monotone_direction(f, lo, lo + 1.0))
                assert list(map(repr, seen)) == list(map(repr, grid[1:len(seen) + 1]))
                points.clear()
                m.setattr(expr, "evaluate_many", many)
                want = outcome(lambda: list_direction(f, lo, lo + 1.0))
            assert got == want, (lo, col[:3], diffs)

    def test_kernel_points_are_grid_points(self):
        # Each kernel makes the points of _grid(lo, hi, n), bit for bit, on
        # wide and narrow grids: its crafted line records each point.
        rng = random.Random(1701)
        cases = [(-1e300, 1e300, 5), (5e-324, 1e-323, 7), (-3.0, -2.0, 2), (0.0, 1.0, 4096)]
        for _ in range(300):
            scale = rng.choice((1e-300, 1e-10, 1.0, 1e10, 1e300))
            lo = rng.uniform(-1.0, 1.0) * scale
            hi = lo + rng.uniform(0.0, 2.0) * rng.choice((scale, 1.0))
            cases.append((lo, hi, rng.randint(2, 300)))
        for lo, hi, n in cases:
            if not lo < hi:
                continue
            grid = list(map(repr, dynamics._grid(lo, hi, n)))
            w, m = dynamics._grid_span(lo, hi, n)
            col = [float(k) for k in range(n)]
            seen = []
            env = {"range": range, "column": Column(col, seen)}
            # The fixed-point scan looks the value up by x; with tol inf,
            # every point is near 0, so no bracket is solved.
            column = Lookup(lambda x: seen.append(x) or 0.0)
            assert crafted_scan(column, None)(lo, w, m, n, math.inf)[1:] == (0, 0, 0)
            assert list(map(repr, seen)) == grid, (lo, hi, n)
            seen.clear()
            assert expr._define(analysis._MONOTONE, {"f": looked_up("f")}, env)(
                lo, w, m, n, -1.0) == (1, n)
            assert list(map(repr, seen)) == grid[1:], (lo, hi, n)
            seen.clear()
            expr._define(analysis._RESIDUALS, {"f": held("f", "x"), "h": held("h", "x"),
                                               "hf": looked_up("hf"), "gh": held("gh", "hx")},
                         env)(lo, w, m, n)
            assert list(map(repr, seen)) == grid, (lo, hi, n)
            # The sweep clamps each y to f's range, as the loop's grid is
            # clamped, before phi's line records it.  f is the identity.
            seen.clear()
            ys = [min(max(y, lo), hi) for y in dynamics._grid(lo, hi, n)]
            sweep = expr._define(analysis._SWEEP, {"f": held("f", "x"), "df": held("f", "1.0"),
                                                   "phi": looked_up("phi", "y")}, {
                **dynamics._solve_env(), **env, "max": max, "nextafter": math.nextafter,
                "inf": math.inf, "rtol": analysis.INVERT_RTOL})
            assert sweep(lo, w, m, n, lo, hi, lo, hi)[3] == 0, (lo, hi, n)
            assert list(map(repr, seen)) == list(map(repr, ys)), (lo, hi, n)


class TestMonotoneMatchesPointLoop:
    # The 1025-point grids of [0, 1] and [0, 3] hold 0.5 (k = 512), 0.75
    # (k = 256) and 2.25 (k = 768); sin turns at pi/2.
    @pytest.mark.parametrize("f, lo, hi", [
        ("x^3 + x", -1.0, 1.0),
        ("-exp(x)", 0.0, 3.0),
        ("x - abs(x - 0.5)", 0.0, 1.0),
        ("x + 0*tanh((x - 0.5)*(1e300*1e300))", 0.0, 1.0),
        ("sin(x)", 0.0, 3.0),
        ("sin(x) + 0*log(abs(x - 0.75))", 0.0, 3.0),
        ("sin(x) + 0*log(abs(x - 2.25))", 0.0, 3.0),
        ("0*x", -0.0, 1.0),
        ("-x", -0.0, 1.0),
        ("x*1e300*1e300 - x*1e300*1e300", 0.0, 1.0),
        ("x + 0*sqrt(x - 0.5)", 0.0, 1.0),
    ], ids=["increasing", "decreasing", "flat-step", "nan", "reversal", "fails-before-reversal",
            "fails-after-reversal", "flat-from-signed-zero", "decreasing-from-signed-zero",
            "nan-at-lo", "fails-at-lo"])
    def test_expression_and_callable(self, f, lo, hi):
        # The Expression's scan against its values called point by point.
        e = expr.parse(f)
        want = outcome(lambda: point_loop_direction(lambda x: expr.evaluate(e, x), lo, hi))
        assert outcome(lambda: analysis._monotone_direction(e, lo, hi)) == want
        if repr(lo) == "-0.0" and want[0] == "NonMonotoneError":
            assert want[2].startswith("(-0.0, "), want

    def test_random_expressions(self):
        rng = random.Random(20261020)
        kinds = set()
        for _ in range(400):
            e = expr.parse(gen_source(rng, 4, wide=True))
            lo = rng.choice((-2.0, -0.0, 0.0, 0.5, rng.uniform(-3.0, 3.0)))
            hi = lo + rng.choice((1e-9, 1.0, 3.0))
            want = outcome(lambda: point_loop_direction(lambda x: expr.evaluate(e, x), lo, hi))
            assert outcome(lambda: analysis._monotone_direction(e, lo, hi)) == want, (
                e.source, lo, hi)
            kinds.add(want if isinstance(want, str) else want[0])
        assert kinds >= {"'increasing'", "'decreasing'", "NonMonotoneError",
                         "EvalDomainError"}, kinds


def conjugacy_triple(rng, family, violated):
    """Sources of (f, g, h) and the interval of one of solve-sweep's
    conjugacy families, with h(f(x)) = g(h(x)) in real arithmetic unless
    violated."""
    p, q = round(rng.uniform(0.5, 2.0), 4), round(rng.uniform(0.0, 1.0), 4)
    u = f"((y - {q!r})/{p!r})"
    if family == "tent-logistic":
        f = "1.0*(1.0 - abs(2.0*x - 1.0))"
        g = f"{p!r}*(4.0*{u}*(1.0 - {u})) + {q!r}"
        h = f"{p!r}*sin(1.5707963267948966*x)^2.0 + {q!r}"
        interval = (0.0, 1.0)
    elif family == "affine-logistic":
        r = round(rng.uniform(1.5, 2.9), 4)
        f = f"{r!r}*x*(1.0 - x)"
        g = f"{p!r}*({r!r}*{u}*(1.0 - {u})) + {q!r}"
        h = f"{p!r}*x + {q!r}"
        interval = (0.0, 1.0)
    elif family == "power-log":
        c = round(rng.uniform(0.6, 1.6), 4)
        f, g, h = f"{c!r}*x^2.0", f"2.0*y + {math.log(c)!r}", "log(x)"
        interval = (0.25, 3.0)
    else:
        a = round(rng.uniform(0.3, 0.9), 4)
        f, g, h = f"{a!r}*x", f"y^{a!r}", "exp(x)"
        interval = (-1.0, 1.5)
    if violated:
        g += f" + {round(rng.uniform(1e-4, 1e-2), 6)!r}*sin(y)"
    return f, g, h, interval


def same_as_grid_passes(f, g, h, interval, samples):
    """Assert verify_conjugacy agrees with the grid passes; return its outcome."""
    got = outcome(lambda: analysis.verify_conjugacy(f, g, h, interval, samples))
    assert got == outcome(lambda: reference_grid_passes(f, g, h, interval, samples)), (
        f.source, g.source, h.source, interval, samples)
    return got


class TestResidualLoopMatchesGridPasses:
    @pytest.mark.parametrize("family", ["tent-logistic", "affine-logistic", "power-log",
                                        "linear-exp"])
    def test_solve_sweep_families(self, family):
        rng = random.Random(family)
        verdicts = set()
        for trial in range(12):
            f, g, h, interval = conjugacy_triple(rng, family, violated=trial % 3 == 0)
            got = same_as_grid_passes(expr.parse(f), expr.parse(g), expr.parse(h), interval,
                                      rng.choice((2, 3, 256, 1024, 4096)))
            verdicts.add(got.split("verdict='")[1].split("'")[0])
        assert verdicts == {"consistent", "violated"}

    # 0.3 is the fourth point of the 11-point grid on [0, 1], and lies on
    # none of the grids of the monotonicity and fixed-point checks.
    @pytest.mark.parametrize("f, g, h, error", [
        ("x/2 + 0*log(abs(x - 0.3))", "y/2", "x", "log of non-positive value 0.0"),
        ("x/2 + 0*sqrt(abs(x - 0.3) - 1e-300)", "y/2", "x", "sqrt of negative value -1e-300"),
        ("x/2 + 0/(x - 0.3)", "y/2", "x", "division by zero"),
        ("x/2", "y/2 + 0*log(abs(y - 0.3))", "x", "log of non-positive value 0.0"),
        ("x/2", "y/2 + 0*sqrt(abs(y - 0.3) - 1e-300)", "x", "sqrt of negative value -1e-300"),
        ("x/2", "y/2 + 0/(y - 0.3)", "x", "division by zero"),
        ("x/2", "y/2", "x + 0*log(abs(x - 0.3))", "log of non-positive value 0.0"),
        ("x/2", "y/2", "x + 0*sqrt(abs(x - 0.3) - 1e-300)", "sqrt of negative value -1e-300"),
        ("x/2", "y/2", "x + 0/(x - 0.3)", "division by zero"),
        ("x/2 + 0*exp(1e4*(x - 0.25))", "y/2", "x", "math range error"),
    ], ids=["log-in-f", "sqrt-in-f", "division-in-f", "log-in-g", "sqrt-in-g",
            "division-in-g", "log-in-h", "sqrt-in-h", "division-in-h", "overflow-in-f"])
    def test_failure_mid_grid(self, f, g, h, error):
        got = same_as_grid_passes(expr.parse(f), expr.parse(g), expr.parse(h), (0.0, 1.0), 11)
        assert got[0] == "EvalDomainError" and got[1].startswith(error), got

    def test_first_failure_in_point_order(self):
        # At x = 0.3 the compiled loop computes h(x), which fails in log,
        # before h(f(x)) = h(0.15), which fails in the division; point by
        # point, h(f(x)) comes first.
        got = same_as_grid_passes(expr.parse("x/2"), expr.parse("y/2"),
                                  expr.parse("x + 0*log(abs(x - 0.3)) + 0/(x - 0.15)"),
                                  (0.0, 1.0), 11)
        assert got == ("EvalDomainError", "division by zero (node at offset 27)")

    def test_random_wide_triples(self, monkeypatch):
        # Random wide f and g, and an h monotone on the interval with, at
        # times, a wide term times 0 added, which can fail or be NaN there.
        rng = random.Random(1604)
        raised = []
        real = analysis._residuals

        def residuals(f, g, h):
            kernel = real(f, g, h)

            def run(*args):
                try:
                    return kernel(*args)
                except expr.EvalDomainError:
                    raised.append(1)
                    raise
            return run

        monkeypatch.setattr(analysis, "_residuals", residuals)
        reports = 0
        for _ in range(400):
            f, g = (expr.parse(gen_source(rng, 4, wide=True)) for _ in range(2))
            h = rng.choice(("x", "2*x + 1", "exp(x)", "x^3 + x", "-x"))
            if rng.random() < 0.6:
                h += f" + 0*{gen_source(rng, 3, wide=True)}"
            interval = rng.choice(((-1.0, 1.0), (0.0, 1.0), (0.5, 2.0)))
            got = same_as_grid_passes(f, g, expr.parse(h), interval,
                                      rng.choice((2, 3, 11, 64, 257)))
            reports += not isinstance(got, tuple)
        assert reports > 100 and len(raised) > 50, (reports, len(raised))

    def test_nan_and_infinite_residuals(self):
        # f is NaN for x > 0 and g infinite for x < -0.5.
        nan_right = "x/2 + (x + abs(x))*1e300*1e300 - (x + abs(x))*1e300*1e300"
        inf_left = "y/3 + (abs(y + 0.5) - y - 0.5)*1e300*1e300"
        for f, g in ((nan_right, "y/3"), ("x/2", inf_left), (nan_right, inf_left),
                     ("x*1e300*1e300 - x*1e300*1e300", "y")):
            for n in (2, 11, 101, 1024):
                same_as_grid_passes(expr.parse(f), expr.parse(g), expr.parse("x"),
                                    (-1.0, 1.0), n)


class TestResidualCache:
    F, G, H = "4*x*(1 - x)", "4*y*(1 - y) + 1e-3*y", "x + 0.1*x^3"

    def test_compiled_once_per_f_and_g(self, monkeypatch):
        # A check compiles h's monotonicity scan, kept on h, and the residual
        # loop and f's fixed-point scan, kept on f; later checks with the
        # same objects compile nothing, so the identity the scan takes as
        # phi is one object.  A new g compiles the residual loop again; a
        # new f, equal to the old one, the residual loop and f's scan.
        f, g, h = expr.parse(self.F), expr.parse(self.G), expr.parse(self.H)
        compiled = spy_compile_loop(monkeypatch)
        each = [analysis._MONOTONE, analysis._RESIDUALS, dynamics._SCAN]
        first = same_as_grid_passes(f, g, h, (0.0, 1.0), 500)
        kept = dict(f._kernels), dict(h._kernels)
        assert list(kept[0]) == each[1:] and list(kept[1]) == each[:1] and compiled == each
        assert same_as_grid_passes(f, g, h, (0.0, 1.0), 500) == first
        same_as_grid_passes(f, g, h, (0.25, 0.5), 37)
        assert (f._kernels, h._kernels) == kept and compiled == each
        # A kernel is reused only for the same objects, not equal ones.
        same_as_grid_passes(f, expr.parse(self.G), h, (0.0, 1.0), 500)
        assert compiled == each + [analysis._RESIDUALS]
        assert f._kernels[dynamics._SCAN] is kept[0][dynamics._SCAN]
        other = expr.parse(self.F)
        same_as_grid_passes(other, g, h, (0.0, 1.0), 500)
        assert compiled == each + [analysis._RESIDUALS] * 2 + [dynamics._SCAN]
        assert h._kernels == kept[1] and list(other._kernels) == each[1:]

    def test_another_f_or_g_with_the_same_h(self):
        # Each of two f objects with each of two g objects, twice over.
        h = expr.parse(self.H)
        fs = expr.parse(self.F), expr.parse("x/2")
        gs = expr.parse(self.G), expr.parse("y/2")
        for _ in range(2):
            for f, g in ((fs[0], gs[0]), (fs[0], gs[1]), (fs[1], gs[1]), (fs[1], gs[0])):
                got = same_as_grid_passes(f, g, h, (0.0, 1.0), 257)
                others, _ = f._kernels[analysis._RESIDUALS]
                assert others[0] is h and others[2] is g, got

    def test_pickled_h(self):
        f, g, h = expr.parse(self.F), expr.parse(self.G), expr.parse(self.H)
        want = same_as_grid_passes(f, g, h, (0.0, 1.0), 300)
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and copy._kernels == {} and h._kernels != {}
        assert same_as_grid_passes(f, g, copy, (0.0, 1.0), 300) == want
        assert f._kernels[analysis._RESIDUALS][0][0] is copy
        assert copy._kernels[analysis._MONOTONE][1] is not h._kernels[analysis._MONOTONE][1]


def test_grid_hoists_width_and_count():
    rng = random.Random(17)
    cases = [(-1e300, 1e300, 5), (-1.7e308, 1.7e308, 4), (5e-324, 1e-323, 7), (-3.0, -2.0, 2)]
    for _ in range(1000):
        scale = rng.choice((1e-300, 1e-10, 1.0, 1e10, 1e300))
        lo = rng.uniform(-1.0, 1.0) * scale
        cases.append((lo, lo + rng.uniform(0.0, 2.0) * rng.choice((scale, 1.0)),
                      rng.randint(2, 300)))
    for lo, hi, n in cases:
        old = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
        if all(map(math.isfinite, old)):
            assert list(map(repr, dynamics._grid(lo, hi, n))) == list(map(repr, old)), (lo, hi, n)
        else:
            # Only a grid whose width times its steps overflows.
            assert not math.isfinite((hi - lo) * (n - 1)), (lo, hi, n)
            with pytest.raises(dynamics.DomainValidationError, match="too wide"):
                dynamics._grid(lo, hi, n)


# ---------------------------------------------------------------------------
# The finiteness check

def two_pass_check_finite_on(fn, domain, label, n=dynamics._VALIDATION_GRID):
    """_check_finite_on as it was before its one loop: a pass over the grid
    list, then, where it fails or a value is not finite, a point loop that
    finds the first bad point.  The reference for the loop."""
    xs = dynamics._grid(*domain, n)
    try:
        vs = expr.evaluate_many(fn, xs)
        if all(map(math.isfinite, vs)):
            return vs
    except expr.EvalDomainError:
        pass
    for v in xs:
        try:
            out = expr.evaluate(fn, v)
        except expr.EvalDomainError as exc:
            raise dynamics.DomainValidationError(f"{label} invalid at {v!r}: {exc}") from exc
        if not math.isfinite(out):
            raise dynamics.DomainValidationError(f"{label} not finite at {v!r}")


class TestFiniteCheck:
    # On 11 points of [0, 1], exp(40*x)*1e300 is inf from x = 0.5 on, and
    # sqrt(c - x) fails from the first point past c.
    @pytest.mark.parametrize("src, domain, n, message", [
        ("exp(40*x)*1e300 + sqrt(0.9 - x)", (0.0, 1.0), 11, "f not finite at 0.5"),
        ("exp(40*x)*1e300 + sqrt(0.3 - x)", (0.0, 1.0), 11,
         "f invalid at 0.4: sqrt of negative value -0.10000000000000003 (node at offset 18)"),
        ("x*1e300*1e300 + sqrt(0.5 - x)", (-1.0, 1.0), 1024, "f not finite at -1.0"),
        ("x*1e300*1e300 + sqrt(x + 0.5)", (-1.0, 1.0), 1024,
         "f invalid at -1.0: sqrt of negative value -0.5 (node at offset 16)"),
        ("1/x", (-1.0, 1.0), 3, "f invalid at 0.0: division by zero (node at offset 1)"),
        ("x*1e300*1e300 - x*1e300*1e300", (0.5, 1.0), 2, "f not finite at 0.5"),
    ], ids=["inf-then-fail", "fail-then-inf", "inf-first", "fail-first", "pole", "nan"])
    def test_first_bad_point(self, src, domain, n, message):
        e = expr.parse(src)
        want = ("DomainValidationError", message)
        assert outcome(lambda: two_pass_check_finite_on(e, domain, "f", n)) == want
        assert outcome(lambda: dynamics._check_finite_on(e, domain, "f", n)) == want

    def test_random_expressions_and_domains(self):
        rng = random.Random(20261019)
        counts = {"values": 0, "invalid": 0, "not finite": 0}
        for _ in range(1500):
            e = expr.parse(gen_source(rng, 5, wide=True))
            lo = rng.choice((-2.0, -1.0, -1e-300, 0.0, 0.5, rng.uniform(-3.0, 3.0)))
            hi = lo + rng.choice((1e-300, 1e-9, 1.0, 3.0, 700.0))
            n = rng.choice((2, 3, 17, 256, 1024))
            got = outcome(lambda: dynamics._check_finite_on(e, (lo, hi), "phi", n))
            assert got == outcome(lambda: two_pass_check_finite_on(e, (lo, hi), "phi", n)), \
                (e.source, lo, hi, n)
            kind = "values" if isinstance(got, str) else got[1].split(" at ")[0][4:]
            counts[kind] += 1
        assert min(counts.values()) > 50, counts

    def test_grid_callers_compile_only_the_point_functions(self, monkeypatch):
        # make_system, the CLI's derived y_domain and the staircase curves
        # map the point functions over their grids: building a system
        # compiles f's and phi's, and nothing else compiles anything.
        compiled = []
        real = expr._define
        monkeypatch.setattr(expr, "_define", lambda template, *a: compiled.append(
            template) or real(template, *a))
        s = make_system("3.2*x*(1 - x)", "y + 0.1*sin(y)", (0.0, 1.0), (-1.0, 2.0))
        assert compiled == [expr._POINT, expr._POINT]
        f = expr.parse("3.2*x*(1 - x)")
        compiled.clear()
        y_domain = cli._derive_y_domain(f, (0.0, 1.0))
        assert compiled == []
        assert y_domain == (0.0, max(two_pass_check_finite_on(f, (0.0, 1.0), "f", 256)))
        o = dynamics.orbit(s, 0.3, 50)
        dynamics.find_fixed_points(s)  # compiles the scan and derivatives, kept
        compiled.clear()
        trace = render.staircase(s, o, 300)
        assert compiled == [] and len(trace.curve_f) == len(trace.curve_phi) == 300
