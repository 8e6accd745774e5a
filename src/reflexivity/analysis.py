"""Diagnostics on top of the engine: numerical inversion, the distance
between phi and the inverse of f, periodic/recurrent orbit detection,
boom-then-bust detection, and sampled conjugacy verification.
"""

from __future__ import annotations

import math

from . import dynamics as _dyn
from . import expr as _expr

log = _expr.LazyLogger(__name__)

MONOTONE_DIFFS = 1024
INVERT_RTOL = 1e-12
PERIOD_RTOL = 1e-8
CONJUGACY_TOL = 1e-9
CONJUGACY_FP_TOL = 1e-8
DEFAULT_SAMPLES = 4096
DEFAULT_MIN_RUN = 5
DEFAULT_RETRACE_THRESHOLD = 0.5
DEFAULT_MAX_PERIOD = 32


class AnalysisError(Exception):
    pass


class NonMonotoneError(AnalysisError):
    """The sampled function is not strictly monotone on the interval."""

    def __init__(self, message, x_pair=None):
        super().__init__(message)
        self.x_pair = x_pair


class OutOfRangeError(AnalysisError):
    """Requested value lies outside the attained range."""


@_expr.record
class DistanceReport:
    d: float
    argmax_y: float
    samples: int
    monotone_direction: str  # "increasing" | "decreasing"


@_expr.record
class PeriodReport:
    period: int
    cycle: tuple
    residual: float


@_expr.record
class BoomBustEvent:
    rise_start: int
    peak: int
    reversal_end: int
    amplitude: float  # negative for a falling-then-rising event
    retrace_fraction: float


@_expr.record
class ConjugacyReport:
    max_residual: float
    fixed_point_images_checked: int
    verdict: str  # "consistent" | "violated"
    violation_x: float | None = None


def _grid_values(f, xs):
    """Iterator over f(x) for the floats xs, f an Expression or a callable.

    An Expression runs as one evaluate_many pass.  If a point fails there,
    or f is a plain callable, each value is computed as the iterator reaches
    it, so a caller's check that fails at an earlier point still comes first.
    """
    if isinstance(f, _expr.Expression):
        try:
            return iter(_expr.evaluate_many(f, xs))
        except _expr.EvalDomainError:
            return (_expr.evaluate(f, x) for x in xs)
    return map(f, xs)


def _monotone_direction(f, lo, hi):
    """Sign of MONOTONE_DIFFS consecutive differences of f (an Expression or
    a plain callable); raises on disagreement."""
    fn, _ = _evaluator(f)
    prev_x, prev_v = lo, fn(lo)
    xs = _dyn._grid(lo, hi, MONOTONE_DIFFS + 1)[1:]
    direction = 0
    for x, v in zip(xs, _grid_values(f, xs)):
        d = v - prev_v
        sign = 1 if d > 0 else (-1 if d < 0 else 0)
        if sign == 0 or (direction and sign != direction):
            raise NonMonotoneError(
                f"not strictly monotone between {prev_x!r} and {x!r}",
                x_pair=(prev_x, x),
            )
        direction = sign
        prev_x, prev_v = x, v
    return "increasing" if direction > 0 else "decreasing"


def _invert(fn, dfn, lo, hi, flo, fhi, y, rtol, x0=None):
    """(x, status) with x in [lo, hi] and |fn(x) - y| <= rtol*max(1, |y|),
    for monotone fn with fn(lo) = flo and fn(hi) = fhi; Newton steps use dfn
    unless None.  status is bracket_solve's; on "discontinuity" y lies in a
    jump of fn and x is where fn jumps."""
    if not (min(flo, fhi) <= y <= max(flo, fhi)):
        raise OutOfRangeError(
            f"y={y!r} outside attained range [{min(flo, fhi)!r}, {max(flo, fhi)!r}]")
    # bracket_solve accepts |g| < tol; the next float up makes that <= rtol*...
    tol = math.nextafter(rtol * max(1.0, abs(y)), math.inf)
    x, status, _ = _dyn.bracket_solve(lambda t: fn(t) - y, lo, hi, flo - y, fhi - y,
                                      tol, x0, dfn)
    return x, status


def _evaluator(f):
    """(value, derivative) callables for an Expression or a plain callable."""
    if isinstance(f, _expr.Expression):
        return (lambda x: _expr.evaluate(f, x)), (lambda x: _expr.derivative(f, x))
    return f, None


def invert_numeric(f, interval, y, rtol=INVERT_RTOL):
    """Solve f(x) = y on the interval (f strictly monotone).

    Safeguarded Newton steps on an Expression's exact derivative, plain
    bisection for any other callable; see dynamics.bracket_solve.  Raises
    OutOfRangeError when y lies outside f's range on the interval.  For y
    inside a jump of an Expression f, returns where f jumps and logs a
    warning; a plain callable gives the same x without the warning.
    """
    lo, hi = interval
    fn, dfn = _evaluator(f)
    _monotone_direction(f, lo, hi)
    x, status = _invert(fn, dfn, lo, hi, fn(lo), fn(hi), y, rtol)
    if status == "discontinuity":
        log.warning("inversion: y=%r is not attained, f jumps across it at x=%r", y, x)
    return x


def function_distance(s, samples=DEFAULT_SAMPLES):
    """max over a y-grid of |phi(y) - f^{-1}(y)|.

    The grid covers the image of f's domain endpoints intersected with the
    declared y_domain; a finite grid, so the result is a lower bound on the
    true supremum.  Each inversion starts from the previous grid point's.
    A y inside a jump of f counts with the x where f jumps, and the number
    of such samples is logged.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lo, hi = s.x_domain
    fn, dfn = _evaluator(s.f)
    direction = _monotone_direction(s.f, lo, hi)
    flo, fhi = fn(lo), fn(hi)
    f_min, f_max = min(flo, fhi), max(flo, fhi)
    y_lo = max(f_min, s.y_domain[0])
    y_hi = min(f_max, s.y_domain[1])
    if not (y_lo < y_hi):
        raise OutOfRangeError("image of f does not overlap y_domain")
    # The top grid point can round one ulp past f's attained range.
    ys = [min(max(y, f_min), f_max) for y in _dyn._grid(y_lo, y_hi, samples)]
    phis = _grid_values(s.phi, ys)
    best = -1.0
    argmax = y_lo
    inv = None
    jumps = 0
    for y in ys:
        inv, status = _invert(fn, dfn, lo, hi, flo, fhi, y, INVERT_RTOL, inv)
        jumps += status == "discontinuity"
        diff = abs(next(phis) - inv)
        if diff > best:
            best = diff
            argmax = y
    if jumps:
        log.warning("function_distance: %d of %d samples lie in a jump of f; "
                    "each is inverted to where f jumps", jumps, samples)
    return DistanceReport(best, argmax, samples, direction)


def _diverged(x):
    return x != x or abs(x) > _dyn.DIVERGENCE_CUTOFF


def _iterates(map_fn, x, n):
    """Iterator over map_fn(x), map_fn(map_fn(x)), ... (n values); it may
    end after the first diverged one.

    A compose_gamma map runs its system's compiled loop.  Any other map, or
    a loop that fails, is stepped as the iterator advances, so an error
    comes at the step that meets it and a caller that stops early meets
    none after.
    """
    if isinstance(map_fn, _dyn.ScalarMap) and map_fn._iterate is not None:
        xs = map_fn._iterate(x, n)
        if xs is not None:
            return iter(xs)
    return _stepped(map_fn, x, n)


def _stepped(map_fn, x, n):
    for _ in range(n):
        x = map_fn(x)
        yield x


def detect_period(map_fn, x0, max_period=DEFAULT_MAX_PERIOD, burn_in=0):
    """Minimal period of the orbit tail of map_fn from x0, or None."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    iterates = [float(x0)]
    for x in _iterates(map_fn, iterates[0], burn_in + 2 * max_period):
        if _diverged(x):
            return None
        iterates.append(x)
    iterates = iterates[burn_in:]
    p = iterates[0]
    tol = PERIOD_RTOL * max(1.0, abs(p))
    for n in range(1, max_period + 1):
        if abs(iterates[n] - p) <= tol:
            cycle = tuple(iterates[:n])
            residual = max(abs(iterates[k + n] - iterates[k]) for k in range(n))
            return PeriodReport(n, cycle, residual)
    return None


def detect_recurrence(map_fn, p, radius, horizon):
    """Smallest n with 1 < n <= horizon and |map^n(p) - p| < radius, or None."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    for n, x in enumerate(_iterates(map_fn, float(p), horizon), 1):
        if _diverged(x):
            return None
        if n > 1 and abs(x - p) < radius:
            return n
    return None


def _monotone_runs(xs):
    """Maximal strictly monotone runs as (sign, start, end) index triples.
    A step whose difference is not positive or negative (flat, NaN) is in
    no run."""
    runs = []
    sign = start = i = 0
    for a, b in zip(xs, xs[1:]):
        d = b - a
        s = 1 if d > 0 else (-1 if d < 0 else 0)
        if s != sign:
            if sign:
                runs.append((sign, start, i))
            sign, start = s, i
        i += 1
    if sign:
        runs.append((sign, start, len(xs) - 1))
    return runs


def detect_boom_bust(o, min_run=DEFAULT_MIN_RUN, retrace_threshold=DEFAULT_RETRACE_THRESHOLD):
    """Monotone run of >= min_run steps followed by a retrace of at least
    retrace_threshold times the run amplitude.  Falling-then-rising events
    are reported with negated amplitude.
    """
    if min_run < 2:
        raise ValueError("min_run must be >= 2")
    if not (0 < retrace_threshold <= 1):
        raise ValueError("retrace_threshold must be in (0, 1]")
    xs = o.xs() if hasattr(o, "xs") else list(o)
    events = []
    runs = _monotone_runs(xs)
    for run, nxt in zip(runs, runs[1:]):
        sign, i, j = run
        nsign, nstart, nend = nxt
        if j - i < min_run or nstart != j or nsign != -sign:
            continue
        amplitude = xs[j] - xs[i]
        retrace = abs(xs[j] - xs[nend])
        fraction = min(1.0, retrace / abs(amplitude))
        if fraction >= retrace_threshold:
            events.append(BoomBustEvent(i, j, nend, amplitude, fraction))
    return events


def verify_conjugacy(f, g, h, interval, samples=DEFAULT_SAMPLES,
                     tol=CONJUGACY_TOL, fp_tol=CONJUGACY_FP_TOL):
    """Sampled check of h(f(x)) = g(h(x)) with h strictly monotone.

    A NaN residual is a violation: violation_x is the first such x unless a
    residual exceeds tol; max_residual is the largest residual that is not
    NaN, or NaN if every residual is.  Also verifies that images of f's
    fixed points are fixed under g.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lo, hi = interval
    h_fn = lambda x: _expr.evaluate(h, x)
    f_fn = lambda x: _expr.evaluate(f, x)
    g_fn = lambda x: _expr.evaluate(g, x)
    _monotone_direction(h, lo, hi)  # homeomorphism proxy check

    xs = _dyn._grid(lo, hi, samples)
    try:
        sides = zip(_expr.evaluate_many(h, _expr.evaluate_many(f, xs)),
                    _expr.evaluate_many(g, _expr.evaluate_many(h, xs)))
    except _expr.EvalDomainError:
        # Point by point, so the error is the one the first failing x meets.
        sides = ((h_fn(f_fn(x)), g_fn(h_fn(x))) for x in xs)
    max_residual = math.nan  # until a residual is not NaN
    argmax = lo
    nan_x = None  # the first x with a NaN residual
    for x, (hf, gh) in zip(xs, sides):
        r = abs(hf - gh)
        if not r <= max_residual:  # also true for NaN
            if r == r:
                max_residual = r
                argmax = x
            elif nan_x is None:
                nan_x = x
    violation_x = argmax if max_residual > tol else nan_x
    verdict = "consistent" if violation_x is None else "violated"

    f_map = _dyn.ScalarMap(f_fn, lambda x: _expr.derivative(f, x),
                           lambda xs: _expr.evaluate_many(f, xs))
    fixed_points, _ = _dyn.find_map_fixed_points(f_map, lo, hi, grid_n=1024)
    checked = 0
    for x_bar in fixed_points:
        hx = h_fn(x_bar)
        if abs(g_fn(hx) - hx) > fp_tol:
            verdict = "violated"
            if violation_x is None:
                violation_x = x_bar
        checked += 1
    return ConjugacyReport(max_residual, checked, verdict, violation_x)
