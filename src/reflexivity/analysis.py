"""Diagnostics on top of the engine: the distance between phi and the
inverse of f, periodic orbit detection, boom-then-bust detection, and
sampled conjugacy verification.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import ge, gt, lt, ne, sub

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
# The phi with which verify_conjugacy searches f's own fixed points.  One
# object, so that f's fixed-point scan is compiled once (see expr.kernel).
_IDENTITY = _expr.parse("y")


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


# _monotone_direction's scan: at the n - 1 points x = lo + w*k/m, k >= 1,
# of its grid (dynamics._grid's arithmetic after lo), from prev = f(lo),
# (sign, k) at the first step k that is flat, NaN or against the sign of
# the steps before it, and (sign, n) if f's values rise (sign 1) or fall
# (-1) strictly at every step.  A failing line raises, in point order.
_MONOTONE = """\
def compiled(lo, w, m, n, prev{params}):
    sign = 0
    for k in range(1, n):
        x = lo + w * k / m
        @f
        v = {f}
        if prev < v:
            if sign < 0:
                return sign, k
            sign = 1
        elif prev > v and sign <= 0:
            sign = -1
        else:
            return sign, k
        prev = v
    return sign, n
"""


def _monotone(f):
    """f's compiled monotonicity scan (_MONOTONE), kept by expr.kernel."""
    return _expr.kernel(_MONOTONE, {"f": (f, "x")}, {"range": range})


def _monotone_direction(f, lo, hi):
    """Sign of MONOTONE_DIFFS consecutive differences of the Expression f;
    raises on disagreement.

    f's compiled scan stops at the first pair that is not monotone (a
    difference v - u is positive exactly when u < v, and negative exactly
    when u > v) or at the first point that fails, whichever comes first."""
    prev = _expr.evaluate(f, lo)
    n = MONOTONE_DIFFS + 1
    w, m = _dyn._grid_span(lo, hi, n)
    sign, k = _monotone(f)(lo, w, m, n, prev)
    if k < n:
        prev_x = lo if k == 1 else lo + w * (k - 1) / m
        x = lo + w * k / m
        raise NonMonotoneError(f"not strictly monotone between {prev_x!r} and {x!r}",
                               x_pair=(prev_x, x))
    return "increasing" if sign > 0 else "decreasing"


def _invert(f, lo, hi, flo, fhi, y, x0=None):
    """(x, status) with x in [lo, hi] and |f(x) - y| <= INVERT_RTOL*max(1, |y|),
    for the Expression f, monotone with f(lo) = flo and f(hi) = fhi; Newton
    steps use its derivative.  status is bracket_solve's; on "discontinuity"
    y lies in a jump of f and x is where f jumps."""
    if not (min(flo, fhi) <= y <= max(flo, fhi)):
        raise OutOfRangeError(
            f"y={y!r} outside attained range [{min(flo, fhi)!r}, {max(flo, fhi)!r}]")
    # bracket_solve accepts |g| < tol; the next float up makes that <= INVERT_RTOL*...
    tol = math.nextafter(INVERT_RTOL * max(1.0, abs(y)), math.inf)
    x, status, _ = _dyn.bracket_solve(lambda t: _expr.evaluate(f, t) - y, lo, hi,
                                      flo - y, fhi - y, tol, x0,
                                      dg=lambda t: _expr.derivative(f, t))
    return x, status


def function_distance(s, samples=DEFAULT_SAMPLES):
    """max over a y-grid of |phi(y) - f^{-1}(y)|.

    The grid covers the image of f's domain endpoints intersected with the
    declared y_domain; a finite grid, so the result is a lower bound on the
    true supremum.  Each inversion starts from the previous grid point's.
    A y inside a jump of f counts with the x where f jumps, and the number
    of such samples is logged.  A sample whose distance is NaN counts for
    nothing, and the number of those is logged too; if every sample's is,
    d is NaN and argmax_y the lowest y.

    s's compiled sweep (_SWEEP) runs the whole grid in one call; a sample
    its inlined solve gives up on it inverts with _invert, which reports
    its status, warning or error.
    """
    if samples < 2:
        raise _dyn.PreconditionError("samples must be >= 2")
    lo, hi = s.x_domain
    direction = _monotone_direction(s.f, lo, hi)
    flo, fhi = _expr.evaluate(s.f, lo), _expr.evaluate(s.f, hi)
    y_lo = max(min(flo, fhi), s.y_domain[0])
    y_hi = min(max(flo, fhi), s.y_domain[1])
    if not (y_lo < y_hi):
        raise OutOfRangeError("image of f does not overlap y_domain")
    w, m = _dyn._grid_span(y_lo, y_hi, samples)

    def invert(y, inv):
        x, status = _invert(s.f, lo, hi, flo, fhi, y, inv)
        return x, status == "discontinuity"

    best, argmax, nans, jumps = _kernel(s)(y_lo, w, m, samples, lo, hi, flo, fhi, invert)
    if jumps:
        log.warning("function_distance: %d of %d samples lie in a jump of f; "
                    "each is inverted to where f jumps", jumps, samples)
    if nans:
        log.warning("function_distance: %d of %d samples have no finite distance",
                    nans, samples)
        if nans == samples:
            best = math.nan
    return DistanceReport(best, argmax, samples, direction)


# function_distance's sweep: _invert at the n points y = y_lo + w*k/m of
# its grid (dynamics._grid's arithmetic), each clamped to f's range, with
# _invert's range check and tolerance and bracket_solve's step rule inlined,
# and f's value and derivative from one pass of its dual lines.  Where that
# solve would end other than by |g| < tol (the bracket down to two adjacent
# floats, where bracket_solve tells a steep root from a jump, or the
# iteration cap), or a line of f fails, x is None and the sample goes to
# invert(y, inv), which returns _invert's x and whether y lies in a jump of
# f; it is called after the try, so its error carries none of the sweep's.
# It returns the largest distance, its y, the count of NaN distances and
# the count of samples in a jump; a failing line of phi raises.  Its grid
# points are finite and none lies below y_lo, which is not below f_min.
# Comparisons stand in for calls with the same result: -t < g < t for
# abs(g) < t, a conditional for max(1.0, abs(y)), and 0.0 - d for abs(d)
# when d is not > 0 (-0.0 included).
_SWEEP = """\
def compiled(y_lo, w, m, n, lo, hi, flo, fhi, invert{params}):
    f_max = max(flo, fhi)
    best = -1.0
    argmax = y_lo
    nans = 0
    jumps = 0
    inv = None
    for k in range(n):
        y = y_lo + w * k / m
        if f_max < y:
            y = f_max
        tol = nextafter(rtol * (y if y > 1.0 else -y if y < -1.0 else 1.0), inf)
        ntol = -tol
        ga = flo - y
        try:
            if ntol < ga < tol:
                x = lo
            elif ntol < fhi - y < tol:
                x = hi
            else:
                a = lo
                b = hi
                x = inv if inv is not None and a < inv < b else 0.5 * (a + b)
                step = step_old = b - a
                for _ in range(cap):
                    @f
                    v, slope = {f}
                    gx = v - y
                    if ntol < gx < tol:
                        break
                    if (gx > 0) == (ga > 0):
                        a = x
                        ga = gx
                    else:
                        b = x
                    mid = 0.5 * (a + b)
                    if not a < mid < b:
                        x = None
                        break
                    nxt = mid
                    if slope != 0.0:
                        newton = x - gx / slope
                        if a < newton < b and -step_old <= 2.0 * (newton - x) <= step_old:
                            nxt = newton
                    step_old = step
                    step = nxt - x if nxt >= x else x - nxt
                    x = nxt
                else:
                    x = None
        except numeric:
            x = None
        if x is None:
            x, jumped = invert(y, inv)
            jumps += jumped
        inv = x
        @phi
        diff = {phi} - x
        if not diff > 0.0:
            diff = 0.0 - diff
        if diff > best:
            best = diff
            argmax = y
        elif diff != diff:
            nans += 1
    return best, argmax, nans, jumps
"""


def _kernel(s):
    """s's compiled sweep (_SWEEP), kept by expr.kernel."""
    return _expr.kernel(_SWEEP, {"f": (s.f, "x"), "phi": (s.phi, "y")}, {
        "max": max, "range": range, "nextafter": math.nextafter, "inf": math.inf,
        "rtol": INVERT_RTOL, "cap": _dyn.SOLVE_MAX_ITER, "numeric": _expr._NUMERIC_ERRORS},
        dual=("f",))


def _diverged(x):
    return x != x or abs(x) > _dyn.DIVERGENCE_CUTOFF


def _iterates(gamma, x, n):
    """gamma(x), gamma(gamma(x)), ... (n values), ending after the first
    diverged one: orbit's xs after x, from the compiled loop of gamma's
    system with the convergence stop off.  The loop keeps each value before
    f runs on it, so where it fails short of n values and of divergence,
    its error is the one gamma meets at the next value.
    """
    s = gamma.system
    xs = []
    try:
        _dyn._loop(s)(x, _expr.evaluate(s.f, x), n, 0, 0, xs, [])
    except _expr.EvalDomainError:
        if len(xs) < n and not (xs and _diverged(xs[-1])):
            raise
    return xs


def detect_period(gamma, x0, max_period=DEFAULT_MAX_PERIOD, burn_in=0):
    """Minimal period of the orbit tail of gamma = compose_gamma(s) from
    x0, or None.  The iterates come from s's compiled orbit loop; a
    non-finite x0 raises OrbitNumericError at step 0, as orbit does."""
    if not isinstance(gamma, _dyn.Gamma):
        raise TypeError(f"detect_period takes compose_gamma(s), not {type(gamma).__name__}")
    if max_period < 1:
        raise _dyn.PreconditionError("max_period must be >= 1")
    if burn_in < 0:
        raise _dyn.PreconditionError("burn_in must be >= 0")
    iterates = [float(x0)]
    if not math.isfinite(iterates[0]):
        raise _dyn.OrbitNumericError(f"non-finite state x={iterates[0]!r}", 0)
    # n >= 2 values follow x0, and only the last can have diverged.
    iterates += _iterates(gamma, iterates[0], burn_in + 2 * max_period)
    if _diverged(iterates[-1]):
        return None
    iterates = iterates[burn_in:]
    p = iterates[0]
    tol = PERIOD_RTOL * max(1.0, abs(p))
    for n in range(1, max_period + 1):
        if abs(iterates[n] - p) <= tol:
            cycle = tuple(iterates[:n])
            residual = max(abs(iterates[k + n] - iterates[k]) for k in range(n))
            return PeriodReport(n, cycle, residual)
    return None


def detect_boom_bust(o, min_run=DEFAULT_MIN_RUN, retrace_threshold=DEFAULT_RETRACE_THRESHOLD):
    """Monotone run of >= min_run steps of the Orbit o's x column followed
    by a retrace of at least retrace_threshold times the run amplitude.
    Falling-then-rising events are reported with negated amplitude.

    A step whose difference is not positive or negative (flat, NaN) is in
    no run, and a run is maximal: the run after it starts where it ends.
    """
    if not isinstance(o, _dyn.Orbit):
        raise TypeError(f"detect_boom_bust takes an Orbit, not {type(o).__name__}")
    if not min_run >= 2:
        raise _dyn.PreconditionError("min_run must be >= 2")
    if not (0 < retrace_threshold <= 1):
        raise _dyn.PreconditionError("retrace_threshold must be in (0, 1]")
    xs = o.xs()
    nxt = xs[1:]
    # The sign of each step's difference b - a, which is > 0 exactly when
    # a < b and < 0 exactly when a > b: 0 for a flat or NaN step.
    signs = list(map(sub, map(lt, xs, nxt), map(gt, xs, nxt)))
    # Stretch k is steps bounds[k] to bounds[k + 1] - 1, all of one sign.
    m = len(signs)
    bounds = [0, *compress(range(1, m), map(ne, signs, signs[1:])), m]
    long_enough = map(ge, map(sub, bounds[1:], bounds), repeat(min_run))
    events = []
    # A run followed by a run; two stretches next to each other differ in
    # sign, so two runs there rise and fall.
    for k in compress(range(len(bounds) - 2), long_enough):
        i, j, end = bounds[k], bounds[k + 1], bounds[k + 2]
        if not (signs[i] and signs[j]):
            continue
        amplitude = xs[j] - xs[i]
        retrace = abs(xs[j] - xs[end])
        fraction = min(1.0, retrace / abs(amplitude))
        if fraction >= retrace_threshold:
            events.append(BoomBustEvent(i, j, end, amplitude, fraction))
    return events


# verify_conjugacy's residual: at each of the n points x = lo + w*k/m of its
# grid (dynamics._grid's arithmetic), h(f(x)) - g(h(x)) from the lines of f
# on x, of h on f's value, of h on x and of g on h's value, in that order, so
# that a failing x raises the error h(f(x)) meets first, as evaluating point
# by point does.  It keeps the first strict maximum of the residual's
# magnitude, where it lies, and the first x whose residual is NaN; best stays
# -1.0 if no residual is other than NaN.  0.0 - r stands in for abs(r) where
# r is not > 0 (-0.0 and NaN included).
_RESIDUALS = """\
def compiled(lo, w, m, n{params}):
    best = -1.0
    argmax = lo
    nan_x = None
    for k in range(n):
        x = lo + w * k / m
        @f
        fx = {f}
        @hf
        @h
        hx = {h}
        @gh
        r = {hf} - {gh}
        if not r > 0.0:
            r = 0.0 - r
        if r > best:
            best = r
            argmax = x
        elif r != r and nan_x is None:
            nan_x = x
    return best, argmax, nan_x
"""


def _residuals(f, g, h):
    """The compiled residual loop (_RESIDUALS) of f and g under h, kept by
    expr.kernel."""
    return _expr.kernel(_RESIDUALS, {
        "f": (f, "x"), "h": (h, "x"), "hf": (h, "fx"), "gh": (g, "hx")}, {"range": range})


def verify_conjugacy(f, g, h, interval, samples=DEFAULT_SAMPLES,
                     tol=CONJUGACY_TOL, fp_tol=CONJUGACY_FP_TOL):
    """Sampled check of h(f(x)) = g(h(x)) with h strictly monotone, on an
    interval (lo, hi) with lo < hi (DomainValidationError if not).

    A NaN residual is a violation: violation_x is the first such x unless a
    residual exceeds tol; max_residual is the largest residual that is not
    NaN, or NaN if every residual is.  Also verifies that images of f's
    fixed points are fixed under g; a NaN image residual is a violation too.

    The residuals come from one compiled loop (_RESIDUALS), which raises the
    error the first failing x meets.
    """
    if samples < 2:
        raise _dyn.PreconditionError("samples must be >= 2")
    if not (tol >= 0 and fp_tol >= 0):
        raise _dyn.PreconditionError("tol and fp_tol must be >= 0")
    lo, hi = interval
    _dyn._check_interval(lo, hi)
    _monotone_direction(h, lo, hi)  # homeomorphism proxy check

    w, m = _dyn._grid_span(lo, hi, samples)
    best, argmax, nan_x = _residuals(f, g, h)(lo, w, m, samples)
    max_residual = best if best >= 0.0 else math.nan
    violation_x = argmax if max_residual > tol else nan_x
    verdict = "consistent" if violation_x is None else "violated"

    fixed_points, _ = _dyn.find_map_fixed_points(f, _IDENTITY, lo, hi, grid_n=1024)
    checked = 0
    for x_bar in fixed_points:
        hx = _expr.evaluate(h, x_bar)
        if not abs(_expr.evaluate(g, hx) - hx) <= fp_tol:
            verdict = "violated"
            if violation_x is None:
                violation_x = x_bar
        checked += 1
    return ConjugacyReport(max_residual, checked, verdict, violation_x)
