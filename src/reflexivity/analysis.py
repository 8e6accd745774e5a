"""Diagnostics on top of the engine: the distance between phi and the
inverse of f, periodic orbit detection, boom-then-bust detection, and
sampled conjugacy verification.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import gt, lt

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
    d: float  # the largest sampled |phi(y) - f^-1(y)|: a lower bound on the supremum
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


def function_distance(s, samples=DEFAULT_SAMPLES):
    """max over a y-grid of |phi(y) - f^{-1}(y)|.

    The grid covers the image of f's domain endpoints intersected with the
    declared y_domain; a finite grid, so the result is a lower bound on the
    true supremum.  Each inversion starts from the previous grid point's.
    A y inside a jump of f counts with the x where f jumps, and the number
    of such samples is logged.  A sample whose distance is NaN counts for
    nothing, and the number of those is logged too; if every sample's is,
    d is NaN and argmax_y the lowest y.

    s's compiled sweep (_SWEEP) runs the whole grid in one call, and solves
    every sample itself with the safeguarded Newton solve of
    dynamics._SOLVE; a failing line of f or phi raises its error.
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
    best, argmax, nans, jumps = _kernel(s)(y_lo, w, m, samples, lo, hi, flo, fhi)
    if jumps:
        log.warning("function_distance: %d of %d samples lie in a jump of f; "
                    "each is inverted to where f jumps", jumps, samples)
    if nans:
        log.warning("function_distance: %d of %d samples have no finite distance",
                    nans, samples)
        if nans == samples:
            best = math.nan
    return DistanceReport(best, argmax, samples, direction)


# function_distance's sweep: at each of the n points y = y_lo + w*k/m of its
# grid (dynamics._grid's arithmetic), clamped to f's range, the root x of
# f(x) - y on [lo, hi] by dynamics._SOLVE, from the previous sample's x, with
# f's value lines for g and its derivative lines for a Newton step; then
# |phi(y) - x|.  tol is the float above INVERT_RTOL*max(1, |y|), so that
# |g| < tol is |f(x) - y| <= INVERT_RTOL*max(1, |y|).  It returns the largest
# distance, its y, the count of NaN distances and the count of samples in a
# jump of f (status 1); a failing line of f or phi raises.  Comparisons stand
# in for calls with the same result: a conditional for max(1.0, abs(y)), and
# 0.0 - d for abs(d) when d is not > 0 (-0.0 included).
_SWEEP = _dyn._solver("""\
def compiled(y_lo, w, m, n, lo, hi, flo, fhi{params}):
    f_max = max(flo, fhi)
    best = -1.0
    argmax = y_lo
    nans = 0
    jumps = 0
    x = lo
    for k in range(n):
        y = y_lo + w * k / m
        if f_max < y:
            y = f_max
        tol = nextafter(rtol * (y if y > 1.0 else -y if y < -1.0 else 1.0), inf)
        ntol = -tol
        a, b = lo, hi
        ga, gb = flo - y, fhi - y
        x0 = x
        @SOLVE
        if status == 1:
            jumps += 1
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
""", d="""\
@df
slope = {df}
""", v="""\
@f
gx = {f} - y
""")


def _kernel(s):
    """s's compiled sweep (_SWEEP), kept by expr.kernel."""
    return _expr.kernel(_SWEEP, {"f": (s.f, "x"), "phi": (s.phi, "y")}, {
        **_dyn._solve_env(), "max": max, "nextafter": math.nextafter, "inf": math.inf,
        "rtol": INVERT_RTOL}, dual=("f",))


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


def _falls(xs, a, b):
    """1 where step k of xs falls (xs[k] > xs[k + 1]), else 0, for the steps
    k = a, ..., b - 1."""
    return bytes(map(gt, xs[a:b], xs[a + 1:b + 1]))


def _runs(column, v, n):
    """(start, end) of each maximal run of n or more bytes v (0 or 1) in the
    0/1 column that ends before the column does, found with bytes.find."""
    run = bytes((v,)) * n
    i = column.find(run)
    while i >= 0:
        j = column.find(1 - v, i + n)
        if j < 0:
            return
        yield i, j
        i = column.find(run, j)


def detect_boom_bust(o, min_run=DEFAULT_MIN_RUN, retrace_threshold=DEFAULT_RETRACE_THRESHOLD):
    """Monotone run of >= min_run steps of the Orbit o's x column followed
    by a retrace of at least retrace_threshold times the run amplitude.
    Falling-then-rising events are reported with negated amplitude.

    A step whose difference is not positive or negative (flat, NaN) is in
    no run, and a run is maximal: the run after it starts where it ends.
    The runs are found in one byte per step, 1 where the step rises; a
    step is tested for a fall only after a long rising run or inside a long
    stretch without a rise.
    """
    if not isinstance(o, _dyn.Orbit):
        raise TypeError(f"detect_boom_bust takes an Orbit, not {type(o).__name__}")
    if not min_run >= 2:
        raise _dyn.PreconditionError("min_run must be >= 2")
    if not (0 < retrace_threshold <= 1):
        raise _dyn.PreconditionError("retrace_threshold must be in (0, 1]")
    xs = o._x_column()
    m = len(xs) - 1
    if not min_run <= m:
        return []
    n = math.ceil(min_run)  # a run of min_run steps or more has n or more
    # Step k rises (a < b) where ups[k] is 1.  A step that falls (a > b) is 0
    # there, as is a flat or NaN one, so a falling run of n steps lies in a
    # run of n or more 0s.
    ups = bytes(map(lt, xs, islice(xs, 1, None)))
    triples = []
    # A rising run, and the falling stretch that starts where it ends.
    for i, j in _runs(ups, 1, n):
        z = ups.find(1, j)
        falls = _falls(xs, j, m if z < 0 else z)
        if falls[0]:
            end = falls.find(0)
            triples.append((i, j, j + len(falls) if end < 0 else j + end))
    # A falling run, and the rising stretch that starts where it ends: a run
    # of 0s ends at a rise, so the falling run is the run of 0s' last stretch.
    for a, j in _runs(ups, 0, n):
        i = a + _falls(xs, a, j).rfind(0) + 1
        if j - i >= n:
            end = ups.find(0, j)
            triples.append((i, j, m if end < 0 else end))
    events = []
    for i, j, end in sorted(triples):
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
