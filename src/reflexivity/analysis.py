"""Diagnostics on top of the engine: numerical inversion, the distance
between phi and the inverse of f, periodic/recurrent orbit detection,
boom-then-bust detection, and sampled conjugacy verification.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dynamics as _dyn
from . import expr as _expr

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


@dataclass(frozen=True)
class DistanceReport:
    d: float
    argmax_y: float
    samples: int
    monotone_direction: str  # "increasing" | "decreasing"


@dataclass(frozen=True)
class PeriodReport:
    period: int
    cycle: tuple
    residual: float


@dataclass(frozen=True)
class BoomBustEvent:
    rise_start: int
    peak: int
    reversal_end: int
    amplitude: float  # negative for a falling-then-rising event
    retrace_fraction: float


@dataclass(frozen=True)
class ConjugacyReport:
    max_residual: float
    fixed_point_images_checked: int
    verdict: str  # "consistent" | "violated"
    violation_x: float | None = None


def _monotone_direction(fn, lo, hi):
    """Sign of MONOTONE_DIFFS consecutive differences; raises on disagreement."""
    n = MONOTONE_DIFFS + 1
    prev_x = lo
    prev_v = fn(lo)
    direction = 0
    for k in range(1, n):
        x = lo + (hi - lo) * k / (n - 1)
        v = fn(x)
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


def _bisect_invert(fn, lo, hi, y, increasing, rtol):
    y_min, y_max = (fn(lo), fn(hi)) if increasing else (fn(hi), fn(lo))
    if not (y_min <= y <= y_max):
        raise OutOfRangeError(f"y={y!r} outside attained range [{y_min!r}, {y_max!r}]")
    a, b = lo, hi
    mid = 0.5 * (a + b)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if abs(fm - y) <= rtol * max(1.0, abs(y)):
            return mid
        if (fm < y) == increasing:
            a = mid
        else:
            b = mid
    return mid


def invert_numeric(f, interval, y, rtol=INVERT_RTOL):
    """Solve f(x) = y on the interval by bisection (f strictly monotone)."""
    lo, hi = interval
    fn = (lambda x: _expr.evaluate(f, x)) if isinstance(f, _expr.Expression) else f
    direction = _monotone_direction(fn, lo, hi)
    return _bisect_invert(fn, lo, hi, y, direction == "increasing", rtol)


def function_distance(s, samples=DEFAULT_SAMPLES):
    """max over a y-grid of |phi(y) - f^{-1}(y)|.

    The grid covers the image of f's domain endpoints intersected with the
    declared y_domain; a finite grid, so the result is a lower bound on the
    true supremum.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lo, hi = s.x_domain
    fn = lambda x: _expr.evaluate(s.f, x)
    direction = _monotone_direction(fn, lo, hi)
    flo, fhi = fn(lo), fn(hi)
    f_min, f_max = min(flo, fhi), max(flo, fhi)
    y_lo = max(f_min, s.y_domain[0])
    y_hi = min(f_max, s.y_domain[1])
    if not (y_lo < y_hi):
        raise OutOfRangeError("image of f does not overlap y_domain")
    increasing = direction == "increasing"
    best = -1.0
    argmax = y_lo
    for k in range(samples):
        y = y_lo + (y_hi - y_lo) * k / (samples - 1)
        # The top grid point can round one ulp past f's attained range.
        y = min(max(y, f_min), f_max)
        inv = _bisect_invert(fn, lo, hi, y, increasing, INVERT_RTOL)
        diff = abs(_expr.evaluate(s.phi, y) - inv)
        if diff > best:
            best = diff
            argmax = y
    return DistanceReport(best, argmax, samples, direction)


def _diverged(x):
    return x != x or abs(x) > _dyn.DIVERGENCE_CUTOFF


def detect_period(map_fn, x0, max_period=DEFAULT_MAX_PERIOD, burn_in=0):
    """Minimal period of the orbit tail of map_fn from x0, or None."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    p = float(x0)
    for _ in range(burn_in):
        p = map_fn(p)
        if _diverged(p):
            return None
    iterates = [p]
    for _ in range(2 * max_period):
        nxt = map_fn(iterates[-1])
        if _diverged(nxt):
            return None
        iterates.append(nxt)
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
    x = float(p)
    for n in range(1, horizon + 1):
        x = map_fn(x)
        if _diverged(x):
            return None
        if n > 1 and abs(x - p) < radius:
            return n
    return None


def _monotone_runs(xs):
    """Maximal strictly monotone runs as (sign, start, end) index triples."""
    runs = []
    i = 0
    n = len(xs)
    while i < n - 1:
        d = xs[i + 1] - xs[i]
        sign = 1 if d > 0 else (-1 if d < 0 else 0)
        if sign == 0:
            i += 1
            continue
        j = i + 1
        while j < n - 1:
            d = xs[j + 1] - xs[j]
            s = 1 if d > 0 else (-1 if d < 0 else 0)
            if s != sign:
                break
            j += 1
        runs.append((sign, i, j))
        i = j
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

    Also verifies that images of f's fixed points are fixed under g.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lo, hi = interval
    h_fn = lambda x: _expr.evaluate(h, x)
    f_fn = lambda x: _expr.evaluate(f, x)
    g_fn = lambda x: _expr.evaluate(g, x)
    _monotone_direction(h_fn, lo, hi)  # homeomorphism proxy check

    max_residual = -1.0
    argmax = lo
    for k in range(samples):
        x = lo + (hi - lo) * k / (samples - 1)
        r = abs(h_fn(f_fn(x)) - g_fn(h_fn(x)))
        if r > max_residual:
            max_residual = r
            argmax = x
    verdict = "consistent" if max_residual <= tol else "violated"
    violation_x = None if verdict == "consistent" else argmax

    fixed_points, _ = _dyn.find_map_fixed_points(f_fn, lo, hi, grid_n=1024)
    checked = 0
    for x_bar in fixed_points:
        hx = h_fn(x_bar)
        if abs(g_fn(hx) - hx) > fp_tol:
            verdict = "violated"
            if violation_x is None:
                violation_x = x_bar
        checked += 1
    return ConjugacyReport(max_residual, checked, verdict, violation_x)
