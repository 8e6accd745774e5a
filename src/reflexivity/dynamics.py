"""Coupled-system engine: iteration of the pair y = f(x), x = phi(y),
composite maps, fixed-point location, and stability classification.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from operator import attrgetter

from . import expr as _expr

log = _expr.LazyLogger(__name__)

DIVERGENCE_CUTOFF = 1e12
CONVERGENCE_RTOL = 1e-13
CONVERGENCE_WINDOW = 3
STABILITY_BAND = 1e-6  # half-width of the "marginal" band around |multiplier| = 1
ROOT_TOL = 1e-12
PROP1_TOL = 1e-9
SOLVE_MAX_ITER = 200
DEDUP_RADIUS_FACTOR = 1e-9
DEFAULT_GRID = 4096
_VALIDATION_GRID = 1024


class DynamicsError(Exception):
    pass


class DomainValidationError(DynamicsError):
    """A declared domain is degenerate or a function is not finite on it."""


class OrbitNumericError(DynamicsError):
    """Numeric failure during iteration; carries the step index."""

    def __init__(self, message, step):
        super().__init__(f"{message} (step {step})")
        self.step = step


class PreconditionError(DynamicsError, ValueError):
    """An argument the function does not accept (a ValueError too)."""


def _grid_span(lo, hi, n):
    """(hi - lo, n - 1) for an n-point grid on [lo, hi]; DomainValidationError
    where their product, and so a grid point, is not finite."""
    w, m = hi - lo, n - 1
    if not math.isfinite(w * m):
        raise DomainValidationError(f"[{lo}, {hi}] is too wide for a grid of {n} points")
    return w, m


def _grid(lo, hi, n):
    """n evenly spaced points from lo to hi, both included."""
    w, m = _grid_span(lo, hi, n)
    return [lo + w * k / m for k in range(n)]


@_expr.record
class ReflexiveSystem:
    """The pair (f, phi) with their declared closed domains.

    Building one checks that f and phi are finite at _VALIDATION_GRID evenly
    spaced points of their domains only: a pole between two of those points
    passes the check.
    """

    f: _expr.Expression
    phi: _expr.Expression
    x_domain: tuple
    y_domain: tuple

    def __post_init__(self):
        _check_interval(*self.x_domain, "x_domain")
        _check_interval(*self.y_domain, "y_domain")
        _check_finite_on(self.f, self.x_domain, "f")
        _check_finite_on(self.phi, self.y_domain, "phi")


def _check_interval(lo, hi, name="interval"):
    """Raise unless lo < hi, both finite: a reversed, empty, NaN or
    unbounded interval."""
    if not lo < hi:
        raise DomainValidationError(f"{name} is degenerate: [{lo}, {hi}]")
    if not -math.inf < lo < hi < math.inf:
        raise DomainValidationError(f"{name} is not finite: [{lo}, {hi}]")


def _check_finite_on(fn, domain, label, n=_VALIDATION_GRID):
    """fn's values at n evenly spaced points of domain, from its point
    function; DomainValidationError at the first point where fn fails or
    its value is not finite."""
    value = fn._value
    vs = []
    for v in _grid(*domain, n):
        try:
            out = value(v)
        except _expr.EvalDomainError as exc:
            raise DomainValidationError(f"{label} invalid at {v!r}: {exc}") from exc
        if not math.isfinite(out):
            raise DomainValidationError(f"{label} not finite at {v!r}")
        vs.append(out)
    return vs


def make_system(f_source, phi_source, x_domain, y_domain):
    """Parse both function sources and build a validated system."""
    return ReflexiveSystem(
        _expr.parse(f_source), _expr.parse(phi_source),
        (float(x_domain[0]), float(x_domain[1])),
        (float(y_domain[0]), float(y_domain[1])),
    )


@_expr.record
class SystemState:
    x: float
    y: float
    index: int


@_expr.record
class Orbit:
    states: tuple
    terminated_by: str  # "step-budget" | "divergence" | "convergence"
    # The x and y columns of states, kept by orbit; None in any other
    # orbit, whose columns come from states.
    _xs: list = _expr.field(init=False, default=None)
    _ys: list = _expr.field(init=False, default=None)

    def xs(self):
        xs = self._x_column()
        return xs.copy() if xs is self._xs else xs

    def _x_column(self):
        """The x column: orbit's own list where it kept one, so not to be
        changed; else built from states."""
        xs = self._xs
        return list(map(attrgetter("x"), self.states)) if xs is None else xs

    def ys(self):
        ys = self._ys
        return list(map(attrgetter("y"), self.states)) if ys is None else ys.copy()


@_expr.record
class FixedPoint:
    x_bar: float
    y_bar: float
    residual_f: float
    residual_phi: float
    multiplier: float  # NaN where f' or phi' fails (no derivative, or out of range)
    stability: str  # "attracting" | "repelling" | "marginal" | "undetermined" (NaN)


@_expr.record
class Prop1Report:
    residual_gamma: float
    residual_phi_map: float


@_expr.record
class Gamma:
    """The composite map x -> phi(f(x)) of system."""

    system: ReflexiveSystem

    def __call__(self, x):
        s = self.system
        return _expr.evaluate(s.phi, _expr.evaluate(s.f, x))


def step(s, st):
    """Advance one full loop: x' = phi(f(x)), y' = f(x').

    Trusts its input: st.y must equal f(st.x), as it does in every state
    that orbit and step build, so f(x) is not evaluated again.
    """
    if not math.isfinite(st.x):
        raise OrbitNumericError(f"non-finite state x={st.x!r}", st.index)
    x_next = _expr.evaluate(s.phi, st.y)
    y_next = _expr.evaluate(s.f, x_next)
    return SystemState(x_next, y_next, st.index + 1)


# The loop of orbit and of analysis.detect_period's iterates: from the state
# (x, y), up to n steps of x' = phi(y), y' = f(x'), appended to the caller's
# lists xs and ys, with orbit's divergence and convergence stops, streak
# counting the converging steps before (x, y).  It returns the tag; window=0
# turns the convergence stop off.  Each x' is kept before f's lines run, so
# where a line fails, len(ys) is the failing step's index, and xs ends in
# that step's x' if the line is f's.  Comparisons stand in for orbit's calls
# with the same result: `not -cutoff <= x <= cutoff` for its divergence test
# (`not isfinite(x) or abs(x) > DIVERGENCE_CUTOFF`), a conditional for
# max(1.0, abs(p)), and -t < x - p < t for abs(x - p) < t.
_LOOP = """\
def compiled(x, y, n, streak, window, xs, ys{params}):
    append_x = xs.append
    append_y = ys.append
    for _ in range(n):
        p = x
        @phi
        x = {phi}
        append_x(x)
        @f
        y = {f}
        append_y(y)
        if not -cutoff <= x <= cutoff:
            return "divergence"
        if not window:
            continue
        t = rtol * (p if p > 1.0 else -p if p < -1.0 else 1.0)
        if -t < x - p < t:
            streak += 1
            if streak >= window:
                return "convergence"
        else:
            streak = 0
    return "step-budget"
"""


def _loop(s):
    """s's compiled loop (_LOOP), kept by expr.kernel on s.f, as every
    kernel of s is: s.phi then holds no reference back to s.f."""
    return _expr.kernel(_LOOP, {"f": (s.f, "x"), "phi": (s.phi, "y")}, {
        "range": range, "cutoff": DIVERGENCE_CUTOFF, "rtol": CONVERGENCE_RTOL})


def orbit(s, x0, max_steps):
    """Iterate from (x0, f(x0)); stops early on divergence or convergence.

    A non-finite x0 raises at step 0, as step does, before f runs.  The
    first step is step's; s's compiled loop takes the rest, with the same
    arithmetic.  The orbit keeps its x and y columns.  A failing step
    raises with len(ys), that step's index.
    """
    if max_steps < 1:
        raise PreconditionError("max_steps must be >= 1")
    x = float(x0)
    if not math.isfinite(x):
        raise OrbitNumericError(f"non-finite state x={x!r}", 0)
    xs, ys = [x], []
    try:
        ys.append(_expr.evaluate(s.f, x))
        first = step(s, SystemState(x, ys[0], 0))
        xs.append(first.x)
        ys.append(first.y)
        tag = "step-budget" if -DIVERGENCE_CUTOFF <= first.x <= DIVERGENCE_CUTOFF else "divergence"
        if tag == "step-budget" and max_steps > 1:
            streak = int(abs(first.x - x) < CONVERGENCE_RTOL * max(1.0, abs(x)))
            tag = _loop(s)(first.x, first.y, max_steps - 1, streak, CONVERGENCE_WINDOW,
                           xs, ys)
    except _expr.EvalDomainError as exc:
        raise OrbitNumericError(str(exc), len(ys)) from exc
    # Built in C: tuple.__new__ fills each state from zip's triple.
    o = Orbit(tuple(map(tuple.__new__, repeat(SystemState), zip(xs, ys, range(len(xs))))), tag)
    object.__setattr__(o, "_xs", xs)
    object.__setattr__(o, "_ys", ys)
    return o


def compose_gamma(s):
    """The composite map x -> phi(f(x)) of the system s: a Gamma, which
    analysis.detect_period iterates in s's compiled loop."""
    return Gamma(s)


# The one bracketing root solver: the safeguarded Newton solve of Numerical
# Recipes' rtsafe, as lines that _solver splices into the fixed-point solve
# (_ROOT) and analysis' distance sweep.  On [a, b], where g's values ga and
# gb differ in sign, from x0 (the midpoint if x0 is not inside), each step is
# a Newton step, or a bisection where that leaves the bracket, is not at
# least half as long as the step before last, or the slope is 0.  It sets x
# and status: 0 when ntol < g(x) < tol (ntol = -tol), or when the bracket is
# down to two adjacent floats and the slope at either end accounts for the
# step in g between them (a root below float resolution: x is the end with
# the smaller |g|); 1 when that step is larger (g jumps across 0: x is again
# the better end); and 2 after cap steps, logged by capped.  The caller's
# lines "@V" set gx = g(x) from value lines, outside any try, so a failing
# value line raises its own error, and "@D" slope = g'(x) from derivative
# lines, which read @V's locals: in a try, only where a step reads the slope,
# and at each end of a collapsed bracket after @V there, with 0.0 where a
# line fails.  Comparisons stand in for abs where a step calls it.
_SOLVE = """\
status = 0
if ntol < ga < tol:
    x = a
elif ntol < gb < tol:
    x = b
else:
    x = x0 if a < x0 < b else 0.5 * (a + b)
    step = step_old = b - a
    for _ in range(cap):
        @V
        if ntol < gx < tol:
            break
        if (gx > 0) == (ga > 0):
            a, ga = x, gx
        else:
            b, gb = x, gx
        mid = 0.5 * (a + b)
        if not a < mid < b:
            least = None
            for x in a, b:
                try:
                    @V
                    @D
                except numeric:
                    slope = 0.0
                least = abs(slope) if least is None else min(least, abs(slope))
            status = 0 if abs(gb - ga) <= 2.0 * least * (b - a) else 1
            x = a if abs(ga) <= abs(gb) else b
            break
        try:
            @D
        except numeric:
            slope = 0.0
        nxt = mid
        if slope != 0.0:
            newton = x - gx / slope
            if a < newton < b and -step_old <= 2.0 * (newton - x) <= step_old:
                nxt = newton
        step_old, step = step, (nxt - x if nxt >= x else x - nxt)
        x = nxt
    else:
        status = 2
        x = capped(cap, a, b, ga, gb)
"""
_MARKER = re.compile(r"^( *)@(SOLVE|D|V)\n", re.M)


def _solver(template, d, v):
    """template with its "@SOLVE" line replaced by _SOLVE's lines, and their
    "@D" and "@V" lines by the lines d and v, each at its marker's indent."""
    parts = {"SOLVE": _SOLVE, "D": d, "V": v}

    def spliced(m):
        return "".join(m[1] + line + "\n" for line in parts[m[2]].splitlines())
    return _MARKER.sub(spliced, _MARKER.sub(spliced, template))


def _capped(cap, a, b, ga, gb):
    """The end of [a, b] with the smaller |g|, logged: a solve's last."""
    log.warning("root solve: no convergence in %d iterations on [%r, %r]", cap, a, b)
    return a if abs(ga) <= abs(gb) else b


def _solve_env():
    """The names _SOLVE's lines need, with the cap as it is at compile time."""
    return {"range": range, "min": min, "abs": abs, "cap": SOLVE_MAX_ITER,
            "capped": _capped, "numeric": _expr._NUMERIC_ERRORS}


# find_map_fixed_points' solve of g(x) = phi(f(x)) - x on a bracket of its
# scan, from the midpoint, with g from f's and phi's value lines and slope
# phi'(f(x)) * f'(x) - 1.0 from their derivative lines.
_ROOT = _solver("""\
def compiled(a, b, ga, gb, tol{params}):
    ntol = -tol
    x0 = a
    @SOLVE
    return x, status
""", d="""\
@df
@dphi
slope = {dphi} * {df} - 1.0
""", v="""\
@f
y = {f}
@phi
gx = {phi} - x
""")


def _root(f, phi):
    """The fixed-point solve (_ROOT) of phi(f(x)), kept by expr.kernel."""
    return _expr.kernel(_ROOT, {"f": (f, "x"), "phi": (phi, "y")}, _solve_env(),
                        dual=("f", "phi"))


# find_map_fixed_points' scan of the map phi(f(x)): at each of the n points
# x = lo + w*k/m of its grid (_grid's arithmetic), g = phi(f(x)) - x from the
# lines of f on x and of phi on f's value, or NaN where a line fails.  It
# returns the indices k where |g| < tol, a triple (k, g at k, g at k + 1)
# for each k where g changes sign from k to k + 1 with neither end near 0 or
# NaN, the only ones there is a root to solve for, and the number of NaN
# (skipped) points.  A g near 0 counts as 0.0 in the sign test, and so does
# the g before the first point: 0.0 times any g is not < 0.  A product that
# underflows to 0 is no sign change either.
_SCAN = """\
def compiled(lo, w, m, n, tol{params}):
    near = []
    signs = []
    skipped = 0
    ntol = -tol
    prev = 0.0
    for k in range(n):
        x = lo + w * k / m
        try:
            @f
            y = {f}
            @phi
            g = {phi} - x
        except numeric:
            g = nan
            skipped += 1
        if ntol < g < tol:
            near.append(k)
            g = 0.0
        elif 0.0 > prev * g:
            signs.append((k - 1, prev, g))
        prev = g
    return near, signs, skipped
"""


def _scan(f, phi):
    """The fixed-point scan (_SCAN) of phi(f(x)), kept by expr.kernel."""
    return _expr.kernel(_SCAN, {"f": (f, "x"), "phi": (phi, "y")}, {
        "range": range, "numeric": _expr._NUMERIC_ERRORS, "nan": math.nan})


def find_map_fixed_points(f, phi, lo, hi, grid_n=DEFAULT_GRID):
    """Roots of phi(f(x)) - x on [lo, hi], lo < hi (else
    DomainValidationError), for the Expressions f and phi, by uniform grid
    plus the safeguarded Newton solve (_SOLVE) with the chain-rule
    derivative.  The compiled scan of phi(f(x)) covers the grid, and the
    compiled solve (_ROOT) takes each sign change from the scan's values; a
    caller searching f alone passes the identity as phi.

    Returns (roots, skipped) where skipped counts grid points dropped for
    numeric domain errors, and brackets whose solve meets one.  A pair of
    grid values with a NaN end brackets nothing.  Sign changes that are
    jumps, not roots, are dropped with a warning.  A point where
    |phi(f(x)) - x| < ROOT_TOL is a root, so tangential roots are only
    caught when a grid point lands that close.
    """
    if grid_n < 2:
        raise PreconditionError("grid_n must be >= 2")
    tol = ROOT_TOL
    _check_interval(lo, hi)
    w, m = _grid_span(lo, hi, grid_n)
    near, signs, skipped = _scan(f, phi)(lo, w, m, grid_n, tol)
    if skipped == grid_n:
        raise DomainValidationError("map invalid over the entire domain")
    if skipped:
        log.warning("fixed-point grid: skipped %d of %d points", skipped, grid_n)

    # The bracket ends are made as the scan made them, with its values there.
    roots = [lo + w * k / m for k in near]
    jumps = 0
    for k, ga, gb in signs:
        try:
            x, status = _root(f, phi)(lo + w * k / m, lo + w * (k + 1) / m, ga, gb, tol)
        except _expr.EvalDomainError:
            skipped += 1
            continue
        if status == 1:
            jumps += 1
        else:
            roots.append(x)
    if jumps:
        log.warning("fixed-point search: dropped %d sign changes that are jumps, "
                    "not roots", jumps)
    roots.sort()
    merged = []
    radius = DEDUP_RADIUS_FACTOR * (hi - lo)
    for r in roots:
        if not merged or r - merged[-1] > radius:
            merged.append(r)
    return merged, skipped


def find_fixed_points(s, grid_n=DEFAULT_GRID):
    """Locate and classify all fixed points of the system on x_domain."""
    lo, hi = s.x_domain
    roots, _ = find_map_fixed_points(s.f, s.phi, lo, hi, grid_n)
    out = []
    for x_bar in roots:
        y_bar = _expr.evaluate(s.f, x_bar)
        out.append(classify_stability(s, x_bar, y_bar))
    return out


def classify_stability(s, x_bar, y_bar):
    """Build a FixedPoint with multiplier f'(x_bar) * phi'(y_bar).  Where
    either derivative fails (none there, or an overflow), or the product is
    NaN, the multiplier is NaN and the stability "undetermined"."""
    residual_f = abs(_expr.evaluate(s.f, x_bar) - y_bar)
    residual_phi = abs(_expr.evaluate(s.phi, y_bar) - x_bar)
    try:
        multiplier = _expr.derivative(s.f, x_bar) * _expr.derivative(s.phi, y_bar)
    except _expr.EvalDomainError:
        multiplier = math.nan
    mag = abs(multiplier)
    if math.isnan(mag):
        stability = "undetermined"
    elif mag < 1.0 - STABILITY_BAND:
        stability = "attracting"
    elif mag > 1.0 + STABILITY_BAND:
        stability = "repelling"
    else:
        stability = "marginal"
    return FixedPoint(x_bar, y_bar, residual_f, residual_phi, multiplier, stability)


def check_proposition_1(s, fp):
    """Residuals of x_bar under phi(f(.)) and y_bar under f(phi(.)), for a
    fixed point whose own residuals are within PROP1_TOL."""
    if abs(_expr.evaluate(s.f, fp.x_bar) - fp.y_bar) > PROP1_TOL:
        raise PreconditionError("fixed point violates y_bar = f(x_bar)")
    if abs(_expr.evaluate(s.phi, fp.y_bar) - fp.x_bar) > PROP1_TOL:
        raise PreconditionError("fixed point violates x_bar = phi(y_bar)")
    residual_gamma = abs(compose_gamma(s)(fp.x_bar) - fp.x_bar)
    residual_phi_map = abs(_expr.evaluate(s.f, _expr.evaluate(s.phi, fp.y_bar)) - fp.y_bar)
    return Prop1Report(residual_gamma, residual_phi_map)
