"""The bracketing root solver in Python: the reference that the solve lines
of reflexivity.dynamics (dynamics._SOLVE), spliced into the fixed-point
solve (dynamics._ROOT) and the distance sweep (analysis._SWEEP), are tested
against.

bracket_solve is the safeguarded Newton solve (Numerical Recipes' rtsafe)
on a value function g and a derivative function dg; invert is the
per-sample inversion function_distance ran with it, and per_sample_distance
the loop of invert over the whole grid.  point_root, in place of
dynamics._root, makes find_map_fixed_points solve with bracket_solve, with
g and its chain-rule slope from expr.evaluate and expr.derivative.
"""

import math

from reflexivity import analysis, dynamics, expr

STATUS = {"converged": 0, "discontinuity": 1, "iteration-cap": 2}  # _SOLVE's ints


def _slope(dg, x):
    """dg(x), or 0.0 (no Newton step) when dg fails at x."""
    try:
        return dg(x)
    except expr.EvalDomainError:
        return 0.0


def bracket_solve(g, a, b, ga, gb, tol, x0=None, *, dg):
    """Root of g on [a, b], where ga = g(a) and gb = g(b) differ in sign.

    From x0, or the midpoint, take Newton steps with the derivative dg, and
    a bisection step whenever the Newton step leaves the bracket, is not at
    least half as long as the step before last, or dg fails or is 0.

    Returns (x, status, iters).  status is "converged" when |g(x)| < tol, or
    when the bracket has shrunk to two adjacent floats and the slope dg on
    either side accounts for the step in g between them: the root then lies
    below float resolution and x is the end with the smaller |g|.  It is
    "discontinuity" when that step is larger (g jumps across zero there; x
    is again the better end), and "iteration-cap" (logged) after
    dynamics.SOLVE_MAX_ITER evaluations of g.
    """
    if abs(ga) < tol:
        return a, "converged", 0
    if abs(gb) < tol:
        return b, "converged", 0
    x = x0 if x0 is not None and a < x0 < b else 0.5 * (a + b)
    step = step_old = b - a
    cap = dynamics.SOLVE_MAX_ITER
    for it in range(1, cap + 1):
        gx = g(x)
        if abs(gx) < tol:
            return x, "converged", it
        if (gx > 0) == (ga > 0):
            a, ga = x, gx
        else:
            b, gb = x, gx
        mid = 0.5 * (a + b)
        if not a < mid < b:
            # A root below float resolution if the slope on both sides
            # accounts for the step in g between the ends, a jump if not.
            x = a if abs(ga) <= abs(gb) else b
            slope = min(abs(_slope(dg, a)), abs(_slope(dg, b)))
            if abs(gb - ga) <= 2.0 * slope * (b - a):
                return x, "converged", it
            return x, "discontinuity", it
        nxt = mid
        slope = _slope(dg, x)
        if slope != 0.0:
            newton = x - gx / slope
            if a < newton < b and 2.0 * abs(newton - x) <= step_old:
                nxt = newton
        step_old, step = step, abs(nxt - x)
        x = nxt
    dynamics.log.warning("root solve: no convergence in %d iterations on [%r, %r]",
                         cap, a, b)
    return (a if abs(ga) <= abs(gb) else b), "iteration-cap", cap


def point_root(f, phi):
    """A stand-in for dynamics._root(f, phi): bracket_solve on phi(f(x)) - x
    with the slope phi'(f(x)) * f'(x) - 1.0, returning (x, _SOLVE's status).
    bracket_solve is looked up at each call, so a test may replace it."""
    def g(x):
        return expr.evaluate(phi, expr.evaluate(f, x)) - x

    def dg(x):
        return expr.derivative(phi, expr.evaluate(f, x)) * expr.derivative(f, x) - 1.0

    def solve(a, b, ga, gb, tol):
        x, status, _ = bracket_solve(g, a, b, ga, gb, tol, dg=dg)
        return x, STATUS[status]
    return solve


def invert(f, lo, hi, flo, fhi, y, x0=None):
    """(x, status) with x in [lo, hi] and |f(x) - y| <= INVERT_RTOL*max(1, |y|),
    for the Expression f, monotone with f(lo) = flo and f(hi) = fhi; Newton
    steps use its derivative.  status is bracket_solve's; on "discontinuity"
    y lies in a jump of f and x is where f jumps."""
    if not (min(flo, fhi) <= y <= max(flo, fhi)):
        raise analysis.OutOfRangeError(
            f"y={y!r} outside attained range [{min(flo, fhi)!r}, {max(flo, fhi)!r}]")
    # bracket_solve accepts |g| < tol; the next float up makes that <= INVERT_RTOL*...
    tol = math.nextafter(analysis.INVERT_RTOL * max(1.0, abs(y)), math.inf)
    x, status, _ = bracket_solve(lambda t: expr.evaluate(f, t) - y, lo, hi,
                                 flo - y, fhi - y, tol, x0,
                                 dg=lambda t: expr.derivative(f, t))
    return x, status


def per_sample_distance(s, samples=analysis.DEFAULT_SAMPLES):
    """function_distance as a loop of invert over the whole clamped grid,
    each inversion from the previous sample's x: the reference for the
    sweep.  Returns the report, and logs what function_distance logs."""
    if samples < 2:
        raise dynamics.PreconditionError("samples must be >= 2")
    lo, hi = s.x_domain
    direction = analysis._monotone_direction(s.f, lo, hi)
    flo, fhi = expr.evaluate(s.f, lo), expr.evaluate(s.f, hi)
    f_min, f_max = min(flo, fhi), max(flo, fhi)
    y_lo = max(f_min, s.y_domain[0])
    y_hi = min(f_max, s.y_domain[1])
    if not (y_lo < y_hi):
        raise analysis.OutOfRangeError("image of f does not overlap y_domain")
    # The top grid point can round one ulp past f's attained range.
    ys = [min(max(y, f_min), f_max) for y in dynamics._grid(y_lo, y_hi, samples)]
    best, argmax, inv = -1.0, y_lo, None
    jumps = nans = 0
    for y in ys:
        inv, status = invert(s.f, lo, hi, flo, fhi, y, inv)
        jumps += status == "discontinuity"
        diff = abs(expr.evaluate(s.phi, y) - inv)
        if diff > best:
            best = diff
            argmax = y
        elif diff != diff:
            nans += 1
    if jumps:
        analysis.log.warning("function_distance: %d of %d samples lie in a jump of f; "
                             "each is inverted to where f jumps", jumps, len(ys))
    if nans:
        analysis.log.warning("function_distance: %d of %d samples have no finite distance",
                             nans, samples)
        if nans == samples:
            best = math.nan
    return analysis.DistanceReport(best, argmax, samples, direction)
