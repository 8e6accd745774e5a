"""The one bracketing root solver, dynamics._SOLVE, against the Python solver
it replaced (tests/solve_points.py), bit for bit.

The solve lines run in two kernels: the fixed-point scan (dynamics._SCAN),
which solves each sign change of its grid where it finds it, and the
distance sweep (analysis._SWEEP), one solve per sample from the previous
sample's root.  The fixed-point solve is run bracket by bracket against
point_root, in a test kernel (ROOT) that splices _SOLVE as the scan does
but solves one given bracket; whole scans are run against point_search,
which solves each of point_scan's sign changes with point_root; the sweep
is compiled with phi's lines replaced by one that records each sample's
root, and run against the per-sample inversion over the grid; and _SOLVE
is compiled with crafted @D and @V lines that look up any g and dg, so
that the step rule meets slopes no expression has, and run against the
reference solver on the same functions, point by point: it must ask for g
and dg at the points, and in the order, that the reference calls them.
Roots are compared by repr, so -0.0 is told from 0.0, statuses as
_SOLVE's ints, warnings by message, and errors by type, offset, message and
the types of their __context__ chain; a TypeError is raised, not compared,
as no compared call raises one by design.  find_map_fixed_points,
function_distance and verify_conjugacy are compared whole too, and each
case of the reference's own tests (test_dynamics.py's TestBracketSolve)
that an Expression can express is run on the compiled solve.
"""

import logging
import math
import random
from collections import Counter

import pytest

import solve_points
from conftest import gen_source
from reflexivity import analysis, dynamics, expr
from reflexivity.dynamics import make_system
from scan_points import point_scan, point_search
from solve_points import per_sample_distance, point_root

P = expr.parse


def outcome(run):
    """repr of the result, or the error's type, offset, message and the
    types of its __context__ chain."""
    try:
        return repr(run())
    except TypeError:
        raise
    except expr.ExpressionError as exc:
        chain, ctx = [], exc.__context__
        while ctx is not None:
            chain.append(type(ctx).__name__)
            ctx = ctx.__context__
        return type(exc).__name__, getattr(exc, "offset", None), str(exc), chain
    except analysis.NonMonotoneError as exc:
        return type(exc).__name__, str(exc), repr(exc.x_pair)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc).__name__, str(exc)


def warned(caplog, run):
    """run's outcome and the warnings it logged, with their loggers."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        got = outcome(run)
    return got, [(r.name, r.getMessage()) for r in caplog.records]


def gamma_values(f, phi):
    """g(x) = phi(f(x)) - x, evaluated point by point."""
    return lambda x: expr.evaluate(phi, expr.evaluate(f, x)) - x


# The fixed-point scan's solve of one bracket [a, b], given g's values ga
# and gb at its ends, in a kernel of its own: _SOLVE from the midpoint, with
# the scan's lines for g = phi(f(x)) - x and its chain-rule slope.
ROOT = dynamics._solver("""\
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


def root(f, phi):
    """ROOT compiled for phi(f(x)), with the cap as it is now."""
    return expr.compile_loop(ROOT, {"f": (f, "x"), "phi": (phi, "y")}, dynamics._solve_env(),
                             dual=("f", "phi"))


def same_root(caplog, f, phi, a, b, tol):
    """Assert the compiled solve of phi(f(x)) - x on [a, b] agrees with
    point_root's, where g differs in sign at the ends; return the outcome
    and warnings, or None where the ends bracket nothing."""
    g = gamma_values(f, phi)
    try:
        ga, gb = g(a), g(b)
    except expr.EvalDomainError:
        return None
    if not ga * gb < 0:
        return None
    want = warned(caplog, lambda: point_root(f, phi)(a, b, ga, gb, tol))
    got = warned(caplog, lambda: root(f, phi)(a, b, ga, gb, tol))
    assert got == want, (f.source, phi.source, a, b, tol)
    return got


def tally(counts, result):
    """Count result's kind: an error, or its status and each warning."""
    got, said = result
    counts["error" if isinstance(got, tuple) else "status " + got[-2]] += 1
    counts["warned"] += bool(said)


class TestFixedPointSolve:
    @pytest.mark.parametrize("f, phi, a, b, tol, want", [
        # The step rule of the reference's own tests, in Expressions.
        ("x*x - 2 + x", "y", 0.0, 2.0, 1e-15, (math.sqrt(2.0), 0)),
        # From the midpoint 3, the Newton step for tanh lands near -10.6,
        # outside [-2, 8]: the solve bisects.
        ("tanh(x - 1) + x", "y", -2.0, 8.0, 1e-14, (1.0, 0)),
        # |g| < tol: neither a = 0 nor the midpoint 0.5, where |g| = tol,
        # is taken for a root.
        ("x", "2*y - 0.25", 0.0, 1.0, 0.25, (0.25, 0)),
        # g jumps from -1 to about 0.76 between 0.3 and the float below.
        ("tanh(1e300*(x - 0.3) + 1) + x", "y", 0.0, 1.0, 1e-12, (0.3, 1)),
        # A root below float resolution: the slope 999998 on both sides
        # accounts for the step in g between the floats around it.
        ("1000000*x - 333333.1", "y", 0.3, 0.4, 1e-12, (333333.1 / 999999.0, 0)),
        # tol = 0: no |g| is < 0, so the steep root is found at the
        # collapsed bracket.
        ("1000000*x - 333333.1", "y", 0.3, 0.4, 0.0, (333333.1 / 999999.0, 0)),
        # abs has no derivative at the midpoint 0.325, where its value is
        # fine: that step bisects.  g is 0.8*x - 0.235 left of 0.325.
        ("x + 0.1*abs(x - 0.325)", "2*y - 0.3", 0.03, 0.62, 1e-12, (0.29375, 0)),
    ], ids=["newton", "newton-leaves-bracket", "tolerance-exclusive", "jump", "steep-root",
            "tol-zero", "abs-kink"])
    def test_cases(self, caplog, f, phi, a, b, tol, want):
        got, said = same_root(caplog, P(f), P(phi), a, b, tol)
        x, status = eval(got)  # noqa: S307 - the repr of two numbers
        assert status == want[1] and not said
        assert x == pytest.approx(want[0], abs=1e-15)

    def test_endpoint_within_tolerance(self):
        solve = root(P("x"), P("y"))
        assert solve(0.0, 1.0, 0.0, 1.0, 1e-12) == (0.0, 0)
        assert solve(0.0, 1.0, -1.0, -0.0, 1e-12) == (1.0, 0)

    def test_derivative_fails_at_the_collapsed_end(self, caplog):
        # g = sqrt(x - 0.5) is 0 at a = 0.5, which tol = 0 does not take for
        # a root; the bracket shrinks onto a, where sqrt has no derivative,
        # so the slope there counts as 0.0 and the step in g is a jump.
        f, phi = P("x"), P("y + sqrt(y - 0.5)")
        args = 0.5, 1.0, 0.0, expr.evaluate(phi, 1.0) - 1.0, 0.0
        got = warned(caplog, lambda: root(f, phi)(*args))
        assert got == warned(caplog, lambda: point_root(f, phi)(*args))
        assert got == ("(0.5, 1)", [])
        with pytest.raises(expr.NonDifferentiableError):
            expr.derivative(phi, 0.5)

    def test_iteration_cap_is_logged(self, caplog):
        # With tol = 0 the solve never converges by |g| < tol, and the
        # root 1e-300 lies far below the bracket's shrinking.
        got, said = same_root(caplog, P("2*x - 1e-300"), P("y"), -1.0, 1.0, 0.0)
        assert got == "(1e-300, 2)"
        assert said == [("reflexivity.dynamics", "root solve: no convergence in 200 "
                         "iterations on [1e-300, 2.4892061111444567e-60]")]

    def test_lowered_cap(self, caplog, monkeypatch):
        # The cap is bound when the solve is compiled.
        monkeypatch.setattr(dynamics, "SOLVE_MAX_ITER", 2)
        got, said = same_root(caplog, P("x^3 - 0.5 + 2*x"), P("y"), 0.1, 1.0, 1e-12)
        assert (got, said) == ("(0.4365661861074705, 2)", [(
            "reflexivity.dynamics",
            "root solve: no convergence in 2 iterations on [0.1, 0.4365661861074705]")])

    @pytest.mark.parametrize("f, phi, error", [
        ("x + 0*log(x - 0.325)", "y", "log of non-positive value 0.0 (node at offset 6)"),
        ("x", "y + 0/(y - 0.325)", "division by zero (node at offset 5)"),
        ("x + 0*sqrt(0.3 - x)", "y",
         "sqrt of negative value -0.025000000000000022 (node at offset 6)"),
    ], ids=["log-in-f", "division-in-phi", "sqrt-in-f"])
    def test_failing_value_line(self, f, phi, error):
        # The value fails at the midpoint 0.325, the first point the solve
        # tries, before any derivative line runs: its own typed error and
        # offset, with the line's exception as its only context.
        # The ends' values are given, as the scan would give them.
        f, phi = P(f), P(phi)
        got = outcome(lambda: root(f, phi)(0.03, 0.62, 1.0, -1.0, 1e-12))
        assert got == outcome(lambda: point_root(f, phi)(0.03, 0.62, 1.0, -1.0, 1e-12))
        assert got[::2] == ("EvalDomainError", error), got
        assert len(got[3]) == 1, got

    def test_random_wide_brackets(self, caplog):
        # The scan's brackets of random wide pairs, and brackets drawn at
        # random in the domain, at three tolerances.  Some f get a jump, or
        # a hole where their value fails, at a random point.
        rng = random.Random(240101)
        counts = Counter()
        for _ in range(300):
            f = gen_source(rng, 4, wide=True)
            r = rng.uniform(-3.0, 4.0)
            f = P(rng.choice((f, f"{f} + 0.1*tanh(1e300*(x - {r!r}))",
                              f"{f} + 0*sqrt(abs(x - {r!r}) - 0.01)")))
            phi = P(gen_source(rng, 3, wide=True))
            lo = rng.choice((-3.0, -1.0, 0.0, 1e-200, 0.03))
            hi = lo + rng.choice((0.5, 1.0, 2.0, 6.0))
            tol = rng.choice((0.0, dynamics.ROOT_TOL, 1e-6))
            n = rng.choice((17, 64, 257))
            w, m = dynamics._grid_span(lo, hi, n)
            _, signs, _ = point_scan(f, phi)(lo, w, m, n, tol)
            brackets = [(lo + w * k / m, lo + w * (k + 1) / m) for k, _, _ in signs]
            brackets += [sorted((rng.uniform(lo, hi), rng.uniform(lo, hi))) for _ in range(3)]
            for a, b in brackets:
                result = same_root(caplog, f, phi, a, b, tol)
                if result is not None:
                    tally(counts, result)
        assert counts["status 0"] > 150 and counts["status 1"] > 20, counts
        assert counts["status 2"] >= 2 and counts["error"] >= 3, counts

    def test_capped_solve_is_a_root_logged_before_the_skipped_points(self, caplog,
                                                                      monkeypatch):
        # With ROOT_TOL 0 the solve of the sign change between 0 and 0.5
        # meets its cap: its x is a root, not a jump.  sqrt fails at -1, the
        # one skipped point.  The scan logs the cap as it solves, before the
        # search logs the skipped point.
        monkeypatch.setattr(dynamics, "ROOT_TOL", 0.0)
        f, phi = P("2*x - 1e-300 + 0*sqrt(x + 0.75)"), P("y")
        got = warned(caplog, lambda: dynamics.find_map_fixed_points(f, phi, -1.0, 1.0, 5))
        monkeypatch.setattr(dynamics, "_scan", point_search)
        assert got == warned(caplog, lambda: dynamics.find_map_fixed_points(f, phi, -1.0, 1.0, 5))
        assert got == (repr(([0.0], 1)), [
            ("reflexivity.dynamics", "root solve: no convergence in 200 iterations on "
                                     f"[0.0, {2.0 ** -201!r}]"),
            ("reflexivity.dynamics", "fixed-point grid: skipped 1 of 5 points")])

    def test_random_find_map_fixed_points(self, caplog, monkeypatch):
        # Whole searches of random wide pairs, each at both tolerances, with
        # the library's scan and with point_search: the scan's own result,
        # then the search's.  Some f get a jump, or a hole where their value
        # fails, at a random point, or at the midpoint of a sign change's
        # bracket, the first point its solve tries.
        rng = random.Random(240102)
        counts = Counter()
        for _ in range(150):
            f = gen_source(rng, 4, wide=True)
            r = rng.uniform(-2.0, 4.0)
            f = rng.choice((f, f, f"{f} + 0.1*tanh(1e300*(x - {r!r}))",
                            f"{f} + 0*sqrt(abs(x - {r!r}) - 0.01)"))
            phi = P(gen_source(rng, 3, wide=True))
            lo = rng.choice((-2.0, 0.0, 1e-200))
            hi, n = lo + rng.choice((1.0, 3.0)), rng.choice((33, 256))
            w, m = dynamics._grid_span(lo, hi, n)
            signs = point_scan(P(f), phi)(lo, w, m, n, dynamics.ROOT_TOL)[1]
            if signs and rng.random() < 0.5:
                k = rng.choice(signs)[0]
                f = f"{f} + 0*log(abs(x - {0.5 * ((lo + w * k / m) + (lo + w * (k + 1) / m))!r}))"
            f = P(f)
            for tol in (0.0, dynamics.ROOT_TOL):
                results = []
                for scan in (dynamics._scan, point_search):
                    with monkeypatch.context() as mp:
                        mp.setattr(dynamics, "ROOT_TOL", tol)
                        mp.setattr(dynamics, "_scan", scan)
                        results.append((
                            warned(caplog, lambda: scan(f, phi)(lo, w, m, n, tol)),
                            warned(caplog,
                                   lambda: dynamics.find_map_fixed_points(f, phi, lo, hi, n))))
                assert results[0] == results[1], (f.source, phi.source, lo, hi, n, tol)
                roots, skipped, jumps, failed = dynamics._scan(f, phi)(lo, w, m, n, tol)
                counts.update(roots=len(roots), skipped=skipped, jumps=jumps, failed=failed,
                              refused=isinstance(results[0][1][0], tuple))
        assert counts["roots"] > 1000 and counts["skipped"] > 1000, counts
        assert min(counts[k] for k in ("jumps", "failed", "refused")) >= 20, counts


class Asked:
    """asked[x] is fn(x) for a crafted line, logging (name, x) in log.  Where
    fn fails, the value line's error passes through unchanged, and the
    slope line's is a ValueError, as a failing derivative line raises."""

    def __init__(self, name, fn, log):
        self.name, self.fn, self.log = name, fn, log

    def __getitem__(self, x):
        self.log.append((self.name, x))
        try:
            return self.fn(x)
        except expr.EvalDomainError:
            if self.name == "g":
                raise
            raise ValueError("crafted slope line fails") from None


# _SOLVE with crafted lines for any g and dg: a subscript, since the
# compiled lines may call only the expression helpers.
CRAFTED = dynamics._solver("""\
def compiled(a, b, ga, gb, tol, x0{params}):
    ntol = -tol
    @SOLVE
    return x, status
""", d="slope = dg[x]\n", v="gx = g[x]\n")


def crafted_solve(log, g, dg, a, b, ga, gb, tol, x0=None):
    """(x, status) from _SOLVE with crafted lines, logging each point where
    it asks for g or dg; x0 None starts from the midpoint."""
    solve = expr._define(CRAFTED, {}, {**dynamics._solve_env(), "g": Asked("g", g, log),
                                       "dg": Asked("dg", dg, log)})
    return solve(a, b, ga, gb, tol, a if x0 is None else x0)


def reference_solve(log, g, dg, a, b, ga, gb, tol, x0=None):
    """crafted_solve's result from solve_points.bracket_solve, logging each
    call of g and dg as crafted_solve does."""
    x, status, _ = solve_points.bracket_solve(
        lambda t: log.append(("g", t)) or g(t), a, b, ga, gb, tol, x0,
        dg=lambda t: log.append(("dg", t)) or dg(t))
    return x, solve_points.STATUS[status]


def with_end_values(log):
    """The reference's log as the compiled solve asks: at a collapsed
    bracket, where the log ends in the slopes at its two ends, g before each
    slope, as the derivative lines read the value lines' locals there."""
    if [name for name, _ in log[-2:]] != ["dg", "dg"]:
        return log
    (_, a), (_, b) = log[-2:]
    return log[:-2] + [("g", a), ("dg", a), ("g", b), ("dg", b)]


def same_solve(caplog, *args):
    """Assert crafted_solve agrees with reference_solve, bit for bit, in
    what it returns, logs and raises, and in the points where it asks for g
    and dg, in order; return its outcome and warnings, and the points where
    it asked for either, in order of first use."""
    got_log, want_log = [], []
    got = warned(caplog, lambda: crafted_solve(got_log, *args))
    assert got == warned(caplog, lambda: reference_solve(want_log, *args)), args
    assert got_log == with_end_values(want_log), args
    return got, list(dict.fromkeys(x for _, x in got_log))


def failing(at):
    """A function raising EvalDomainError where at(x), 1.0 elsewhere."""
    def fn(x):
        if at(x):
            raise expr.EvalDomainError("crafted failure", 3)
        return 1.0
    return fn


class TestCraftedSolve:
    """The step rule itself, for any g and dg: TestBracketSolve's cases,
    the edges of each comparison, and random piecewise g with slopes that
    are right, wrong, zero, NaN or failing."""

    def test_newton_converges_in_fewer_steps_than_bisection(self, caplog):
        g, dg = (lambda x: x * x - 2.0), (lambda x: 2.0 * x)
        got, newton = same_solve(caplog, g, dg, 0.0, 2.0, -2.0, 2.0, 1e-15)
        assert eval(got[0]) == (math.sqrt(2.0), 0)
        got, bisect = same_solve(caplog, g, lambda x: 0.0, 0.0, 2.0, -2.0, 2.0, 1e-15)
        assert eval(got[0])[1] == 0 and len(newton) <= 6 < len(bisect)

    def test_newton_step_leaving_the_bracket_bisects(self, caplog):
        # From x0 = -1.9 the Newton step for atan lands near 9.75, past b = 3.
        g, dg = (lambda x: math.atan(x - 1.0)), (lambda x: 1.0 / (1.0 + (x - 1.0) ** 2))
        got, seen = same_solve(caplog, g, dg, -2.0, 3.0, g(-2.0), g(3.0), 1e-14, -1.9)
        x, status = eval(got[0])
        assert status == 0 and x == pytest.approx(1.0, abs=1e-13) and seen[1] == 0.55

    def test_endpoint_within_tolerance(self, caplog):
        g = lambda x: x  # noqa: E731
        assert same_solve(caplog, g, g, 0.0, 1.0, 0.0, 1.0, 1e-12) == (("(0.0, 0)", []), [])

    def test_jump_is_discontinuity(self, caplog):
        g = lambda x: 1.0 if x > 0.3 else -1.0  # noqa: E731
        got, seen = same_solve(caplog, g, lambda x: 0.0, 0.0, 1.0, -1.0, 1.0, 1e-12)
        x, status = eval(got[0])
        assert status == 1 and x in (0.3, math.nextafter(0.3, 1.0)) and len(seen) < 200

    def test_tolerance_is_exclusive(self, caplog):
        got = same_solve(caplog, lambda x: x - 0.25, lambda x: 1.0, 0.0, 1.0, -0.25, 0.75, 0.25)
        assert got == (("(0.25, 0)", []), [0.5, 0.25])

    def test_slope_is_asked_only_where_a_step_reads_it(self, caplog):
        # g at every step, g' only after a step that neither converged nor
        # collapsed the bracket: not at the root 0.25, where |g| < tol.
        log = []
        crafted_solve(log, lambda x: x - 0.25, lambda x: 1.0, 0.0, 1.0, -0.25, 0.75, 1e-12)
        assert log == [("g", 0.5), ("dg", 0.5), ("g", 0.25)]
        # At a collapsed bracket, g and g' at each end, after g at the step.
        a, b = 1.0, math.nextafter(1.0, 2.0)
        log = []
        crafted_solve(log, lambda x: -1e-17 if x <= a else 1e-17, lambda x: 1.0, a, b,
                      -1e-17, 1e-17, 1e-18)
        assert log == [("g", a), ("g", a), ("dg", a), ("g", b), ("dg", b)]

    def test_iteration_cap_is_logged(self, caplog):
        # Bisection from [-1, 1] needs about 1000 halvings to reach 1e-300.
        g = lambda x: x - 1e-300  # noqa: E731
        (got, said), seen = same_solve(caplog, g, lambda x: 0.0, -1.0, 1.0, g(-1.0), g(1.0), 0.0)
        x, status = eval(got)
        assert status == 2 and 0.0 <= x <= 2.0 ** -199 and len(seen) == 200
        assert said == [("reflexivity.dynamics", f"root solve: no convergence in 200 "
                         f"iterations on [0.0, {2.0 ** -199!r}]")]

    def test_newton_step_exactly_half_the_step_before_last(self, caplog):
        # From 4 on [0, 8] the crafted slopes step to 2, 1, 1.25 and then
        # 1.75, whose step 0.5 is exactly half the step before last (2 to
        # 1): it is taken, and g is 0 there.
        gs = {4.0: (1.0, 0.5), 2.0: (1.0, 1.0), 1.0: (-1.0, 4.0), 1.25: (-1.0, 2.0),
              1.75: (0.0, 1.0)}
        got = same_solve(caplog, lambda x: gs[x][0], lambda x: gs[x][1], 0.0, 8.0, -1.0, 1.0,
                         1e-12)
        assert got == (("(1.75, 0)", []), [4.0, 2.0, 1.0, 1.25, 1.75])

    @pytest.mark.parametrize("fails_at", ["a", "b"])
    def test_failing_slope_at_a_collapsed_end_is_zero(self, caplog, fails_at):
        # g steps by 2e-17 between 1 and the next float; the slope 1 at the
        # other end would account for that, a failing one counts as 0.
        a, b = 1.0, math.nextafter(1.0, 2.0)
        end = a if fails_at == "a" else b
        g = lambda x: -1e-17 if x <= a else 1e-17  # noqa: E731
        got = same_solve(caplog, g, failing(lambda x: x == end), a, b, -1e-17, 1e-17, 1e-18)
        assert got == ((repr((a, 1)), []), [a, b])

    def test_failing_value(self, caplog):
        # The value line raises its own error, before any slope is asked for.
        got = same_solve(caplog, failing(lambda x: x == 0.5), lambda x: 1.0, 0.0, 1.0, -1.0, 1.0,
                         1e-12)
        assert got == ((("EvalDomainError", 3, "crafted failure (node at offset 3)", []), []),
                       [0.5])

    def test_random_steps(self, caplog):
        # Piecewise g on dyadic points, with slopes that may be wrong, 0,
        # NaN or failing, so that every comparison meets its equal case.
        rng = random.Random(240105)
        counts = Counter()
        for _ in range(2000):
            r = rng.choice((rng.uniform(-4.0, 4.0), rng.randint(-64, 64) / 16))
            jump = rng.choice((0.0, 0.0, rng.uniform(0.0, 1.0)))
            scale = rng.choice((1.0, 0.5, 2.0, 1e-12, 1e12))
            salt = rng.getrandbits(32)

            def g(x, r=r, jump=jump, scale=scale):
                return scale * (x - r) + (jump if x > r else -jump)

            def dg(x, scale=scale, salt=salt):
                # The slope's kind at x is drawn from x alone, as the two
                # solvers ask for slopes at different points.
                kind = (hash(x) ^ salt) % 9
                if kind == 8:
                    raise expr.EvalDomainError("slope fails", 1)
                return (scale, scale, scale, 0.25 * scale, 4.0 * scale, -scale, 0.0,
                        math.nan)[kind]

            a, b = sorted(rng.choice((rng.randint(-8, 8) / 2, rng.uniform(-8.0, 8.0)))
                          for _ in range(2))
            if not a < b:
                continue
            x0 = rng.choice((None, rng.uniform(a, b), a, b))
            tol = rng.choice((0.0, 1e-12, 1e-3, scale * 0.25))
            (got, _), _ = same_solve(caplog, g, dg, a, b, g(a), g(b), tol, x0)
            counts["error" if isinstance(got, tuple) else got[:-1].split(", ")[1]] += 1
        assert min(counts[s] for s in ("0", "1", "2")) > 20, counts


def recording_sweep(f, xs):
    """f's compiled distance sweep, with phi's lines replaced by one that
    appends each sample's root to xs (each distance is then 0)."""
    em = expr._Emitter(True, prefix="f")
    value, deriv = em.emit(f.root)
    parts = {"f": (em, value), "df": (em.deriv, deriv)}
    em = expr._Emitter(False, var="y", prefix="phi")
    em.lines.append("phiv0 = record[x]")
    parts["phi"] = em, "phiv0"
    return expr._define(analysis._SWEEP, parts, {
        **dynamics._solve_env(), "max": max, "nextafter": math.nextafter, "inf": math.inf,
        "rtol": analysis.INVERT_RTOL, "record": Recorder(xs)})


class Recorder:
    """record[x] appends x to xs and is x: a line that records, with no
    call (a compiled line calls only the expression helpers)."""

    def __init__(self, xs):
        self.xs = xs

    def __getitem__(self, x):
        self.xs.append(x)
        return x


def reference_roots(f, lo, hi, samples, warm=True):
    """The per-sample inversion's roots over function_distance's grid of f
    on [lo, hi], each from the previous sample's (from the midpoint if not
    warm), and its statuses; or its error."""
    flo, fhi = expr.evaluate(f, lo), expr.evaluate(f, hi)
    f_min, f_max = min(flo, fhi), max(flo, fhi)
    xs, statuses, inv = [], [], None
    for y in dynamics._grid(f_min, f_max, samples):
        inv, status = solve_points.invert(f, lo, hi, flo, fhi, min(y, f_max),
                                          inv if warm else None)
        xs.append(inv)
        statuses.append(solve_points.STATUS[status])
    return xs, statuses


def swept_roots(f, lo, hi, samples):
    """The compiled sweep's roots over the same grid, and its jump count."""
    flo, fhi = expr.evaluate(f, lo), expr.evaluate(f, hi)
    y_lo = min(flo, fhi)
    w, m = dynamics._grid_span(y_lo, max(flo, fhi), samples)
    xs = []
    jumps = recording_sweep(f, xs)(y_lo, w, m, samples, lo, hi, flo, fhi)[3]
    return xs, jumps


def same_roots(caplog, f, lo, hi, samples):
    """Assert the sweep's root at every sample, its jump count, warnings and
    error agree with the per-sample inversion's; return the statuses."""
    want = warned(caplog, lambda: reference_roots(f, lo, hi, samples))
    got = warned(caplog, lambda: swept_roots(f, lo, hi, samples))
    if isinstance(want[0], tuple):
        assert got == want, (f.source, lo, hi, samples)
        return []
    xs, statuses = eval(want[0], {"nan": math.nan, "inf": math.inf})  # noqa: S307
    assert got == (repr((xs, statuses.count(1))), want[1]), (f.source, lo, hi, samples)
    return statuses


MONOTONE = [
    # (f, [lo, hi]): smooth, steep, with a kink, jumps, a flat stretch, a
    # derivative-only failure and failing value lines.
    ("2*x + 1", (0.0, 1.0)),
    ("-x^3 - x", (-1.5, 1.5)),
    ("exp(8*x)", (-1.0, 1.0)),
    ("1e6*x + 1e-3*x^3", (-3.0, 3.0)),
    ("tanh(40*x) + 1e-3*x", (-1.0, 1.0)),
    ("x + 0.1*abs(x - 0.325)", (0.03, 0.62)),
    ("x + 0.1*tanh(1e300*(x-0.3))", (0.0, 1.0)),
    ("x + 1e-4*tanh(1e300*(x - 0.49995))", (0.0, 1.0)),
    ("x + sqrt(x)", (0.0, 1.0)),
    ("x + 0*log(abs(x - 0.325))", (0.03, 0.62)),
    ("x + 0/(x - 0.325)", (0.03, 0.62)),
    ("x^3 + 1e-300*x", (-1.0, 1.0)),
]


class TestInversionSolve:
    @pytest.mark.parametrize("f, domain", MONOTONE, ids=[f for f, _ in MONOTONE])
    @pytest.mark.parametrize("samples", [2, 65, 1201])
    def test_every_sample(self, caplog, f, domain, samples):
        same_roots(caplog, P(f), *domain, samples)

    def test_statuses(self, caplog):
        # The jump's samples end at the collapsed bracket, as status 1.
        statuses = same_roots(caplog, P("x + 0.1*tanh(1e300*(x-0.3))"), 0.0, 1.0, 1201)
        assert statuses.count(1) == 198 and statuses.count(2) == 0
        assert same_roots(caplog, P("x + 0/(x - 0.325)"), 0.03, 0.62, 64) == []

    def test_lowered_cap(self, caplog, monkeypatch):
        monkeypatch.setattr(dynamics, "SOLVE_MAX_ITER", 2)
        statuses = same_roots(caplog, P("x^3 + x"), 0.0, 1.0, 50)
        assert statuses.count(2) > 10, statuses
        assert "no convergence in 2 iterations" in caplog.records[0].getMessage()

    def test_warm_start(self, caplog):
        # Started from the midpoint, some samples of this grid end on
        # another float than the warm-started solve, whose roots the sweep
        # gives.
        f, samples = P("x + 0.3*sin(3*x)"), 1000
        warm, _ = reference_roots(f, -2.0, 2.0, samples)
        cold, _ = reference_roots(f, -2.0, 2.0, samples, warm=False)
        assert sum(map(float.__ne__, warm, cold)) > 50
        assert swept_roots(f, -2.0, 2.0, samples) == (warm, 0)
        same_roots(caplog, f, -2.0, 2.0, samples)

    def test_random_wide_expressions(self, caplog):
        # Random wide f, most of them refused as not monotone; and random
        # monotone f with wide parts.
        rng = random.Random(240103)
        counts = Counter()
        for _ in range(300):
            lo = rng.choice((-3.0, -1.0, 0.0, 1e-200, 0.03))
            hi = lo + rng.choice((0.5, 1.0, 3.0))
            if rng.random() < 0.5:
                f = P(gen_source(rng, 4, wide=True))
            else:
                # a*x plus a bounded wide part, and a jump, a kink or a
                # narrow hole where f's value fails, at a random point, or
                # a failing point where the first solve starts.
                a = rng.choice((-1, 1)) * rng.uniform(0.2, 5.0)
                r, c = rng.uniform(lo, hi), rng.uniform(0.0, 0.5) * a
                part = rng.choice(("0", f"{c!r}*tanh(1e300*(x - {r!r}))", f"{c!r}*abs(x - {r!r})",
                                   f"0*sqrt(abs(x - {r!r}) - 1e-3)",
                                   f"0*log(abs(x - {0.5 * (lo + hi)!r}))"))
                f = P(f"{a!r}*x + {rng.uniform(-0.2, 0.2) * abs(a)!r}*tanh("
                      f"{gen_source(rng, 2, wide=True)}) + {part}")
            samples = rng.choice((2, 33, 256, 1024))
            try:
                analysis._monotone_direction(f, lo, hi)
            except (analysis.NonMonotoneError, expr.EvalDomainError):
                counts["refused"] += 1
                continue
            statuses = same_roots(caplog, f, lo, hi, samples)
            counts.update(f"status {s}" for s in statuses)
            counts["error" if not statuses else "swept"] += 1
        assert counts["swept"] > 150 and counts["status 1"] > 1000, counts
        assert counts["status 2"] >= 1 and counts["error"] >= 2, counts

    def test_random_distances(self, caplog):
        # Whole reports: random monotone f and wide phi.
        rng = random.Random(240104)
        for _ in range(150):
            a = rng.choice((-1, 1)) * rng.uniform(0.2, 5.0)
            f = f"{a!r}*x + {rng.uniform(-0.2, 0.2) * abs(a)!r}*tanh({gen_source(rng, 2, True)})"
            lo = rng.choice((-3.0, 0.0, 0.03))
            try:
                s = make_system(f, gen_source(rng, 3, wide=True), (lo, lo + 2.0), (-5.0, 5.0))
            except expr.ExpressionError:
                continue
            except dynamics.DomainValidationError:
                continue
            samples = rng.choice((2, 65, 500))
            assert warned(caplog, lambda: analysis.function_distance(s, samples)) == \
                warned(caplog, lambda: per_sample_distance(s, samples)), (f, s.phi.source)


class TestCounts:
    """The compiled solves evaluate nothing point by point."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("evaluate", "derivative"):
            real = getattr(expr, name)
            monkeypatch.setattr(expr, name, lambda e, v, real=real, name=name: (
                counts.update((name,)), real(e, v))[1])
        return counts

    def test_jump_samples(self, caplog, calls):
        # 682 of the 4,096 samples lie in the jump; the sweep solves each,
        # and evaluates only f(lo), for the monotonicity check, then f(lo)
        # and f(hi).
        s = make_system("x + 0.1*tanh(1e300*(x-0.3))", "y", (0.0, 1.0), (-1.0, 2.0))
        got = warned(caplog, lambda: analysis.function_distance(s, 4096))
        assert calls == Counter(evaluate=3)
        assert got == warned(caplog, lambda: per_sample_distance(s, 4096))
        assert got[1] == [("reflexivity.analysis", "function_distance: 682 of 4096 samples "
                           "lie in a jump of f; each is inverted to where f jumps")]

    def test_conjugacy_with_the_identity(self, calls):
        # f's fixed points, 0 on the grid and 0.75 solved between two grid
        # points, through the identity as phi: the evaluations are h(lo),
        # for the monotonicity check, and h and g at each fixed point.
        f = P("4*x*(1 - x)")
        rep = analysis.verify_conjugacy(f, f, P("x"), (0.0, 1.0), 256)
        assert (rep.verdict, rep.fixed_point_images_checked) == ("consistent", 2)
        assert calls == Counter(evaluate=1 + 2 * 2)

    def test_fixed_points(self, calls):
        # The search's solve evaluates nothing; classify_stability evaluates
        # f at each root, its residuals and the two derivatives.
        s = make_system("2.5*x*(1 - x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        assert len(dynamics.find_fixed_points(s, 500)) == 2
        assert calls == Counter(evaluate=2 * 3, derivative=2 * 2)
