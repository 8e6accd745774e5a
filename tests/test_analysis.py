import logging
import math

import pytest

import solve_points
from conftest import as_orbit
from reflexivity import analysis, cli, dynamics, expr
from reflexivity.analysis import (
    detect_boom_bust,
    detect_period,
    function_distance,
    verify_conjugacy,
)
from reflexivity.dynamics import compose_gamma, make_system, orbit


def logistic_map(r):
    return compose_gamma(make_system(f"{r!r}*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0)))


def invert(f, interval, y):
    """(x, status) for f(x) = y on interval: f's monotonicity check, then
    the per-sample inversion of tests/solve_points.py."""
    lo, hi = interval
    analysis._monotone_direction(f, lo, hi)
    return solve_points.invert(f, lo, hi, expr.evaluate(f, lo), expr.evaluate(f, hi), y)


class TestInvertNumeric:
    """The per-sample inversion, the reference the distance sweep's solve is
    tested against in tests/test_solve.py."""

    def test_linear(self):
        got, _ = invert(expr.parse("2*x+1"), (0.0, 10.0), 5.0)
        assert abs(2.0 * got + 1.0 - 5.0) <= 1e-12 * 5.0
        assert got == pytest.approx(2.0, abs=1e-11)

    def test_sin_not_monotone(self):
        with pytest.raises(analysis.NonMonotoneError):
            invert(expr.parse("sin(x)"), (0.0, 6.28), 0.5)

    def test_exp(self):
        got, _ = invert(expr.parse("exp(x)"), (0.0, 3.0), math.e)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(analysis.OutOfRangeError):
            invert(expr.parse("2*x"), (0.0, 1.0), 5.0)

    def test_decreasing_function(self):
        got, _ = invert(expr.parse("1 - x"), (0.0, 1.0), 0.25)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_right_inverse_property(self):
        f = expr.parse("exp(x) + x")
        lo, hi = -1.0, 2.0
        y_lo, y_hi = expr.evaluate(f, lo), expr.evaluate(f, hi)
        for k in range(25):
            y = y_lo + (y_hi - y_lo) * k / 24.0
            x, _ = invert(f, (lo, hi), y)
            assert abs(expr.evaluate(f, x) - y) <= 1e-12 * max(1.0, abs(y))

    def test_value_in_a_jump_gives_the_jump_location(self):
        # f jumps from 0.3 to about 0.4 between 0.3 and the next float
        f = expr.parse("x + 0.1*tanh(1e300*(x-0.3))")
        x, status = invert(f, (0.0, 1.0), 0.35)
        assert x in (0.3, math.nextafter(0.3, 1.0)) and status == "discontinuity"

    def test_non_monotone_pair_comes_before_a_later_domain_error(self):
        # sqrt fails above x = 5, but sin turns at pi/2 first.
        xs = dynamics._grid(0.0, 6.28, analysis.MONOTONE_DIFFS + 1)
        k = next(k for k in range(1, len(xs)) if math.sin(xs[k + 1]) <= math.sin(xs[k]))
        with pytest.raises(analysis.NonMonotoneError) as exc:
            invert(expr.parse("sin(x) + 0*sqrt(5 - x)"), (0.0, 6.28), 0.5)
        assert exc.value.x_pair == (xs[k], xs[k + 1]) == (1.57, 1.5761328125)


class TestDegenerateInterval:
    """A reversed, empty or NaN interval raises before any grid is built:
    reversed, it used to give a backward grid and wrong answers."""

    BAD = [(1.0, 0.0), (0.5, 0.5), (0.0, math.nan), (math.nan, 1.0)]

    @pytest.mark.parametrize("lo, hi", BAD)
    def test_verify_conjugacy(self, caplog, lo, hi):
        f = expr.parse("4*x*(1-x)")
        with pytest.raises(dynamics.DomainValidationError) as info:
            verify_conjugacy(f, f, expr.parse("x"), (lo, hi), samples=64)
        assert str(info.value) == f"interval is degenerate: [{lo}, {hi}]"
        assert not caplog.records

    def test_forward_interval(self):
        f = expr.parse("4*x*(1-x)")
        rep = verify_conjugacy(f, f, expr.parse("x"), (0.0, 1.0), samples=64)
        assert (rep.verdict, rep.fixed_point_images_checked) == ("consistent", 2)
        assert invert(expr.parse("2*x"), (0.0, 1.0), 0.5) == (0.25, "converged")


class TestFunctionDistance:
    def test_exact_inverse_is_zero(self):
        s = make_system("2*x", "y/2", (0.0, 10.0), (0.0, 20.0))
        assert function_distance(s).d <= 1e-10

    def test_constant_offset(self):
        s = make_system("2*x", "y/2 + 0.1", (0.0, 10.0), (0.0, 20.0))
        assert function_distance(s).d == pytest.approx(0.1, abs=1e-10)

    def test_linear_perturbation_max_at_grid_end(self):
        s = make_system("2*x", "y/2 + 0.01*y", (0.0, 10.0), (0.0, 20.0))
        rep = function_distance(s)
        # dense-grid oracle with the analytic inverse y/2
        oracle = max(
            abs((y / 2 + 0.01 * y) - y / 2)
            for y in (20.0 * k / 9999 for k in range(10000))
        )
        assert rep.d == pytest.approx(oracle, abs=1e-9)
        assert rep.d == pytest.approx(0.2, abs=1e-9)
        assert rep.argmax_y == pytest.approx(20.0)

    def test_non_monotone_f_rejected(self):
        s = make_system("sin(x)", "y", (0.0, 6.28), (-1.5, 1.5))
        with pytest.raises(analysis.NonMonotoneError):
            function_distance(s)

    @pytest.mark.parametrize("system, error", [
        (("sin(x)", "y", (0.0, 6.28), (-1.5, 1.5)), analysis.NonMonotoneError),
        (("x", "y", (0.0, 1.0), (5.0, 6.0)), analysis.OutOfRangeError),
    ], ids=["non-monotone", "out-of-range"])
    def test_refusals_are_precondition_errors(self, system, error):
        # The CLI maps every dynamics.PreconditionError, and no other class,
        # to exit 4; each is a ValueError too.
        with pytest.raises(error) as exc:
            function_distance(make_system(*system))
        assert isinstance(exc.value, dynamics.PreconditionError)
        assert isinstance(exc.value, ValueError)

    def test_inverse_pair_affine(self):
        s = make_system("2*x+1", "(y-1)/2", (0.0, 1.0), (1.0, 3.0))
        assert function_distance(s).d <= 1e-10

    def test_direction_reported(self):
        s = make_system("-x", "-y", (0.0, 1.0), (-1.0, 0.0))
        assert function_distance(s).monotone_direction == "decreasing"

    def test_case1_evaluations_per_sample(self, monkeypatch):
        # Machine-independent cost guard: warm-started Newton steps, and
        # f(lo), f(hi) evaluated once, not once per sample.  The compiled
        # kernels run f's lines once per step of a range other than the
        # sweep's loop over its samples: the monotonicity scan's points and
        # the solve's steps, counted here with evaluate's calls.
        sc = cli.load_scenario("case1")
        s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
        calls = [0]
        real = expr.evaluate

        def counting(e, v):
            calls[0] += e is s.f
            return real(e, v)

        def counted(*args):
            if args == (4096,):  # the sweep's samples
                yield from range(*args)
                return
            for k in range(*args):
                calls[0] += 1
                yield k

        def counting_kernel(template, parts, env, dual=()):
            return expr.compile_loop(template, parts, {**env, "range": counted}, dual)

        monkeypatch.setattr(expr, "evaluate", counting)
        monkeypatch.setattr(expr, "kernel", counting_kernel)
        rep = function_distance(s, 4096)
        assert calls[0] <= 6 * 4096
        assert rep.d == pytest.approx(0.05, abs=1e-6)

    def test_jump_in_f_counts_its_location(self, caplog):
        # f(x) = x - 0.1 below 0.3, f(0.3) = 0.3, x + 0.1 above: y in
        # (0.2, 0.4) other than 0.3 is inverted to where f jumps.
        s = make_system("x + 0.1*tanh(1e300*(x-0.3))", "y", (0.0, 1.0), (-1.0, 2.0))
        with caplog.at_level(logging.WARNING, logger="reflexivity.analysis"):
            rep = function_distance(s, 1201)
        assert rep.d == pytest.approx(0.1, abs=1e-12)
        assert "lie in a jump of f" in caplog.text

    def test_top_grid_point_rounding_past_range(self):
        # y_lo + (y_hi - y_lo)*(n-1)/(n-1) rounds one ulp above f(hi) here
        s = make_system("1.2754*x + 1.4597", "(y - 1.4597)/1.2754",
                        (-3.303485, 0.367968), (-4.0, 3.0))
        rep = function_distance(s, 256)
        assert rep.d <= 1e-10
        assert rep.samples == 256


class TestDetectPeriod:
    def test_logistic_two_cycle(self):
        rep = detect_period(logistic_map(3.2), 0.3, max_period=32, burn_in=1000)
        r = 3.2
        root = math.sqrt((r - 3.0) * (r + 1.0))
        expected = sorted(((r + 1 - root) / (2 * r), (r + 1 + root) / (2 * r)))
        assert rep is not None
        assert rep.period == 2
        assert sorted(rep.cycle) == pytest.approx(expected, abs=1e-5)

    def test_logistic_fixed_point(self):
        rep = detect_period(logistic_map(2.5), 0.3, max_period=32, burn_in=1000)
        assert rep.period == 1
        assert rep.cycle[0] == pytest.approx(0.6, abs=1e-6)

    def test_unbounded_orbit_gives_none(self):
        gamma = compose_gamma(make_system("x + 1", "y", (0.0, 1.0), (1.0, 2.0)))
        assert detect_period(gamma, 0.0, max_period=8, burn_in=0) is None

    def test_divergence_during_burn_in(self):
        gamma = compose_gamma(make_system("2*x", "y", (0.0, 1.0), (0.0, 2.0)))
        assert detect_period(gamma, 1.0, max_period=4, burn_in=100) is None

    def test_minimality_rejects_divisors(self):
        rep = detect_period(logistic_map(3.5), 0.3, max_period=32, burn_in=4000)
        assert rep is not None
        assert rep.period == 4
        p = rep.cycle[0]
        tol = 1e-8 * max(1.0, abs(p))
        for m in (1, 2):
            q = p
            for _ in range(m):
                q = logistic_map(3.5)(q)
            assert abs(q - p) > tol

    def test_residual_bound(self):
        rep = detect_period(logistic_map(3.2), 0.3, max_period=32, burn_in=2000)
        assert rep.residual <= 1e-8

    def test_takes_only_a_composite_map(self):
        with pytest.raises(TypeError, match=r"^detect_period takes compose_gamma\(s\), "
                                            r"not function$"):
            detect_period(lambda x: x / 2, 0.5)

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_raises_at_step_0(self, x0):
        with pytest.raises(dynamics.OrbitNumericError,
                           match=rf"^non-finite state x={x0!r} \(step 0\)$") as info:
            detect_period(logistic_map(3.2), x0)
        assert info.value.step == 0


class TestDetectBoomBust:
    def test_takes_only_an_orbit(self):
        with pytest.raises(TypeError, match="^detect_boom_bust takes an Orbit, not list$"):
            detect_boom_bust([0.0, 1.0, 0.5])

    def test_hand_checked_sequence(self):
        events = detect_boom_bust(as_orbit([0.0, 1.0, 2.0, 3.0, 2.9, 1.0]), min_run=3,
                                  retrace_threshold=0.5)
        assert len(events) == 1
        ev = events[0]
        assert ev.rise_start == 0
        assert ev.peak == 3
        assert ev.reversal_end == 5
        assert ev.amplitude == 3.0
        assert ev.retrace_fraction == pytest.approx(2.0 / 3.0)

    def test_monotone_orbit_has_no_events(self):
        s = make_system("0.5*x + 0.25", "y", (-10.0, 10.0), (-5.0, 6.0))
        o = orbit(s, 0.0, 200)
        assert detect_boom_bust(o) == []

    def test_small_retrace_ignored(self):
        o = as_orbit([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 4.9])
        assert detect_boom_bust(o, min_run=3, retrace_threshold=0.5) == []

    def test_falling_then_rising_reported_negated(self):
        o = as_orbit([5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 4.5])
        events = detect_boom_bust(o, min_run=3, retrace_threshold=0.5)
        assert len(events) == 1
        assert events[0].amplitude == -5.0
        assert events[0].retrace_fraction == pytest.approx(0.9)

    def test_empty_orbit(self):
        assert detect_boom_bust(as_orbit([])) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_boom_bust(as_orbit([1.0, 2.0]), min_run=1)
        with pytest.raises(ValueError):
            detect_boom_bust(as_orbit([1.0, 2.0]), retrace_threshold=0.0)


class TestVerifyConjugacy:
    def test_identity_conjugacy(self):
        f = expr.parse("3.7*x*(1-x)")
        rep = verify_conjugacy(f, f, expr.parse("x"), (0.0, 1.0), samples=512)
        assert rep.verdict == "consistent"
        assert rep.max_residual == 0.0

    def test_tent_logistic_classical_identity(self):
        rep = verify_conjugacy(
            expr.parse("1 - 2*abs(x - 0.5)"),
            expr.parse("4*x*(1-x)"),
            expr.parse("sin(1.5707963267948966*x)^2"),
            (0.0, 1.0),
            samples=4096,
        )
        assert rep.verdict == "consistent"
        assert rep.max_residual <= 1e-9
        assert rep.fixed_point_images_checked == 2

    def test_negative_control(self):
        rep = verify_conjugacy(
            expr.parse("2*x"), expr.parse("3*x"), expr.parse("x"),
            (0.0, 1.0), samples=1024)
        assert rep.verdict == "violated"
        assert rep.max_residual == pytest.approx(1.0, abs=1e-12)
        assert rep.violation_x == pytest.approx(1.0)

    def test_non_monotone_h_rejected(self):
        with pytest.raises(analysis.NonMonotoneError):
            verify_conjugacy(
                expr.parse("x"), expr.parse("x"), expr.parse("x^2"),
                (-1.0, 1.0), samples=64)

    def test_first_failing_grid_point_decides_the_error(self):
        # Point by point, g fails at x = 0 before f fails at x = 0.9; the
        # grid passes would meet f's error first, so the loop takes over.
        with pytest.raises(expr.EvalDomainError) as exc:
            verify_conjugacy(expr.parse("x + 1/(x - 0.9)"), expr.parse("log(x - 0.1)"),
                             expr.parse("x"), (0.0, 1.0), samples=11)
        assert str(exc.value) == "log of non-positive value -0.1 (node at offset 0)"

    def test_nan_residuals_are_passed_over(self):
        # f is nan for x > 0 (inf - inf); the residual |x/2 - x/3| on
        # [-1, 0] peaks at x = -1.
        f = expr.parse("x/2 + (x + abs(x))*1e300*1e300 - (x + abs(x))*1e300*1e300")
        assert math.isnan(expr.evaluate(f, 0.5))
        rep = verify_conjugacy(f, expr.parse("x/3"), expr.parse("x"), (-1.0, 1.0), samples=101)
        assert rep.max_residual == abs(-0.5 - (-1.0 / 3.0))
        assert rep.violation_x == -1.0
        assert rep.verdict == "violated"

    # f is x/2 on [-1, 0] and NaN for x > 0, so every finite residual
    # against g = x/2 is 0.
    NAN_RIGHT = "x/2 + (x + abs(x))*1e300*1e300 - (x + abs(x))*1e300*1e300"

    def test_nan_residual_alone_is_a_violation(self):
        rep = verify_conjugacy(expr.parse(self.NAN_RIGHT), expr.parse("x/2"),
                               expr.parse("x"), (-1.0, 1.0), samples=101)
        assert rep.verdict == "violated"
        assert rep.max_residual == 0.0
        assert rep.violation_x == min(x for x in dynamics._grid(-1.0, 1.0, 101) if x > 0)

    def test_no_finite_residual_reports_nan(self):
        rep = verify_conjugacy(expr.parse("x*1e300*1e300 - x*1e300*1e300"), expr.parse("x"),
                               expr.parse("x"), (0.5, 1.0), samples=101)
        assert math.isnan(rep.max_residual)
        assert rep.verdict == "violated"
        assert rep.violation_x == 0.5
        assert rep.fixed_point_images_checked == 0

    def test_nan_grid_value_brackets_no_root(self, caplog):
        # On f's fixed-point grid (1024 points of [-1, 1], none at 0),
        # g = f(x) - x is -x/2 left of 0 and NaN right of it, where no line
        # fails, so no point is skipped.  A NaN end brackets nothing, so the
        # scan solves no bracket: it finds no root, jump or failed bracket.
        f = expr.parse(self.NAN_RIGHT)
        w, m = dynamics._grid_span(-1.0, 1.0, 1024)
        assert dynamics._scan(f, analysis._identity())(-1.0, w, m, 1024, dynamics.ROOT_TOL) == \
            ([], 0, 0, 0)
        with caplog.at_level(logging.WARNING, logger="reflexivity.dynamics"):
            verify_conjugacy(f, expr.parse("x/2"), expr.parse("x"), (-1.0, 1.0), samples=101)
        assert "jumps" not in caplog.text

    # W is inf at y = 0.5 and 0 elsewhere, so W - W is NaN only there.
    W = "exp(-((y - 0.5)*1e300*1e300)*((y - 0.5)*1e300*1e300))*1e300*1e300"

    @pytest.mark.parametrize("samples", [4, 100, 4096])
    def test_nan_fixed_point_image_is_a_violation(self, samples):
        # Every grid residual is 0, but g is NaN at h(0.5), the image of f's
        # fixed point.
        g = expr.parse(f"y/2 + 0.25 + ({self.W} - {self.W})")
        assert math.isnan(expr.evaluate(g, 0.5))
        rep = verify_conjugacy(expr.parse("x/2 + 0.25"), g, expr.parse("x"), (0.0, 1.0),
                               samples)
        assert (rep.verdict, rep.violation_x, rep.max_residual,
                rep.fixed_point_images_checked) == ("violated", 0.5, 0.0, 1)

    def test_consistent_pairs_have_corresponding_orbits(self):
        # h(x) = x^3 conjugates x/2 to y/8; both orbits contract
        f = expr.parse("x/2")
        g = expr.parse("x/8")
        h = expr.parse("x^3")
        rep = verify_conjugacy(f, g, h, (0.0, 1.0), samples=512)
        assert rep.verdict == "consistent"
        x = 0.9
        y = expr.evaluate(h, x)
        for _ in range(50):
            assert abs(expr.evaluate(h, x) - y) <= 1e-7
            x = expr.evaluate(f, x)
            y = expr.evaluate(g, y)


class TestCaseDichotomy:
    def test_case1_monotone_convergent_no_events(self, case1_system_orbit):
        s, o = case1_system_orbit
        assert o.terminated_by == "convergence"
        xs = o.xs()
        tail = xs[len(xs) // 4:]
        diffs = [b - a for a, b in zip(tail, tail[1:])]
        assert all(d >= -1e-12 for d in diffs)  # eventually monotone
        assert detect_boom_bust(o) == []
        # orbit heads to the attracting fixed point at pi/2
        assert xs[-1] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_case1_alternating_stability_signatures(self, case1_system_orbit):
        s, _ = case1_system_orbit
        fps = dynamics.find_fixed_points(s)
        assert [fp.stability for fp in fps] == ["repelling", "attracting", "repelling"]

    def test_case2_produces_boom_bust(self, case2_system_orbit):
        _, o = case2_system_orbit
        events = detect_boom_bust(o, min_run=5, retrace_threshold=0.5)
        assert len(events) >= 1
        assert all(ev.retrace_fraction >= 0.5 for ev in events)


@pytest.fixture
def case1_system_orbit():
    from reflexivity.cli import load_scenario
    sc = load_scenario("case1")
    s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
    return s, orbit(s, sc["x0"], sc["steps"])


@pytest.fixture
def case2_system_orbit():
    from reflexivity.cli import load_scenario
    sc = load_scenario("case2")
    s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
    return s, orbit(s, sc["x0"], sc["steps"])
