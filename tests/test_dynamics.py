import logging
import math
import random

import pytest

from conftest import gen_source
from reflexivity import dynamics, expr
from reflexivity.dynamics import (
    FixedPoint,
    ReflexiveSystem,
    SystemState,
    check_proposition_1,
    classify_stability,
    compose_gamma,
    find_fixed_points,
    make_system,
    orbit,
    step,
)
from scan_points import point_scan
from solve_points import bracket_solve


def linear_system(a, b, lo=-1.0, hi=1.0):
    return make_system(f"{a!r}*x", f"{b!r}*y", (lo, hi), (min(a * lo, a * hi), max(a * lo, a * hi)))


class TestSystemConstruction:
    def test_degenerate_domain_rejected(self):
        with pytest.raises(dynamics.DomainValidationError):
            make_system("x", "y", (1.0, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("x_domain, y_domain, message", [
        ((0.0, math.inf), (0.0, 1.0), "x_domain is not finite: [0.0, inf]"),
        ((0.0, 1.0), (-math.inf, 1.0), "y_domain is not finite: [-inf, 1.0]"),
        # Finite, but its 1024-point validation grid would overflow.
        ((0.0, 1e308), (0.0, 1.0), "[0.0, 1e+308] is too wide for a grid of 1024 points"),
    ])
    def test_unbounded_or_too_wide_domain_rejected(self, x_domain, y_domain, message):
        with pytest.raises(dynamics.DomainValidationError) as info:
            make_system("x/2", "y", x_domain, y_domain)
        assert str(info.value) == message

    def test_invalid_function_on_domain_rejected(self):
        with pytest.raises(dynamics.DomainValidationError):
            make_system("log(x)", "y", (-1.0, 1.0), (-1.0, 1.0))

    def test_valid_system(self):
        s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
        assert s.x_domain == (-10.0, 10.0)


def _point_by_point(fn, domain, label):
    """The finiteness check as a loop over evaluate: the reference for the
    grid-kernel check ReflexiveSystem runs."""
    for v in dynamics._grid(*domain, dynamics._VALIDATION_GRID):
        try:
            out = expr.evaluate(fn, v)
        except expr.EvalDomainError as exc:
            raise dynamics.DomainValidationError(f"{label} invalid at {v!r}: {exc}") from exc
        if not math.isfinite(out):
            raise dynamics.DomainValidationError(f"{label} not finite at {v!r}")


def _outcome(check):
    try:
        check()
    except dynamics.DomainValidationError as exc:
        return str(exc)
    return None


class TestValidationMatchesPointLoop:
    CASES = [
        ("1/x", (0.0, 1.0)),  # pole on the first grid point
        ("1/(x - 1)", (0.0, 1.0)),  # pole on the last one
        ("1/(x - 0.3001)", (0.0, 1.0)),  # pole between grid points passes
        ("log(x)", (-1.0, 1.0)),
        ("log(x)", (0.0, 1.0)),
        ("sqrt(x - 0.5)", (0.0, 1.0)),
        ("sqrt(x)", (0.0, 1.0)),
        ("exp(1000*x)", (0.0, 1.0)),  # overflow is a domain error
        ("x*1e300*1e300", (0.0, 1.0)),  # inf after the first point
        ("x*1e300*1e300 - x*1e300*1e300", (0.0, 1.0)),  # NaN after the first point
        ("1e999*x", (0.0, 1.0)),  # NaN at 0, inf after
        ("1e999 - 1e999", (0.0, 1.0)),
        ("log(0.5 - x) + x*1e300*1e300", (0.0, 1.0)),  # inf before the error
        ("tan(x)", (0.0, 3.0)),
        ("sin(x)", (-10.0, 10.0)),
        ("x^2", (-1.0, 1.0)),
    ]

    @pytest.mark.parametrize("src, domain", CASES)
    @pytest.mark.parametrize("role", ["f", "phi"])
    def test_same_message_as_point_loop(self, src, domain, role):
        fn = expr.parse(src)
        want = _outcome(lambda: _point_by_point(fn, domain, role))
        pair = (fn, expr.parse("0*y"), domain, (0.0, 1.0)) if role == "f" else \
            (expr.parse("0*x"), fn, (0.0, 1.0), domain)
        assert _outcome(lambda: ReflexiveSystem(*pair)) == want

    def test_random_expressions(self):
        rng = random.Random(20261018)
        for _ in range(300):
            fn = expr.parse(gen_source(rng, 4, wide=True))
            domain = rng.choice([(-2.0, 2.0), (0.0, 1.0), (-1.0, 0.0), (0.5, 800.0)])
            want = _outcome(lambda: _point_by_point(fn, domain, "f"))
            got = _outcome(lambda: ReflexiveSystem(fn, fn, domain, domain))
            assert got == want, fn.source


class TestStep:
    def test_inverse_pair_is_stationary(self):
        s = make_system("2*x", "y/2", (0.0, 10.0), (0.0, 20.0))
        st = step(s, SystemState(3.0, 6.0, 0))
        assert (st.x, st.y, st.index) == (3.0, 6.0, 1)

    def test_cos_with_identity_phi(self):
        s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
        st = step(s, SystemState(0.0, 1.0, 0))
        assert st.x == 1.0
        assert st.y == math.cos(1.0)

    def test_logistic_fixed_point(self):
        # analytic solve of 2.5 x (1 - x) = x gives x = 0.6
        s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        st = step(s, SystemState(0.6, 0.6, 0))
        assert st.x == pytest.approx(0.6, abs=1e-15)

    def test_non_finite_state_rejected(self):
        s = make_system("x", "y", (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(dynamics.OrbitNumericError):
            step(s, SystemState(float("nan"), 0.0, 0))


class TestOrbit:
    def test_cos_converges_to_dottie(self):
        s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
        o = orbit(s, 1.0, 500)
        # independent oracle: direct 500-fold iteration of cosine
        x = 1.0
        for _ in range(500):
            x = math.cos(x)
        assert o.terminated_by == "convergence"
        assert o.states[-1].x == pytest.approx(x, abs=1e-6)

    def test_doubling_map_diverges(self):
        s = make_system("2*x", "y", (-1.0, 1.0), (-2.0, 2.0))
        o = orbit(s, 1.0, 100000)
        assert o.terminated_by == "divergence"

    def test_identity_converges_immediately(self):
        s = make_system("x", "y", (0.0, 1.0), (0.0, 1.0))
        o = orbit(s, 0.3, 100)
        assert o.terminated_by == "convergence"
        assert o.states[-1].index == 3
        assert all(st.x == 0.3 for st in o.states)

    def test_indices_consecutive_and_consistent(self):
        s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
        o = orbit(s, 1.0, 40)
        for i, st in enumerate(o.states):
            assert st.index == i
            assert abs(st.y - math.cos(st.x)) <= 1e-12 * max(1.0, abs(st.y))
        for a, b in zip(o.states, o.states[1:]):
            assert abs(b.x - expr.evaluate(s.phi, a.y)) <= 1e-12 * max(1.0, abs(b.x))

    def test_numeric_error_carries_step_index(self):
        # x0 below 1 sends log negative on the second loop
        s = make_system("log(x)", "y", (0.1, 10.0), (-3.0, 3.0))
        with pytest.raises(dynamics.OrbitNumericError) as ei:
            orbit(s, 0.5, 10)
        assert ei.value.step >= 1

    def test_max_steps_validation(self):
        s = make_system("x", "y", (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            orbit(s, 0.5, 0)

    def test_projections_match_composite_iteration(self):
        # orbit x-projection is the gamma orbit, y-projection the orbit of
        # the map y -> f(phi(y))
        s = make_system("cos(x)", "y/2 + 0.1", (-10.0, 10.0), (-2.0, 2.0))
        o = orbit(s, 1.0, 30)
        gamma = compose_gamma(s)
        x = 1.0
        y = expr.evaluate(s.f, 1.0)
        for st in o.states:
            assert abs(st.x - x) <= 1e-12 * max(1.0, abs(x))
            assert abs(st.y - y) <= 1e-12 * max(1.0, abs(y))
            x = gamma(x)
            y = expr.evaluate(s.f, expr.evaluate(s.phi, y))


class TestCompositeMaps:
    def test_gamma_inverse_pair(self):
        s = make_system("2*x", "y/2", (0.0, 10.0), (0.0, 20.0))
        assert compose_gamma(s)(5.0) == 5.0

    def test_gamma_cos(self):
        s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
        assert compose_gamma(s)(0.0) == 1.0

    def test_gamma_linear_chain_rule(self):
        # gamma's slope at a fixed point is the multiplier f'(x) * phi'(y).
        s = make_system("2*x", "0.4*y", (-1.0, 1.0), (-2.0, 2.0))
        assert compose_gamma(s)(0.123) == 0.4 * (2 * 0.123)
        assert classify_stability(s, 0.0, 0.0).multiplier == pytest.approx(0.8, rel=1e-15)


class TestFindFixedPoints:
    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5), (0.0, math.nan)])
    def test_degenerate_interval_rejected(self, lo, hi):
        s = make_system("4*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
        assert dynamics.find_map_fixed_points(s.f, s.phi, 0.0, 1.0) == ([0.0, 0.75], 0)
        with pytest.raises(dynamics.DomainValidationError) as info:
            dynamics.find_map_fixed_points(s.f, s.phi, lo, hi)
        assert str(info.value) == f"interval is degenerate: [{lo}, {hi}]"

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_unbounded_interval_rejected(self, lo, hi):
        s = make_system("x/2", "y", (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(dynamics.DomainValidationError) as info:
            dynamics.find_map_fixed_points(s.f, s.phi, lo, hi)
        assert str(info.value) == f"interval is not finite: [{lo}, {hi}]"

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1e308, 4096), (-1e308, 1e308, 2),
                                           (0.0, 1.8e305, 1024)])
    def test_interval_too_wide_for_the_grid_rejected(self, lo, hi, n):
        # Its width times n - 1 overflows; where its width alone does not,
        # the same interval with 2 points is searched.
        s = make_system("x/2", "y", (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(dynamics.DomainValidationError) as info:
            dynamics.find_map_fixed_points(s.f, s.phi, lo, hi, n)
        assert str(info.value) == f"[{lo}, {hi}] is too wide for a grid of {n} points"
        if hi - lo < math.inf:
            assert dynamics.find_map_fixed_points(s.f, s.phi, lo, hi, 2) == ([0.0], 0)

    def test_logistic_two_fixed_points(self):
        s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        fps = find_fixed_points(s)
        assert len(fps) == 2
        zero, attract = fps
        assert zero.x_bar == pytest.approx(0.0, abs=1e-9)
        assert zero.multiplier == pytest.approx(2.5, abs=1e-9)
        assert zero.stability == "repelling"
        assert attract.x_bar == pytest.approx(0.6, abs=1e-9)
        assert attract.multiplier == pytest.approx(-0.5, abs=1e-9)
        assert attract.stability == "attracting"

    def test_no_fixed_points(self):
        s = make_system("x+1", "y", (-10.0, 10.0), (-9.0, 11.0))
        assert find_fixed_points(s) == []

    def test_inverse_pair_every_grid_point_fixed(self):
        s = make_system("2*x+1", "(y-1)/2", (0.0, 1.0), (1.0, 3.0))
        fps = find_fixed_points(s, grid_n=11)
        assert len(fps) == 11
        assert all(fp.stability == "marginal" for fp in fps)
        assert all(fp.multiplier == pytest.approx(1.0, abs=1e-12) for fp in fps)

    def test_grid_validation(self):
        s = make_system("x", "y", (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            find_fixed_points(s, grid_n=1)

    def test_root_tol_is_a_strict_bound_read_at_call_time(self, monkeypatch):
        # phi(f(x)) - x is ROOT_TOL exactly at 0, and just above it at 1.
        f, phi = expr.parse("x + 1e-12"), expr.parse("y")
        assert dynamics.find_map_fixed_points(f, phi, 0.0, 1.0, 2) == ([], 0)
        monkeypatch.setattr(dynamics, "ROOT_TOL", math.nextafter(1e-12, 1.0))
        assert dynamics.find_map_fixed_points(f, phi, 0.0, 1.0, 2) == ([0.0], 0)

    def test_residual_bounds(self):
        s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        for fp in find_fixed_points(s):
            assert fp.residual_f <= 1e-9
            assert fp.residual_phi <= 1e-9

    def test_jump_across_diagonal_is_not_a_fixed_point(self, caplog):
        # gamma - x falls from +0.05 to -0.05 between 0.3 and the next float
        s = make_system("0.35 - 0.1*tanh(1e300*(x-0.3))", "y", (0.0, 1.0), (0.0, 1.0))
        with caplog.at_level(logging.WARNING, logger="reflexivity.dynamics"):
            assert find_fixed_points(s) == []
        assert "dropped 1 sign changes that are jumps" in caplog.text

    def test_map_invalid_on_part_of_the_grid(self, caplog, monkeypatch):
        # gamma(x) = sqrt(x - 1) + 2 fails at the 134 grid points below 1,
        # which the scan skips, as the point-by-point loop does.
        s = make_system("x - 1", "sqrt(y) + 2", (-1.0, 5.0), (0.0, 4.0))
        with caplog.at_level(logging.WARNING, logger="reflexivity.dynamics"):
            (fp,) = find_fixed_points(s, 401)
        assert "skipped 134 of 401 points" in caplog.text
        assert fp.x_bar == pytest.approx((5.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)
        got = dynamics.find_map_fixed_points(s.f, s.phi, -1.0, 5.0, 401)
        monkeypatch.setattr(dynamics, "_scan", point_scan)
        assert dynamics.find_map_fixed_points(s.f, s.phi, -1.0, 5.0, 401) == got
        assert got[1] == 134

    def test_steep_root_below_float_resolution_is_kept(self):
        # |gamma - x| is about 3e-11 > ROOT_TOL at the floats next to the
        # root, but the slope 999999 on both sides accounts for that step.
        s = make_system("1000000*x - 333333.1", "y", (0.3, 0.4), (-1e6, 1e6))
        (fp,) = find_fixed_points(s)
        assert fp.x_bar == pytest.approx(333333.1 / 999999.0, abs=1e-16)
        assert fp.stability == "repelling"


class TestBracketSolve:
    """The reference solver in tests/solve_points.py; tests/test_solve.py
    runs the compiled solve against it, these cases among others."""

    def test_newton_converges_in_fewer_steps_than_bisection(self):
        g, dg = (lambda x: x * x - 2.0), (lambda x: 2.0 * x)
        x, status, newton_iters = bracket_solve(g, 0.0, 2.0, -2.0, 2.0, 1e-15, dg=dg)
        assert status == "converged" and abs(g(x)) <= 1e-15
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-15)
        # A zero slope takes no Newton step: every step bisects.
        _, status, bisect_iters = bracket_solve(g, 0.0, 2.0, -2.0, 2.0, 1e-15,
                                                dg=lambda x: 0.0)
        assert status == "converged"
        assert newton_iters <= 6 < bisect_iters

    def test_newton_step_leaving_the_bracket_bisects(self):
        # From x0 = -1.9 the Newton step for atan lands near 9.75, past b = 3.
        g = lambda x: math.atan(x - 1.0)
        dg = lambda x: 1.0 / (1.0 + (x - 1.0) ** 2)
        x, status, _ = bracket_solve(g, -2.0, 3.0, g(-2.0), g(3.0), 1e-14,
                                     x0=-1.9, dg=dg)
        assert status == "converged" and x == pytest.approx(1.0, abs=1e-13)

    def test_endpoint_within_tolerance(self):
        assert bracket_solve(lambda x: x, 0.0, 1.0, 0.0, 1.0, 1e-12,
                             dg=lambda x: 1.0) == (0.0, "converged", 0)

    def test_jump_is_discontinuity(self):
        g = lambda x: 1.0 if x > 0.3 else -1.0
        x, status, iters = bracket_solve(g, 0.0, 1.0, -1.0, 1.0, 1e-12,
                                         dg=lambda x: 0.0)
        assert status == "discontinuity"
        assert x in (0.3, math.nextafter(0.3, 1.0))
        assert iters < dynamics.SOLVE_MAX_ITER

    def test_tolerance_is_exclusive(self):
        # |g| < tol, as the fixed-point grid tests it: neither a = 0 nor the
        # midpoint 0.5, where |g| = tol, is taken for a root.
        got = bracket_solve(lambda x: x - 0.25, 0.0, 1.0, -0.25, 0.75, 0.25,
                            dg=lambda x: 1.0)
        assert got == (0.25, "converged", 2)

    def test_iteration_cap_is_logged(self, caplog):
        # Bisection from [-1, 1] needs about 1000 halvings to reach 1e-300;
        # a zero slope makes every step bisect.
        g = lambda x: x - 1e-300
        with caplog.at_level(logging.WARNING, logger="reflexivity.dynamics"):
            x, status, iters = bracket_solve(g, -1.0, 1.0, g(-1.0), g(1.0), 0.0,
                                             dg=lambda x: 0.0)
        assert (status, iters) == ("iteration-cap", dynamics.SOLVE_MAX_ITER)
        assert 0.0 <= x <= 2.0 ** -199
        assert "no convergence in 200 iterations" in caplog.text


class TestClassifyStability:
    def test_linear_attracting(self):
        s = linear_system(2.0, 0.4)
        fp = classify_stability(s, 0.0, 0.0)
        assert fp.multiplier == pytest.approx(0.8, rel=1e-15)
        assert fp.stability == "attracting"

    def test_logistic_repelling(self):
        s = make_system("3.2*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
        fp = classify_stability(s, 0.6875, 0.6875)
        assert fp.multiplier == pytest.approx(-1.2, abs=1e-12)
        assert fp.stability == "repelling"

    def test_identity_marginal(self):
        s = make_system("x", "y", (0.0, 1.0), (0.0, 1.0))
        fp = classify_stability(s, 0.5, 0.5)
        assert fp.multiplier == 1.0
        assert fp.stability == "marginal"

    def test_zero_phi_derivative_is_attracting(self):
        s = make_system("2*x", "0*y + 0.5", (0.0, 1.0), (0.0, 2.0))
        fp = classify_stability(s, 0.5, 1.0)
        assert fp.multiplier == 0.0
        assert fp.stability == "attracting"

    def test_no_derivative_is_undetermined(self):
        s = make_system("x - 1", "sqrt(y) + 1", (-1.0, 3.0), (0.0, 2.0))
        fp = classify_stability(s, 1.0, 0.0)
        assert math.isnan(fp.multiplier)
        assert fp.stability == "undetermined"
        assert (fp.residual_f, fp.residual_phi) == (0.0, 0.0)

    def test_overflowing_multiplier_is_undetermined(self):
        # The root 1e-200 is found; x^-1's derivative overflows there, which
        # makes the multiplier NaN, not the whole search fail.  A failing
        # residual evaluation still raises.
        s = make_system("2*x + 0*x^-1", "y", (1e-200, 1.0), (0.0, 3.0))
        with pytest.raises(expr.EvalDomainError, match="out of range"):
            expr.derivative(s.f, 1e-200)
        (fp,) = find_fixed_points(s)
        assert (fp.x_bar, fp.y_bar, fp.stability) == (1e-200, 2e-200, "undetermined")
        assert math.isnan(fp.multiplier) and (fp.residual_f, fp.residual_phi) == (0.0, 1e-200)
        with pytest.raises(expr.EvalDomainError, match="division by zero"):
            classify_stability(make_system("x + 0/x", "y", (1.0, 2.0), (1.0, 2.0)), 0.0, 0.0)

    def test_other_roots_survive_one_without_derivative(self):
        s = make_system("x - 1", "sqrt(y) + 1", (-1.0, 3.0), (0.0, 2.0))
        fps = find_fixed_points(s, 401)
        assert [(fp.x_bar, fp.stability) for fp in fps] == [
            (1.0, "undetermined"), (2.0, "attracting")]
        assert fps[1].multiplier == 0.5


class TestProposition1:
    def test_logistic_fixed_point(self):
        s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        rep = check_proposition_1(s, classify_stability(s, 0.6, 0.6))
        assert rep.residual_gamma <= 1e-12
        assert rep.residual_phi_map <= 1e-12

    def test_inverse_pair_grid_points(self):
        s = make_system("2*x+1", "(y-1)/2", (0.0, 1.0), (1.0, 3.0))
        for fp in find_fixed_points(s, grid_n=11):
            rep = check_proposition_1(s, fp)
            assert rep.residual_gamma <= 1e-12
            assert rep.residual_phi_map <= 1e-12

    def test_wrong_y_bar_rejected(self):
        s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        bogus = FixedPoint(0.6, 0.9, 0.0, 0.0, 0.0, "marginal")
        with pytest.raises(dynamics.PreconditionError):
            check_proposition_1(s, bogus)


class TestStabilityGroundTruth:
    def test_random_linear_systems_match_simulation(self):
        rng = random.Random(42)
        for _ in range(50):
            t = rng.uniform(0.1, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 10.0)
            a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            b = rng.choice([-1.0, 1.0]) * t / abs(a)
            s = linear_system(a, b)
            verdict = classify_stability(s, 0.0, 0.0).stability
            o = orbit(s, 1e-3, 10000)
            if verdict == "attracting":
                assert o.terminated_by == "convergence"
                assert abs(o.states[-1].x) < 1e-6
            else:
                assert verdict == "repelling"
                assert o.terminated_by == "divergence"


class TestInversePairDegeneracy:
    def test_orbits_constant_and_probes_fixed(self):
        s = make_system("2*x+1", "(y-1)/2", (0.0, 1.0), (1.0, 3.0))
        for x0 in (0.0, 0.1, 0.5, 0.9):
            o = orbit(s, x0, 50)
            assert all(abs(st.x - x0) <= 1e-12 for st in o.states)
        gamma = compose_gamma(s)
        for k in range(20):
            x = k / 19.0
            assert abs(gamma(x) - x) <= 1e-12


class TestBasinProbe:
    def test_attracting_point_recovers_small_kicks(self):
        s = make_system("2.5*x*(1-x)", "y", (-0.5, 1.5), (-5.0, 5.0))
        attract = [fp for fp in find_fixed_points(s) if fp.stability == "attracting"]
        assert attract
        for fp in attract:
            for r in (-1e-3, 1e-3):
                o = orbit(s, fp.x_bar + r, 10000)
                assert abs(o.states[-1].x - fp.x_bar) <= 1e-8
