"""The paper's Proposition 1 and conjugacy invariance as properties over
closed-form families of systems.

Proposition 1: every fixed point x_bar of phi(f(.)) gives the fixed point
y_bar = f(x_bar) of f(phi(.)), with the same multiplier f'(x_bar)*phi'(y_bar).
Conjugacy: for an increasing affine h, g = h(f(h^-1(.))) is conjugate to f,
and h maps each fixed point of f to one of g.
"""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from reflexivity import analysis, dynamics, expr

# The multipliers are computed at x_bar and at phi(y_bar), which differ by
# about the root tolerance (1e-12); over these families f' moves by at most
# 8 times that between them.
MULTIPLIER_RTOL = 1e-9
MULTIPLIER_ATOL = 1e-10

parameter = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def family_system(family, s, t):
    """(system, closed-form fixed points of phi(f(.))) of family with two
    parameters s and t in [0, 1]."""
    if family == "logistic":
        # r*x*(1 - x) with phi = y: fixed points 0 and 1 - 1/r.
        r = 1.2 + 2.7 * s
        return (dynamics.make_system(f"{r!r}*x*(1 - x)", "y", (0.0, 1.0), (0.0, 1.0)),
                [0.0, 1.0 - 1.0 / r])
    if family == "tanh":
        # tanh(a*x) with phi = c*y, a*c > 1: fixed points 0 and +-x_star,
        # where x_star = c*tanh(a*x_star).
        c = 0.5 + 0.5 * t
        a = (1.2 + 1.8 * s) / c
        x_star = c
        for _ in range(200):
            x_star = c * math.tanh(a * x_star)
        return (dynamics.make_system(f"tanh({a!r}*x)", f"{c!r}*y", (-1.5, 1.5), (-1.0, 1.0)),
                [-x_star, 0.0, x_star])
    # affine: f = a*x + b, phi = c*y + d, one fixed point x_bar chosen in
    # (-0.9, 0.9), with a*c at least 0.1 from 1.
    a = 0.3 + 1.7 * s
    c = (0.9 - 0.8 * t) / a if t < 0.5 else (1.1 + 0.8 * t) / a
    b = 0.25 - 0.5 * s
    x_bar = 0.9 * (2.0 * t - 1.0)
    d = x_bar - c * (a * x_bar + b)
    ys = (-a + b, a + b)
    return (dynamics.make_system(f"{a!r}*x + {b!r}", f"{c!r}*y + {d!r}", (-1.0, 1.0),
                                 (min(ys) - 1.0, max(ys) + 1.0)),
            [x_bar])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["logistic", "tanh", "affine"]), parameter, parameter)
def test_proposition_1(family, s, t):
    system, expected = family_system(family, s, t)
    fps = dynamics.find_fixed_points(system)
    assert len(fps) == len(expected), (fps, expected)
    for fp, x in zip(fps, expected):
        assert abs(fp.x_bar - x) < 1e-9, (fp, x)
        assert fp.y_bar == expr.evaluate(system.f, fp.x_bar)
        report = dynamics.check_proposition_1(system, fp)
        assert report.residual_gamma < 1e-11 and report.residual_phi_map < 1e-10, report
        # The chain rule for the map y -> f(phi(y)) at y_bar.
        slope = (expr.derivative(system.f, expr.evaluate(system.phi, fp.y_bar))
                 * expr.derivative(system.phi, fp.y_bar))
        assert math.isclose(slope, fp.multiplier,
                            rel_tol=MULTIPLIER_RTOL, abs_tol=MULTIPLIER_ATOL), fp


def conjugate_triple(family, s, p, q):
    """Sources of f and g = h(f(h^-1(y))), h = p*x + q with p > 0, and the
    number of fixed points of f on [0, 1]."""
    u = f"((y - {q!r})/{p!r})"
    if family == "logistic":
        r = 1.2 + 2.7 * s
        return (f"{r!r}*x*(1.0 - x)", f"{p!r}*({r!r}*{u}*(1.0 - {u})) + {q!r}", 2)
    # 0.5*tanh(a*(x - 0.5)) + 0.5, a > 2: fixed points 0.5 and 0.5 +- z,
    # where z = 0.5*tanh(a*z) < 0.5.
    a = 2.4 + 3.6 * s
    return (f"0.5*tanh({a!r}*(x - 0.5)) + 0.5",
            f"{p!r}*(0.5*tanh({a!r}*({u} - 0.5)) + 0.5) + {q!r}", 3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["logistic", "tanh"]), parameter,
       st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=-2.0, max_value=2.0),
       st.sampled_from([2, 3, 256, 1024]))
def test_affine_conjugacy_is_consistent(family, s, p, q, samples):
    f, g, fixed_points = conjugate_triple(family, s, p, q)
    h = f"{p!r}*x + {q!r}"
    report = analysis.verify_conjugacy(expr.parse(f), expr.parse(g), expr.parse(h), (0.0, 1.0),
                                       samples)
    assert report.verdict == "consistent" and report.violation_x is None, (f, g, h, report)
    assert report.fixed_point_images_checked == fixed_points, (f, report)


# The fixed points of f and of g = h(f(h^-1(.))) are each found within
# about 5e-12 of the true ones (|g - x| < 1e-12 where |multiplier - 1| >= 0.2
# over these families), so h's image of one and the other lie within 2.5e-11
# of each other in f's coordinate (p >= 0.25).  f'' is at most 14 here, so
# the multipliers there differ by at most 3.5e-10.
CONJUGATE_LOCATION_ATOL = 1e-10
CONJUGATE_MULTIPLIER_ATOL = 1e-9


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["logistic", "tanh"]), parameter,
       st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=-2.0, max_value=2.0))
def test_affine_conjugacy_keeps_fixed_points_and_multipliers(family, s, p, q):
    f, g, count = conjugate_triple(family, s, p, q)
    lo, hi = q, p * 1.0 + q  # h([0, 1])
    of_f = dynamics.find_fixed_points(dynamics.make_system(f, "y", (0.0, 1.0), (0.0, 1.0)))
    of_g = dynamics.find_fixed_points(dynamics.make_system(g, "y", (lo, hi), (lo, hi)))
    assert len(of_f) == len(of_g) == count, (f, g, of_f, of_g)
    for fp, image in zip(of_f, of_g):
        assert abs(image.x_bar - (p * fp.x_bar + q)) <= CONJUGATE_LOCATION_ATOL, (fp, image)
        assert math.isclose(image.multiplier, fp.multiplier, rel_tol=MULTIPLIER_RTOL,
                            abs_tol=CONJUGATE_MULTIPLIER_ATOL), (fp, image)


def inverse_pair(a, b):
    """f = a*x + b and phi = (y - b)/a, its inverse in closed form, on
    [-1, 1] and f's image."""
    ys = (b - a, a + b)
    return dynamics.make_system(f"{a!r}*x + {b!r}", f"(y - {b!r})/{a!r}", (-1.0, 1.0),
                                (min(ys), max(ys)))


slope = st.floats(min_value=0.5, max_value=3.0).flatmap(
    lambda a: st.sampled_from([a, -a]))
offset = st.floats(min_value=-2.0, max_value=2.0)


@settings(max_examples=30, deadline=None)
@given(slope, offset, st.sampled_from([2, 3, 256, 4096]))
def test_inverse_pair_fixes_every_grid_point(a, b, n):
    # phi(f(x)) - x is rounding, far below the root tolerance, at every grid
    # point, so each is a root and no sign change is left to solve.
    s = inverse_pair(a, b)
    w, m = dynamics._grid_span(-1.0, 1.0, n)
    assert dynamics._scan(s.f, s.phi)(-1.0, w, m, n, dynamics.ROOT_TOL) == \
        (dynamics._grid(-1.0, 1.0, n), 0, 0, 0)


@settings(max_examples=30, deadline=None)
@given(slope, offset, st.sampled_from([2, 3, 256, 4096]))
def test_inverse_pair_has_distance_zero(a, b, samples):
    # The inversion stops within INVERT_RTOL*max(1, |y|) of y in f, so within
    # that over |a| of f^-1(y); phi's own rounding adds a few ulps of
    # |y| + |b|, over |a|.
    s = inverse_pair(a, b)
    y_max = max(map(abs, s.y_domain))
    bound = (analysis.INVERT_RTOL * max(1.0, y_max)
             + 4 * sys.float_info.epsilon * (y_max + abs(b))) / abs(a)
    report = analysis.function_distance(s, samples)
    assert 0.0 <= report.d <= bound, (a, b, report)
    assert report.monotone_direction == ("increasing" if a > 0 else "decreasing")
