"""Columnar orbits against the paths they replace.

An orbit from orbit() keeps its x and y columns,
detect_boom_bust scans the x column with builtins, and render draws from
columns.  The references are the run-by-run boom-bust detection in
boom_bust_runs and the point-by-point rendering in render_points.  Results
are compared by repr, so -0.0 and NaN are told apart, and documents byte
for byte.
"""

import math
import pickle
import random
from itertools import repeat
from operator import add, sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import boom_bust_runs
import render_points
from conftest import as_orbit
from reflexivity import analysis, dynamics, render
from reflexivity.dynamics import Orbit, SystemState, make_system, orbit

# Values whose differences are NaN, infinite, signed zeros, subnormal or
# overflowing.
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0)
RULES = [(2, 0.1), (3, 0.5), (5, 1.0), (5, 0.5), (2, 1.0)]


def piecewise_monotone(rng):
    """A list of 0 to about 60 values: stretches that rise, fall or stay
    flat, with edge values mixed in."""
    n = rng.choice((0, 1, 2, 3, rng.randrange(4, 60)))
    xs = []
    while len(xs) < n:
        direction = rng.choice((1, 1, -1, -1, 0))
        x = xs[-1] if xs and math.isfinite(xs[-1]) else rng.uniform(-2.0, 2.0)
        for _ in range(rng.randrange(1, 12)):
            if rng.random() < 0.03:
                x = rng.choice(EDGES)
            elif math.isfinite(x):
                x += direction * (rng.uniform(0.0, 1.0) if rng.random() < 0.9
                                  else rng.choice((5e-324, 1e-300)))
            xs.append(x)
    return xs[:n]


class TestBoomBustScan:
    def test_random_lists(self):
        rng = random.Random(12)
        events = 0
        for _ in range(3000):
            xs = piecewise_monotone(rng)
            for min_run, threshold in RULES:
                want = repr(boom_bust_runs.detect_boom_bust(xs, min_run, threshold))
                assert repr(analysis.detect_boom_bust(as_orbit(xs), min_run, threshold)) == \
                    want, (xs, min_run, threshold)
                events += want != "[]"
        assert events > 800, events

    def test_lists_of_edge_values(self):
        rng = random.Random(13)
        for _ in range(3000):
            xs = [rng.choice(EDGES) for _ in range(rng.randrange(0, 12))]
            for min_run, threshold in RULES:
                assert repr(analysis.detect_boom_bust(as_orbit(xs), min_run, threshold)) == \
                    repr(boom_bust_runs.detect_boom_bust(xs, min_run, threshold)), xs

    @pytest.mark.parametrize("f, phi, x0, n", [
        ("3.9*x*(1-x)", "y", 0.3, 3000),
        ("3.2*x*(1-x)", "y", 0.4, 500),
        ("1 - abs(1 - 2*x)", "y", 0.2, 400),
        ("0.95*sin(3.14159*x)", "y", 0.7, 400),
        ("2*x", "y", 0.3, 100),  # diverges
        ("cos(x)", "y", 1.0, 500),  # converges
    ])
    def test_loop_orbits(self, f, phi, x0, n):
        o = orbit(make_system(f, phi, (-1.0, 1.0), (-1.0, 1.0)), x0, n)
        for min_run, threshold in RULES:
            assert repr(analysis.detect_boom_bust(o, min_run, threshold)) == \
                repr(boom_bust_runs.detect_boom_bust(o, min_run, threshold))

    def test_case2_boom_then_bust(self):
        from reflexivity.cli import load_scenario
        sc = load_scenario("case2")
        s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
        o = orbit(s, sc["x0"], sc["steps"])
        got = analysis.detect_boom_bust(o)
        assert got and repr(got) == repr(boom_bust_runs.detect_boom_bust(o, 5, 0.5))

    @pytest.mark.parametrize("min_run, threshold, message", [
        (1, 0.5, "min_run must be >= 2"),
        (math.nan, 0.5, "min_run must be >= 2"),
        (2, 0.0, "retrace_threshold must be in (0, 1]"),
        (2, math.nan, "retrace_threshold must be in (0, 1]"),
    ])
    def test_preconditions(self, min_run, threshold, message):
        with pytest.raises(dynamics.PreconditionError, match=message.replace("(", r"\(")):
            analysis.detect_boom_bust(as_orbit([0.0, 1.0]), min_run, threshold)


def _column_cases():
    logistic = make_system("3.9*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
    return {
        "loop": (orbit(logistic, 0.3, 600), True),
        "one-step": (orbit(logistic, 0.3, 1), True),
        "two-steps": (orbit(logistic, 0.3, 2), True),
        "diverges": (orbit(make_system("2*x", "y", (-1.0, 1.0), (-2.0, 2.0)), 0.3, 500), True),
        "diverges-at-step-1": (orbit(make_system("x*1e300", "y*1e300", (0.0, 1.0), (0.0, 1.0)),
                                     0.5, 50), True),
        "converges": (orbit(make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0)), 1.0, 500),
                      True),
        "converges-at-once": (orbit(make_system("x", "y", (0.0, 1.0), (0.0, 1.0)), -0.0, 100),
                              True),
        "hand-built": (Orbit((SystemState(-0.0, math.nan, 7), SystemState(math.inf, 1.0, 2)),
                             "divergence"), False),
        "empty": (Orbit((), "step-budget"), False),
    }


class TestOrbitColumns:
    @pytest.mark.parametrize("case", list(_column_cases()))
    def test_columns_are_the_states(self, case):
        o, kept = _column_cases()[case]
        assert repr(o.xs()) == repr([st.x for st in o.states])
        assert repr(o.ys()) == repr([st.y for st in o.states])
        assert (o._xs is not None, o._ys is not None) == (kept, kept)
        again = pickle.loads(pickle.dumps(o))
        assert repr(again) == repr(o) and again._xs is None and repr(again.xs()) == repr(o.xs())

    def test_returned_lists_are_copies(self):
        o, _ = _column_cases()["loop"]
        before = repr(o)
        xs, ys = o.xs(), o.ys()
        xs[3] = ys[3] = 99.0
        xs.append(1.0)
        assert repr(o.xs()) == repr([st.x for st in o.states])
        assert repr(o.ys()) == repr([st.y for st in o.states])
        assert repr(o) == before

    def test_states_are_records(self):
        o, _ = _column_cases()["loop"]
        assert all(type(st) is SystemState for st in o.states)
        assert [st.index for st in o.states] == list(range(len(o.states)))
        assert o.states[5] == SystemState(o.xs()[5], o.ys()[5], 5)


RTOL = dynamics.CONVERGENCE_RTOL
SPECIAL = (1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), math.nextafter(-1.0, -2.0),
           math.nextafter(-1.0, 0.0), 1e12, -1e12, 0.5, -3.75)


def old_test(x, p):
    return abs(x - p) < RTOL * max(1.0, abs(p))


def loop_test(x, p):
    """The compiled loop's convergence test, as its template writes it."""
    t = RTOL * (p if p > 1.0 else -p if p < -1.0 else 1.0)
    return -t < x - p < t


class TestConvergenceComparison:
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(1.0 + 1e-13, 1.0)
    @example(-0.0, 0.0)
    @example(5e-324, -5e-324)
    def test_random_pairs(self, x, p):
        assert loop_test(x, p) == old_test(x, p)

    @given(st.sampled_from(SPECIAL) | st.floats(-1e12, 1e12),
           st.integers(-3, 3), st.sampled_from((1.0, -1.0)))
    def test_near_the_tolerance(self, p, ulps, side):
        # x about one tolerance from p, a few ulps either way.
        x = p + side * RTOL * max(1.0, abs(p))
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        assert loop_test(x, p) == old_test(x, p)

    def test_every_special_pair(self):
        values = SPECIAL + tuple(p + RTOL * max(1.0, abs(p)) for p in SPECIAL)
        for p in SPECIAL:
            for x in values:
                for y in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
                    assert loop_test(y, p) == old_test(y, p), (y, p)


def _render_orbits():
    case1 = make_system("2*x + 0.3*sin(x)", "y/2 + 0.05*sin(y)", (-10.0, 10.0), (-25.0, 25.0))
    logistic = make_system("3.9*x*(1-x)", "y", (0.0, 1.0), (0.0, 1.0))
    return [(logistic, orbit(logistic, 0.3, 700)), (logistic, orbit(logistic, 0.3, 1)),
            (case1, orbit(case1, 3.0, 50)), (case1, orbit(case1, -0.0, 3))]


def _edge_traces():
    rng = random.Random(14)
    traces = [render.StaircaseTrace((), (), (), ()), render.PhasePortraitTrace(())]
    for _ in range(300):
        pts = tuple((rng.choice(EDGES) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0),
                     rng.choice(EDGES) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0))
                    for _ in range(rng.randrange(0, 9)))
        traces.append(render.PhasePortraitTrace(pts))
        traces.append(render.StaircaseTrace(tuple(zip(pts, pts[1:])), pts[:3], pts[3:5],
                                            pts[5:7]))
    return traces


def _drawable(trace):
    """Whether to_svg draws trace: every point finite, and each data span,
    padded where it is 0, above 0 and finite over the ticks' steps."""
    if isinstance(trace, render.StaircaseTrace):
        pts = [*(p for seg in trace.segments for p in seg), *trace.curve_f, *trace.curve_phi,
               *trace.fixed_points]
    else:
        pts = list(trace.points)
    if not all(math.isfinite(c) for p in pts for c in p):
        return False
    x_lo, x_hi, y_lo, y_hi = render_points._data_bounds(trace)
    return all(0.0 < (hi - lo) * (render._TICKS - 1) < math.inf
               for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)))


class TestRenderFromColumns:
    OPTIONS = (None, render.RenderOptions(400, 300, 0), render.RenderOptions(97, 1013, 31))

    def test_orbit_traces_and_documents(self):
        for s, o in _render_orbits():
            trace = render.staircase(s, o, 24)
            assert repr(trace.segments) == repr(render_points.staircase_segments(o))
            portrait = render.phase_portrait(o)
            assert repr(portrait.points) == repr(render_points.portrait_points(o))
            assert render.to_csv(o) == render_points.to_csv(o)
            for opt in self.OPTIONS:
                assert render.to_svg(trace, opt) == render_points.to_svg(trace, opt)
                assert render.to_svg(portrait, opt) == render_points.to_svg(portrait, opt)

    def test_pixel_columns_are_the_point_formulas(self):
        # to_svg's pixel columns against px and py of the point-by-point
        # code, by repr: the SVG text shows only three decimals of them.
        rng = random.Random(15)
        for _ in range(2000):
            vs = [rng.choice(EDGES) if rng.random() < 0.1 else rng.uniform(-1e3, 1e3)
                  for _ in range(5)]
            lo, hi = sorted(rng.uniform(-1e3, 1e3) for _ in range(2))
            m, size, height = rng.randrange(0, 80), rng.randrange(1, 2000), rng.randrange(1, 2000)
            px = [m + (v - lo) / (hi - lo) * size for v in vs]
            py = [height - m - (v - lo) / (hi - lo) * size for v in vs]
            assert repr(list(map(add, repeat(m), render._scaled(vs, lo, hi, size)))) == repr(px)
            assert repr(list(map(sub, repeat(height - m), render._scaled(vs, lo, hi, size)))) \
                == repr(py)

    def test_hand_built_traces_with_edge_values(self):
        # A trace to_svg cannot draw is refused; any other is drawn as the
        # point-by-point code draws it.
        drawn = refused = 0
        for i, trace in enumerate(_edge_traces()):
            opt = self.OPTIONS[i % 3]
            if _drawable(trace):
                assert render.to_svg(trace, opt) == render_points.to_svg(trace, opt), trace
                drawn += 1
            else:
                with pytest.raises(dynamics.PreconditionError, match="^cannot draw"):
                    render.to_svg(trace, opt)
                refused += 1
        assert drawn > 100 and refused > 100, (drawn, refused)

    def test_hand_built_orbit_csv(self):
        o, _ = _column_cases()["hand-built"]
        assert render.to_csv(o) == render_points.to_csv(o) == "i,x,y\n7,-0,nan\n2,inf,1\n"

    def test_unknown_trace_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot render tuple"):
            render.to_svg(())
