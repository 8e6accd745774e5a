import math
import re

import pytest

from reflexivity import render
from reflexivity.dynamics import Orbit, PreconditionError, SystemState, make_system, orbit
from reflexivity.render import (
    PhasePortraitTrace,
    RenderOptions,
    StaircaseTrace,
    phase_portrait,
    staircase,
    to_csv,
    to_svg,
)
from round_trips import read_csv


@pytest.fixture
def identity_system():
    return make_system("x", "y", (0.0, 1.0), (0.0, 1.0))


@pytest.fixture
def cos_orbit():
    s = make_system("cos(x)", "y", (-10.0, 10.0), (-2.0, 2.0))
    return s, orbit(s, 1.0, 25)


class TestStaircase:
    def test_identity_one_step(self, identity_system):
        o = orbit(identity_system, 0.3, 1)
        trace = staircase(identity_system, o, curve_samples=16)
        # initial rise plus one horizontal/vertical pair, both zero length
        assert trace.segments[0] == ((0.3, 0.0), (0.3, 0.3))
        assert len(trace.segments) == 3
        for a, b in trace.segments[1:]:
            assert a == b

    def test_inverse_pair_stationary(self):
        s = make_system("2*x+1", "(y-1)/2", (0.0, 1.0), (1.0, 3.0))
        o = orbit(s, 0.4, 10)
        trace = staircase(s, o, curve_samples=16)
        for a, b in trace.segments[2:]:
            assert abs(a[0] - b[0]) <= 1e-12 and abs(a[1] - b[1]) <= 1e-12

    def test_segments_chain(self, cos_orbit):
        s, o = cos_orbit
        trace = staircase(s, o, curve_samples=64)
        for prev, nxt in zip(trace.segments, trace.segments[1:]):
            assert prev[1] == nxt[0]  # exact equality, values copied

    def test_case1_segments_shrink_toward_fixed_point(self):
        from reflexivity.cli import load_scenario
        sc = load_scenario("case1")
        s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
        o = orbit(s, sc["x0"], 200)
        trace = staircase(s, o, curve_samples=32)

        def seg_len(seg):
            (x1, y1), (x2, y2) = seg
            return abs(x2 - x1) + abs(y2 - y1)

        lens = [seg_len(sg) for sg in trace.segments[1:]]
        half = len(lens) // 2
        assert max(lens[half:]) < max(lens[:half])
        assert any(
            abs(fx - o.states[-1].x) < 1e-6 for fx, _ in trace.fixed_points
        )

    def test_empty_orbit_rejected(self, identity_system):
        with pytest.raises(ValueError):
            staircase(identity_system, Orbit((), "step-budget"))

    def test_curve_sampling(self, cos_orbit):
        s, o = cos_orbit
        trace = staircase(s, o, curve_samples=40)
        assert len(trace.curve_f) == 40
        assert len(trace.curve_phi) == 40


class TestPhasePortrait:
    def test_stationary_orbit_repeats_point(self, identity_system):
        o = orbit(identity_system, 0.3, 5)
        trace = phase_portrait(o)
        assert len(trace.points) == len(o.states)
        assert set(trace.points) == {(0.3, 0.3)}

    def test_point_count(self, cos_orbit):
        _, o = cos_orbit
        assert len(phase_portrait(o).points) == len(o.states)

    def test_case2_path_reverses(self):
        from reflexivity.cli import load_scenario
        sc = load_scenario("case2")
        s = make_system(sc["f"], sc["phi"], sc["x_domain"], sc["y_domain"])
        o = orbit(s, sc["x0"], sc["steps"])
        xs = [p[0] for p in phase_portrait(o).points]
        diffs = [b - a for a, b in zip(xs, xs[1:])]
        assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)


class TestCsv:
    def test_header_only_for_empty_orbit(self):
        assert to_csv(Orbit((), "step-budget")) == "i,x,y\n"

    def test_three_states_four_lines(self, identity_system):
        o = orbit(identity_system, 0.25, 2)
        text = to_csv(o)
        assert text.splitlines()[0] == "i,x,y"
        assert len(text.splitlines()) == len(o.states) + 1

    def test_round_trip_bit_exact(self, cos_orbit):
        _, o = cos_orbit
        rows = read_csv(to_csv(o))
        assert len(rows) == len(o.states)
        for (x, y, index), want in zip(rows, o.states):
            assert x == want.x  # bit-exact via 17 significant digits
            assert y == want.y
            assert index == want.index


class TestSvg:
    def test_deterministic(self, cos_orbit):
        s, o = cos_orbit
        trace = staircase(s, o, curve_samples=32)
        assert to_svg(trace) == to_svg(trace)

    def test_two_segment_trace_has_two_step_lines(self):
        trace = StaircaseTrace(
            segments=(((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 1.0))),
            curve_f=((0.0, 0.0), (1.0, 1.0)),
            curve_phi=((0.0, 0.0), (1.0, 1.0)),
            fixed_points=(),
        )
        svg = to_svg(trace)
        assert svg.count('<line class="step"') == 2
        assert svg.count('<polyline class="curve-f"') == 1
        assert svg.count('<polyline class="curve-phi"') == 1

    def test_empty_trace_axes_only(self):
        svg = to_svg(StaircaseTrace((), (), (), ()))
        assert svg.count('<line class="step"') == 0
        assert svg.count('<line class="axis"') == 2
        assert svg.startswith('<?xml version="1.0"')

    @pytest.mark.parametrize("points, message", [
        (((0.0, 0.0), (math.inf, 1.0)), "cannot draw a point that is not finite"),
        (((0.0, math.nan), (1.0, 1.0)), "cannot draw a point that is not finite"),
        (((math.nan, 0.0), (1.0, 1.0)), "cannot draw a point that is not finite"),
        # The x span overflows over the ticks' 4 steps; then the y span.
        (((-1e308, 0.0), (1e308, 1.0)), "cannot draw data spanning [-1e+308, 1e+308]"),
        (((0.0, 0.0), (1.0, 5e307)), "cannot draw data spanning [0.0, 5e+307]"),
        # One point at 1e300: padding by 1 leaves both spans 0.
        (((1e300, 1.0),), "cannot draw data spanning [1e+300, 1e+300]"),
    ])
    def test_undrawable_points_rejected(self, points, message):
        for trace in (PhasePortraitTrace(points), StaircaseTrace((), points, (), ())):
            with pytest.raises(PreconditionError) as info:
                to_svg(trace)
            assert str(info.value) == message

    def test_widest_drawable_span(self):
        # 4.4e307 over 4 tick steps stays finite, and every pixel is a number.
        svg = to_svg(PhasePortraitTrace(((0.0, 0.0), (4.4e307, 1.0))))
        assert "nan" not in svg and "inf" not in svg and "4.4e+307" in svg

    def test_degenerate_range_padded(self):
        trace = PhasePortraitTrace(((0.5, 0.5), (0.5, 0.5)))
        svg = to_svg(trace)
        assert "-0.5" in svg and "1.5" in svg  # auto-padded tick labels

    def test_valid_document_structure(self, cos_orbit):
        _, o = cos_orbit
        svg = to_svg(phase_portrait(o))
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"' in svg
        assert svg.rstrip().endswith("</svg>")

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            to_svg(PhasePortraitTrace(((0.0, 0.0),)), RenderOptions(width=0))

    @pytest.mark.parametrize("width, height, margin", [
        (100, 600, 50), (100, 600, 80), (800, 120, 60), (800, 600, -10), (800, 600, -1)])
    def test_margin_must_leave_room_to_plot(self, width, height, margin):
        with pytest.raises(PreconditionError, match="margin must be >= 0 and less than half"):
            to_svg(PhasePortraitTrace(((0.0, 0.0), (1.0, 1.0))),
                   RenderOptions(width, height, margin))

    @pytest.mark.parametrize("width, height, margin", [(100, 600, 49), (800, 600, 0),
                                                       (800, 600, 60), (7, 3, 1)])
    def test_margins_that_fit_draw_on_the_canvas(self, cos_orbit, width, height, margin):
        _, o = cos_orbit
        svg = to_svg(phase_portrait(o), RenderOptions(width, height, margin))
        axis = r'<line class="axis" x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)"'
        (x1, y1, x2, y2), (u1, v1, u2, v2) = [tuple(map(int, a)) for a in re.findall(axis, svg)]
        # The x axis runs forward along the bottom margin, the y axis down the left.
        assert (x1, x2, y1, y2) == (margin, width - margin, height - margin, height - margin)
        assert (u1, u2, v1, v2) == (margin, margin, margin, height - margin)
        assert 0 <= x1 < x2 <= width and 0 <= v1 < v2 <= height

    def test_options_respected(self, cos_orbit):
        _, o = cos_orbit
        svg = to_svg(phase_portrait(o), RenderOptions(width=400, height=300, margin=40))
        assert 'width="400" height="300"' in svg
