"""Staircase (cobweb) diagrams and phase portraits as CSV text and
standalone SVG 1.1 documents.  All output is deterministic: identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

from . import dynamics as _dyn
from . import expr as _expr

DEFAULT_CURVE_SAMPLES = 256
_TICKS = 5  # tick marks per axis, both ends included


@_expr.record
class RenderOptions:
    width: int = 800
    height: int = 600
    margin: int = 60


@_expr.record
class StaircaseTrace:
    segments: tuple  # ((x1, y1), (x2, y2)) pairs, chained end to start
    curve_f: tuple  # (x, f(x)) polyline
    curve_phi: tuple  # (phi(y), y) polyline, i.e. the locus x = phi(y)
    fixed_points: tuple  # (x_bar, y_bar) markers


@_expr.record
class PhasePortraitTrace:
    points: tuple  # (x_i, y_i) in orbit order
    connect: bool = True


def staircase(s, o, curve_samples=DEFAULT_CURVE_SAMPLES):
    """Vertical moves to the f curve alternating with horizontal moves to
    the phi curve; the first vertical rise starts at the (x0, 0) baseline.
    """
    if not o.states:
        raise ValueError("orbit is empty")
    if curve_samples < 2:
        raise ValueError("curve_samples must be >= 2")
    xs = o.xs()
    ys = o.ys()
    segments = [((xs[0], 0.0), (xs[0], ys[0]))]
    for i in range(len(xs) - 1):
        segments.append(((xs[i], ys[i]), (xs[i + 1], ys[i])))
        segments.append(((xs[i + 1], ys[i]), (xs[i + 1], ys[i + 1])))

    grid_x = _dyn._grid(*s.x_domain, curve_samples)
    curve_f = tuple(zip(grid_x, _expr.evaluate_many(s.f, grid_x)))
    grid_y = _dyn._grid(*s.y_domain, curve_samples)
    curve_phi = tuple(zip(_expr.evaluate_many(s.phi, grid_y), grid_y))
    fps = tuple((fp.x_bar, fp.y_bar) for fp in _dyn.find_fixed_points(s))
    return StaircaseTrace(tuple(segments), curve_f, curve_phi, fps)


def phase_portrait(o):
    """The orbit (x_i, y_i) as a connected path."""
    if not o.states:
        raise ValueError("orbit is empty")
    return PhasePortraitTrace(tuple((st.x, st.y) for st in o.states), connect=True)


# ---------------------------------------------------------------------------
# CSV

def to_csv(o):
    """Header i,x,y; 17 significant digits (round-trip exact for doubles)."""
    lines = ["i,x,y"]
    for st in o.states:
        lines.append("%d,%.17g,%.17g" % (st.index, st.x, st.y))
    return "\n".join(lines) + "\n"


def orbit_states_from_csv(text):
    """Parse to_csv output back into a list of SystemState."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "i,x,y":
        raise ValueError("missing i,x,y header")
    states = []
    for ln in lines[1:]:
        i, x, y = ln.split(",")
        states.append(_dyn.SystemState(float(x), float(y), int(i)))
    return states


# ---------------------------------------------------------------------------
# SVG

def _data_bounds(trace):
    pts = []
    if isinstance(trace, StaircaseTrace):
        for a, b in trace.segments:
            pts.append(a)
            pts.append(b)
        pts.extend(trace.curve_f)
        pts.extend(trace.curve_phi)
        pts.extend(trace.fixed_points)
    elif isinstance(trace, PhasePortraitTrace):
        pts.extend(trace.points)
    else:
        raise TypeError(f"cannot render {type(trace).__name__}")
    if not pts:
        return (0.0, 1.0, 0.0, 1.0)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    return (x_lo, x_hi, y_lo, y_hi)


def to_svg(trace, options=None):
    """Standalone SVG 1.1 document with axes and tick labels."""
    opt = options or RenderOptions()
    if opt.width <= 0 or opt.height <= 0:
        raise ValueError("dimensions must be positive")
    x_lo, x_hi, y_lo, y_hi = _data_bounds(trace)
    m = opt.margin
    plot_w = opt.width - 2 * m
    plot_h = opt.height - 2 * m

    def px(x):
        return m + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return opt.height - m - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opt.width}" height="{opt.height}" '
        f'viewBox="0 0 {opt.width} {opt.height}">',
        f'<rect x="0" y="0" width="{opt.width}" height="{opt.height}" fill="white"/>',
        f'<line class="axis" x1="{m}" y1="{opt.height - m}" x2="{opt.width - m}" '
        f'y2="{opt.height - m}" stroke="black" stroke-width="1"/>',
        f'<line class="axis" x1="{m}" y1="{m}" x2="{m}" y2="{opt.height - m}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for t in _dyn._grid(x_lo, x_hi, _TICKS):
        x = px(t)
        out.append(
            f'<line class="tick" x1="{x:.3f}" y1="{opt.height - m}" '
            f'x2="{x:.3f}" y2="{opt.height - m + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{x:.3f}" y="{opt.height - m + 18}" '
            f'font-size="11" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _dyn._grid(y_lo, y_hi, _TICKS):
        y = py(t)
        out.append(
            f'<line class="tick" x1="{m - 5}" y1="{y:.3f}" x2="{m}" y2="{y:.3f}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{m - 8}" y="{y + 4:.3f}" '
            f'font-size="11" text-anchor="end">{t:.4g}</text>'
        )

    def polyline(points, cls, color):
        coords = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in points)
        return (
            f'<polyline class="{cls}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )

    if isinstance(trace, StaircaseTrace):
        if trace.curve_f:
            out.append(polyline(trace.curve_f, "curve-f", "#1f77b4"))
        if trace.curve_phi:
            out.append(polyline(trace.curve_phi, "curve-phi", "#2ca02c"))
        for (x1, y1), (x2, y2) in trace.segments:
            out.append(
                f'<line class="step" x1="{px(x1):.3f}" y1="{py(y1):.3f}" '
                f'x2="{px(x2):.3f}" y2="{py(y2):.3f}" stroke="#d62728" stroke-width="1"/>'
            )
        for x, y in trace.fixed_points:
            out.append(
                f'<circle class="fixed-point" cx="{px(x):.3f}" cy="{py(y):.3f}" '
                'r="4" fill="black"/>'
            )
    else:
        if trace.connect and len(trace.points) > 1:
            out.append(polyline(trace.points, "orbit", "#d62728"))
        for x, y in trace.points:
            out.append(
                f'<circle class="orbit-point" cx="{px(x):.3f}" cy="{py(y):.3f}" '
                'r="2" fill="#d62728"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
