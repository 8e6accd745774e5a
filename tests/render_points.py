"""Rendering point by point: the reference that the column rendering of
reflexivity.render is tested against, byte for byte.

Each function is what render did before it worked from columns: a Python
step per orbit state or segment, and one f-string per drawn element
through px/py closures.
"""

from reflexivity.dynamics import _grid
from reflexivity.render import _TICKS, PhasePortraitTrace, RenderOptions, StaircaseTrace


def staircase_segments(o):
    """render.staircase's segments."""
    xs = [st.x for st in o.states]
    ys = [st.y for st in o.states]
    segments = [((xs[0], 0.0), (xs[0], ys[0]))]
    for i in range(len(xs) - 1):
        segments.append(((xs[i], ys[i]), (xs[i + 1], ys[i])))
        segments.append(((xs[i + 1], ys[i]), (xs[i + 1], ys[i + 1])))
    return tuple(segments)


def portrait_points(o):
    """render.phase_portrait's points."""
    return tuple((st.x, st.y) for st in o.states)


def to_csv(o):
    lines = ["i,x,y"]
    for st in o.states:
        lines.append("%d,%.17g,%.17g" % (st.index, st.x, st.y))
    return "\n".join(lines) + "\n"


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
    for t in _grid(x_lo, x_hi, _TICKS):
        x = px(t)
        out.append(
            f'<line class="tick" x1="{x:.3f}" y1="{opt.height - m}" '
            f'x2="{x:.3f}" y2="{opt.height - m + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{x:.3f}" y="{opt.height - m + 18}" '
            f'font-size="11" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _grid(y_lo, y_hi, _TICKS):
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
