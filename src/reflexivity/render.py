"""Staircase (cobweb) diagrams and phase portraits as CSV text and
standalone SVG 1.1 documents.  All output is deterministic: identical
inputs produce byte-identical documents.

Traces are built from an orbit's x and y columns, and documents from
columns of pixel coordinates, one format string per kind of element.
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from operator import add, attrgetter, itemgetter, mul, sub, truediv

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


def staircase(s, o, curve_samples=DEFAULT_CURVE_SAMPLES):
    """Vertical moves to the f curve alternating with horizontal moves to
    the phi curve; the first vertical rise starts at the (x0, 0) baseline.
    """
    if not o.states:
        raise _dyn.PreconditionError("orbit is empty")
    if curve_samples < 2:
        raise _dyn.PreconditionError("curve_samples must be >= 2")
    xs = o.xs()
    ys = o.ys()
    points = list(zip(xs, ys))
    corners = list(zip(xs[1:], ys))  # (x_{i+1}, y_i)
    segments = [((xs[0], 0.0), points[0]),
                *chain.from_iterable(zip(zip(points, corners), zip(corners, points[1:])))]

    grid_x = _dyn._grid(*s.x_domain, curve_samples)
    curve_f = tuple(zip(grid_x, _expr.evaluate_many(s.f, grid_x)))
    grid_y = _dyn._grid(*s.y_domain, curve_samples)
    curve_phi = tuple(zip(_expr.evaluate_many(s.phi, grid_y), grid_y))
    fps = tuple((fp.x_bar, fp.y_bar) for fp in _dyn.find_fixed_points(s))
    return StaircaseTrace(tuple(segments), curve_f, curve_phi, fps)


def phase_portrait(o):
    """The orbit (x_i, y_i) as one path through its points."""
    if not o.states:
        raise _dyn.PreconditionError("orbit is empty")
    return PhasePortraitTrace(tuple(zip(o.xs(), o.ys())))


# ---------------------------------------------------------------------------
# CSV

def to_csv(o):
    """Header i,x,y; 17 significant digits (round-trip exact for doubles)."""
    rows = zip(map(attrgetter("index"), o.states), o.xs(), o.ys())
    return "i,x,y\n" + "".join(map("%d,%.17g,%.17g\n".__mod__, rows))


# ---------------------------------------------------------------------------
# SVG

def _bounds(xs, ys):
    if not xs:
        return (0.0, 1.0, 0.0, 1.0)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    return (x_lo, x_hi, y_lo, y_hi)


def _scaled(vs, lo, hi, size):
    """(v - lo) / (hi - lo) * size for each of vs, in that order."""
    return map(mul, map(truediv, map(sub, vs, repeat(lo)), repeat(hi - lo)), repeat(size))


_STEP = ('<line class="step" x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
         'stroke="#d62728" stroke-width="1"/>')
_FIXED_POINT = '<circle class="fixed-point" cx="%.3f" cy="%.3f" r="4" fill="black"/>'
_ORBIT_POINT = '<circle class="orbit-point" cx="%.3f" cy="%.3f" r="2" fill="#d62728"/>'


def _polyline(pixels, cls, color):
    coords = " ".join(map("%.3f,%.3f".__mod__, pixels))
    return (f'<polyline class="{cls}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>')


def to_svg(trace, options=None):
    """Standalone SVG 1.1 document with axes and tick labels.  A point that
    is not finite, or a data span (padded where 0) still 0 or too wide for
    the ticks' grid, is a PreconditionError: its pixels would not be numbers.
    """
    opt = options or RenderOptions()
    if opt.width <= 0 or opt.height <= 0:
        raise _dyn.PreconditionError("dimensions must be positive")
    if not 0 <= 2 * opt.margin < min(opt.width, opt.height):
        raise _dyn.PreconditionError("margin must be >= 0 and less than half of each dimension")
    # Every drawn point, in drawing order; the data bounds come from all.
    if isinstance(trace, StaircaseTrace):
        parts = (list(chain.from_iterable(trace.segments)), trace.curve_f,
                 trace.curve_phi, trace.fixed_points)
    elif isinstance(trace, PhasePortraitTrace):
        parts = (trace.points,)
    else:
        raise TypeError(f"cannot render {type(trace).__name__}")
    xs = list(map(itemgetter(0), chain(*parts)))
    ys = list(map(itemgetter(1), chain(*parts)))
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        raise _dyn.PreconditionError("cannot draw a point that is not finite")
    x_lo, x_hi, y_lo, y_hi = _bounds(xs, ys)
    for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)):
        if not 0.0 < (hi - lo) * (_TICKS - 1) < math.inf:
            raise _dyn.PreconditionError(f"cannot draw data spanning [{lo}, {hi}]")
    m = opt.margin
    plot_w = opt.width - 2 * m
    plot_h = opt.height - 2 * m

    def px(vs):
        return list(map(add, repeat(m), _scaled(vs, x_lo, x_hi, plot_w)))

    def py(vs):
        return list(map(sub, repeat(opt.height - m), _scaled(vs, y_lo, y_hi, plot_h)))

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
    ticks = _dyn._grid(x_lo, x_hi, _TICKS)
    for t, x in zip(ticks, px(ticks)):
        out.append(
            f'<line class="tick" x1="{x:.3f}" y1="{opt.height - m}" '
            f'x2="{x:.3f}" y2="{opt.height - m + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{x:.3f}" y="{opt.height - m + 18}" '
            f'font-size="11" text-anchor="middle">{t:.4g}</text>'
        )
    ticks = _dyn._grid(y_lo, y_hi, _TICKS)
    for t, y in zip(ticks, py(ticks)):
        out.append(
            f'<line class="tick" x1="{m - 5}" y1="{y:.3f}" x2="{m}" y2="{y:.3f}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text class="tick-label" x="{m - 8}" y="{y + 4:.3f}" '
            f'font-size="11" text-anchor="end">{t:.4g}</text>'
        )

    pixels = iter(zip(px(xs), py(ys)))
    pixels = [list(islice(pixels, len(part))) for part in parts]
    if isinstance(trace, StaircaseTrace):
        steps, curve_f, curve_phi, fixed_points = pixels
        if curve_f:
            out.append(_polyline(curve_f, "curve-f", "#1f77b4"))
        if curve_phi:
            out.append(_polyline(curve_phi, "curve-phi", "#2ca02c"))
        ends = iter(steps)
        out += map(_STEP.__mod__, map(add, ends, ends))  # a segment's two pairs as one
        out += map(_FIXED_POINT.__mod__, fixed_points)
    else:
        (points,) = pixels
        if len(points) > 1:
            out.append(_polyline(points, "orbit", "#d62728"))
        out += map(_ORBIT_POINT.__mod__, points)
    out.append("</svg>")
    return "\n".join(out) + "\n"
