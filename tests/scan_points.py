"""The fixed-point scan point by point: the reference that the compiled
scan of reflexivity.dynamics.find_map_fixed_points (dynamics._SCAN) is
tested against.

scan_points calls the map at each grid point and scans the values with
builtins, as the dynamics layer did for a map without a compiled scan;
point_scan, in place of dynamics._scan, makes find_map_fixed_points scan
that way.  point_map is a map as the list references call one.
"""

import math
from itertools import compress, repeat
from operator import gt, mul

from reflexivity import expr


def scan_points(fn, lo, w, m, n, tol):
    """_SCAN's result (near, signs, skipped) for the map fn, from fn point
    by point: a point where fn fails is skipped as NaN."""
    gs = []
    skipped = 0
    for k in range(n):
        x = lo + w * k / m
        try:
            gs.append(fn(x) - x)
        except expr.EvalDomainError:
            gs.append(math.nan)
            skipped += 1
    near = list(compress(range(n), map(gt, repeat(tol), map(abs, gs))))
    for k in near:
        gs[k] = 0.0
    signs = list(compress(range(n - 1), map((0.0).__gt__, map(mul, gs, gs[1:]))))
    return near, signs, skipped


def point_scan(f, phi):
    """A stand-in for dynamics._scan(f, phi): scan_points over phi(f(x)),
    each value from expr.evaluate."""
    return lambda *grid: scan_points(lambda x: expr.evaluate(phi, expr.evaluate(f, x)), *grid)


def point_map(value, derivative):
    """value as a map with its derivative: fn(x) and fn.derivative(x)."""
    def fn(x):
        return value(x)
    fn.derivative = derivative
    return fn
