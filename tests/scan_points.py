"""The fixed-point scan point by point: the reference that the compiled
scan of reflexivity.dynamics.find_map_fixed_points (dynamics._SCAN) is
tested against.

scan_points calls the map at each grid point and scans the values with
builtins, as the dynamics layer did for a map without a compiled scan, and
point_scan does so for phi(f(x)).  point_search, in place of dynamics._scan,
makes find_map_fixed_points search that way: point_scan, then point_root
(tests/solve_points.py) on each sign change, in the order the scan finds
them.  point_map is a map as the list references call one.
"""

import math
from itertools import compress, repeat
from operator import gt, itemgetter, mul

from reflexivity import expr
from solve_points import point_root


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
    signs = [(k, gs[k], gs[k + 1])
             for k in compress(range(n - 1), map((0.0).__gt__, map(mul, gs, gs[1:])))]
    return near, signs, skipped


def point_scan(f, phi):
    """A stand-in for dynamics._scan(f, phi): scan_points over phi(f(x)),
    each value from expr.evaluate."""
    return lambda *grid: scan_points(lambda x: expr.evaluate(phi, expr.evaluate(f, x)), *grid)


def point_search(f, phi):
    """A stand-in for dynamics._scan(f, phi): point_scan's near points and
    skipped count, and point_root's solve of each of its sign changes,
    as (roots, skipped, jumps, failed).  The roots are in the order of their
    grid index, a solved root's being its bracket's upper end, as the
    compiled scan finds them; a bracket whose value fails counts as failed."""
    def search(lo, w, m, n, tol):
        near, signs, skipped = point_scan(f, phi)(lo, w, m, n, tol)
        found = [(k, lo + w * k / m) for k in near]
        jumps = failed = 0
        solve = point_root(f, phi)
        for k, ga, gb in signs:
            try:
                x, status = solve(lo + w * k / m, lo + w * (k + 1) / m, ga, gb, tol)
            except expr.EvalDomainError:
                failed += 1
                continue
            if status == 1:
                jumps += 1
            else:
                found.append((k + 1, x))
        found.sort(key=itemgetter(0))
        return [x for _, x in found], skipped, jumps, failed
    return search


def point_map(value, derivative):
    """value as a map with its derivative: fn(x) and fn.derivative(x)."""
    def fn(x):
        return value(x)
    fn.derivative = derivative
    return fn
