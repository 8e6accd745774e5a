"""Shared helpers: a seeded random-expression generator used by both the
derivative property test and the acceptance suite, and hand-built orbits.
"""

import math

from reflexivity import expr
from reflexivity.dynamics import Orbit, SystemState

# abs/tan/log/sqrt are left out on purpose: kinks and domain edges make
# central finite differences ill-conditioned near randomly drawn points.
_FUNCS = ("sin", "cos", "tanh", "exp")
# wide=True draws domain edges on purpose, for tests that compare error paths.
_WIDE_FUNCS = _FUNCS + ("abs", "log", "sqrt", "tan")
_WIDE_CONSTANTS = ("0", "1e999", "1e-200", "1e200", "0.5", "710")
_WIDE_EXPONENTS = ("0", "-1", "-2", "0.5", "-0.5", "2.5", "1e999")

FD_STEP = 1e-6


def gen_source(rng, depth, wide=False):
    """Random DSL source in x.  The default draws only smooth, mostly
    well-conditioned trees; wide=True adds abs/log/sqrt/tan, negative and
    non-integer exponents, variable denominators and huge or zero constants.
    """
    def sub():
        return gen_source(rng, depth - 1, wide)

    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.65:
            return "x"
        if wide and rng.random() < 0.4:
            return rng.choice(_WIDE_CONSTANTS)
        return format(rng.uniform(-2.0, 2.0), ".3f")
    r = rng.random()
    if r < 0.55:
        op = rng.choice("+-*")
        return f"({sub()} {op} {sub()})"
    if r < 0.70:
        return f"(-{sub()})"
    if r < 0.85:
        return f"{rng.choice(_WIDE_FUNCS if wide else _FUNCS)}({sub()})"
    if r < 0.93:
        c = sub() if wide else format(rng.uniform(0.5, 3.0), ".3f")
        return f"({sub()} / {c})"
    if wide and rng.random() < 0.6:
        return f"({sub()})^{rng.choice(_WIDE_EXPONENTS + (sub(),))}"
    return f"({sub()})^{rng.choice((2, 3))}"


def sample_safe_expression(rng, depth=6, max_tries=500):
    """An (expression, point) pair where value and derivative are moderate,
    so the finite-difference oracle is well conditioned.
    """
    for _ in range(max_tries):
        src = gen_source(rng, depth)
        v = rng.uniform(-1.0, 1.0)
        try:
            e = expr.parse(src)
            f0 = expr.evaluate(e, v)
            fp = expr.evaluate(e, v + FD_STEP)
            fm = expr.evaluate(e, v - FD_STEP)
            d = expr.derivative(e, v)
        except expr.ExpressionError:
            continue
        vals = (f0, fp, fm, d)
        if not all(math.isfinite(x) for x in vals):
            continue
        if max(abs(f0), abs(fp), abs(fm)) > 30.0 or abs(d) > 100.0:
            continue
        return e, v
    raise RuntimeError("could not draw a safe random expression")


def central_difference(e, v, h=FD_STEP):
    return (expr.evaluate(e, v + h) - expr.evaluate(e, v - h)) / (2.0 * h)


def as_orbit(xs):
    """A hand-built Orbit whose x column is xs."""
    return Orbit(tuple(SystemState(x, 0.0, i) for i, x in enumerate(xs)), "step-budget")
