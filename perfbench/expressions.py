"""Expression trees owned by the benchmark.

A tree is a nested tuple: ("num", value), ("var",), ("neg", a), (op, a, b)
for op in + - * / ^, or (func, a) for the DSL's function names.  The
generator builds trees, `source` renders the DSL text handed to the
program, and `compile_tree` turns a tree into a plain-`math` function that
the oracle uses.  Nothing here imports the library under test.
"""

import math

BINARY = ("+", "-", "*", "/", "^")
FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "tanh": math.tanh, "sqrt": math.sqrt, "abs": abs,
}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM = 5

X = ("var",)


def num(v):
    if not (v >= 0.0 and math.isfinite(v)):
        # "-1.5" would parse as neg(1.5); the oracle must see the same tree.
        raise ValueError(f"constants are non-negative finite floats, got {v!r}")
    return ("num", float(v))


def _prec(t):
    if t[0] in ("num", "var") or t[0] in FUNCS:
        return _ATOM
    return _PREC[t[0]]


def source(t, var="x"):
    """DSL text whose parse tree is exactly `t` (minimal parentheses)."""
    kind = t[0]
    if kind == "num":
        return repr(t[1])
    if kind == "var":
        return var
    if kind in FUNCS:
        return f"{kind}({source(t[1], var)})"
    if kind == "neg":
        inner = source(t[1], var)
        return "-" + (inner if _prec(t[1]) >= _PREC["neg"] else f"({inner})")
    op, a, b = t
    left, right = source(a, var), source(b, var)
    if op == "^":
        # power := primary ("^" factor): the base must be a primary.
        if _prec(a) != _ATOM:
            left = f"({left})"
        if _prec(b) < _PREC["neg"]:
            right = f"({right})"
        return f"{left}^{right}"
    p = _PREC[op]
    if _prec(a) < p or a[0] == "neg":
        left = f"({left})"
    if _prec(b) <= p or b[0] == "neg":
        right = f"({right})"
    return left + (f" {op} " if p == 1 else op) + right


def nodes(t):
    return 1 + sum(nodes(c) for c in t[1:] if isinstance(c, tuple))


def compile_tree(t):
    """A plain-`math` function computing the DSL value of `t`.

    It follows the DSL's value semantics operation by operation (left
    operand first, integer exponents through `v ** int(e)`), so results are
    bit-identical to a correct implementation of the language.
    """
    kind = t[0]
    if kind == "num":
        c = t[1]
        return lambda x: c
    if kind == "var":
        return lambda x: x
    if kind == "neg":
        a = compile_tree(t[1])
        return lambda x: -a(x)
    if kind in FUNCS:
        fn, a = FUNCS[kind], compile_tree(t[1])
        return lambda x: fn(a(x))
    op, a, b = t[0], compile_tree(t[1]), compile_tree(t[2])
    if op == "+":
        return lambda x: a(x) + b(x)
    if op == "-":
        return lambda x: a(x) - b(x)
    if op == "*":
        return lambda x: a(x) * b(x)
    if op == "/":
        return lambda x: a(x) / b(x)

    def power(x):
        v, e = a(x), b(x)
        return v ** int(e) if float(e).is_integer() else v ** e
    return power


def add(a, b):
    return ("+", a, b)


def sub(a, b):
    return ("-", a, b)


def mul(a, b):
    return ("*", a, b)


def div(a, b):
    return ("/", a, b)


def call(name, a):
    return (name, a)
