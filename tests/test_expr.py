import ast
import builtins
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reflexivity import analysis, dynamics, expr, render
from reflexivity.expr import BinOp, Call, Neg, Num, Var

from conftest import central_difference, gen_source, sample_safe_expression
from dual_walk import DualValue, apply_function, eval_walk, message
from round_trips import serialize


class TestParse:
    def test_power_plus_one_tree(self):
        e = expr.parse("x^2 + 1")
        assert e.root == BinOp("+", BinOp("^", Var("x"), Num(2.0)), Num(1.0))
        assert e.variable_name == "x"

    def test_logistic_tree(self):
        e = expr.parse("2*x*(1-x)")
        assert e.root == BinOp(
            "*",
            BinOp("*", Num(2.0), Var("x")),
            BinOp("-", Num(1.0), Var("x")),
        )

    def test_multiple_free_variables_rejected(self):
        with pytest.raises(expr.MultipleVariablesError):
            expr.parse("x + y")

    def test_constant_expression_has_no_variable(self):
        e = expr.parse("3.5 * 2")
        assert e.variable_name is None
        assert expr.evaluate(e, 123.0) == 7.0

    def test_unknown_function(self):
        with pytest.raises(expr.UnknownIdentifierError):
            expr.parse("foo(x)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(expr.ParseError) as ei:
            expr.parse("x +* 2")
        assert ei.value.offset == 3

    def test_unexpected_character(self):
        with pytest.raises(expr.ParseError):
            expr.parse("x $ 2")

    def test_empty_source(self):
        with pytest.raises(expr.ParseError):
            expr.parse("   ")

    def test_unbalanced_parens(self):
        with pytest.raises(expr.ParseError):
            expr.parse("sin(x")

    def test_function_name_without_call(self):
        with pytest.raises(expr.ParseError):
            expr.parse("sin + 1")

    def test_call_tree(self):
        e = expr.parse("sin(2*x)")
        assert e.root == Call("sin", BinOp("*", Num(2.0), Var("x")))

    def test_whitespace_insignificant(self):
        assert expr.parse("x ^ 2+1").root == expr.parse("x^2 + 1").root

    def test_scientific_notation(self):
        assert expr.evaluate(expr.parse("1.5e2 + x"), 0.0) == 150.0


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        assert expr.evaluate(expr.parse("-x^2"), 2.0) == -4.0

    def test_power_right_associative(self):
        assert expr.evaluate(expr.parse("2^3^2"), 0.0) == 512.0

    def test_mul_before_add(self):
        assert expr.evaluate(expr.parse("2 + 3 * 4"), 0.0) == 14.0

    def test_negative_exponent_parses(self):
        assert expr.evaluate(expr.parse("2^-2"), 0.0) == 0.25


class TestEvaluate:
    def test_square_plus_one(self):
        assert expr.evaluate(expr.parse("x^2+1"), 2.0) == 5.0

    def test_cos_zero(self):
        assert expr.evaluate(expr.parse("cos(x)"), 0.0) == 1.0

    def test_log_domain_error(self):
        with pytest.raises(expr.EvalDomainError):
            expr.evaluate(expr.parse("log(x)"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(expr.EvalDomainError):
            expr.evaluate(expr.parse("1/x"), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(expr.EvalDomainError):
            expr.evaluate(expr.parse("sqrt(x)"), -4.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(expr.EvalDomainError):
            expr.evaluate(expr.parse("x^0.5"), -2.0)

    def test_negative_base_integer_power(self):
        assert expr.evaluate(expr.parse("x^3"), -2.0) == -8.0

    @pytest.mark.parametrize("run, message", [
        (lambda: expr.evaluate(expr.parse("x^3"), 1e120),
         "Numerical result out of range (node at offset 1)"),
        (lambda: expr.derivative(expr.parse("x^-1"), 1e-200),
         "Numerical result out of range (node at offset 1)"),
        (lambda: expr.evaluate(expr.parse("exp(x)"), 1000.0), "math range error (node at offset 0)"),
    ], ids=["power", "power-rule", "exp"])
    def test_overflow_message(self, run, message):
        # float ** raises OverflowError((34, 'Numerical result out of range')):
        # the message is its text, without the errno.
        with pytest.raises(expr.EvalDomainError) as ei:
            run()
        assert str(ei.value) == message

    @pytest.mark.parametrize("src, v, value, slope", [
        # the quotient rule's derivative (da - v*db)/b needs no b*b, which
        # underflows here, so the derivative is found too
        pytest.param("x/1e-200", 1.0, 1e200, 1e200, id="x/1e-200-1.0-1e+200"),
        # the exponent's derivative is NaN (inf*0), so it looked non-integer
        pytest.param("(0-2)^tanh(1e999*x)", 1.0, -2.0, None, id="(0-2)^tanh(1e999*x)-1.0--2.0"),
        # v**(n-1) overflows in the integer power rule
        pytest.param("x^-1", 1e-200, 1e200, None, id="x^-1-1e-200-1e+200"),
    ])
    def test_value_survives_failing_derivative_bookkeeping(self, src, v, value, slope):
        e = expr.parse(src)
        assert expr.evaluate(e, v) == value
        if slope is None:
            with pytest.raises(expr.EvalDomainError):
                expr.derivative(e, v)
        else:
            assert expr.derivative(e, v) == slope

    @pytest.mark.parametrize("run", [lambda e: expr.evaluate(e, 1e-200),
                                     lambda e: expr.evaluate_many(e, [1e-200])],
                             ids=["evaluate", "evaluate_many"])
    def test_error_comes_from_the_failing_node(self, run):
        # 1/x is 1e200 here, and only log(-x) fails.
        with pytest.raises(expr.EvalDomainError) as ei:
            run(expr.parse("1/x + log(-x)"))
        assert ei.value.offset == 6
        assert str(ei.value) == "log of non-positive value -1e-200 (node at offset 6)"

    def test_derivative_reports_its_own_failing_node(self):
        # sqrt's value at 0 is fine and its derivative is not; only the
        # derivative fails there, before log(-x) fails in both modes.
        with pytest.raises(expr.NonDifferentiableError) as ei:
            expr.derivative(expr.parse("sqrt(x) + log(-x)"), 0.0)
        assert ei.value.offset == 0
        assert str(ei.value) == "sqrt not differentiable at 0 (node at offset 0)"
        # The quotient rule's derivative has no b*b to underflow at 1e-200:
        # the derivative of 1/x is found, and log(-x) fails as its value does.
        with pytest.raises(expr.EvalDomainError) as ei:
            expr.derivative(expr.parse("1/x + log(-x)"), 1e-200)
        assert ei.value.offset == 6
        assert str(ei.value) == "log of non-positive value -1e-200 (node at offset 6)"

    def test_power_derivative_checks_the_base_first(self):
        # The exponent x is a whole number at -1 and -2, where the value's
        # power rule takes it; its derivative is not 0, so the dual walk
        # takes the rule for a non-integer exponent, and derivative says so
        # before the value line fails (0^-1) or succeeds ((-2)^-2).
        assert expr.evaluate(expr.parse("x^x"), -2) == 0.25
        with pytest.raises(expr.EvalDomainError, match="^zero raised to a negative power"):
            expr.evaluate(expr.parse("0^x"), -1)
        for src, v in (("0^x", -1), ("x^x", -2)):
            with pytest.raises(expr.EvalDomainError) as ei:
                expr.derivative(expr.parse(src), v)
            assert str(ei.value) == "non-integer power of a non-positive base (node at offset 1)"

    @pytest.mark.parametrize("src, offset", [("sin(x)", 0), ("2 + cos(x)", 4), ("tan(x)", 0)])
    def test_math_domain_error_at_infinity_is_typed(self, src, offset):
        e = expr.parse(src)
        for fn in (expr.evaluate, expr.derivative):
            with pytest.raises(expr.EvalDomainError) as ei:
                fn(e, math.inf)
            assert ei.value.offset == offset

    def test_long_sum(self):
        assert expr.evaluate(expr.parse("+".join(["x"] * 300)), 1.0) == 300.0

    @pytest.mark.parametrize("src", ["+".join(["x"] * 1200), "(" * 400 + "x" + ")" * 400],
                             ids=["sum-of-1200", "400-parens"])
    def test_too_deep_is_parse_error(self, src):
        with pytest.raises(expr.ParseError, match="nested too deeply"):
            expr.parse(src)

    @pytest.mark.parametrize("name", ["k0", "_pow", "x1", "v0", "value"])
    def test_variable_name_is_not_source(self, name):
        e = expr.parse(f"{name}^2 - 3*{name} + sin({name})")
        assert e.variable_name == name
        assert expr.evaluate(e, 2.0) == 2.0 ** 2 - 3 * 2.0 + math.sin(2.0)

    @pytest.mark.parametrize("name", ["exc", "v0", "d0", "k0", "EvalDomainError", "log", "fail"])
    def test_variable_name_is_not_source_on_error(self, name):
        for src in ("log(x) + 1/x", "sqrt(x) * abs(x)", "x^-1 - x^0.5", "tan(x) - exp(x)"):
            e = expr.Expression(_renamed(expr.parse(src).root, name), name)
            for v in (-1.0, 0.0, 1e-200, 1e300, math.inf):
                assert _outcome(lambda: expr.evaluate(e, v)) == \
                    _outcome(lambda: _value_walk(e.root, v)), (src, v)
                assert _outcome(lambda: expr.derivative(e, v)) == \
                    _outcome(lambda: eval_walk(e.root, DualValue(v, 1.0)).derivative), (src, v)
            for fn in (e._value, e._derivative):
                code = fn.__code__
                assert code.co_names == () and code.co_varnames[0] == "x", src
                assert "fail" in code.co_varnames, src
                for local in code.co_varnames:
                    assert re.fullmatch(r"[vdk]\d+|x", local) or local in _COMPILER_HELPERS
                assert not any(isinstance(c, str) for c in code.co_consts), src
            # The orbit loop holds e as both f and phi, each in its own names.
            s = dynamics.ReflexiveSystem(e, e, (0.5, 2.0), (0.5, 2.0))
            code = dynamics._loop(s).__code__
            assert code.co_names == ("append",), src
            # Its columns are the caller's lists, passed in after the state.
            assert code.co_varnames[:7] == ("x", "y", "n", "streak", "window", "xs", "ys"), src
            for local in code.co_varnames:
                assert re.fullmatch(r"(phi|f)[vk]\d+", local) or local in _COMPILER_HELPERS \
                    or local in _LOOP_NAMES, local
            assert {c for c in code.co_consts if isinstance(c, str)} <= _ORBIT_TAGS
            # So does the distance sweep, f's value and derivative lines.
            code = analysis._kernel(s).__code__
            assert code.co_names == () and code.co_varnames[:4] == ("y_lo", "w", "m", "n"), src
            for local in code.co_varnames:
                assert re.fullmatch(r"f[vdk]\d+|phi[vk]\d+", local) \
                    or local in _COMPILER_HELPERS or local in _SWEEP_NAMES, local
            assert not any(isinstance(c, str) for c in code.co_consts), src
            # And the fixed-point solve of e(e(x)) and of e alone, f's and
            # phi's value and derivative lines.
            for kernel in (dynamics._root(e, e), dynamics._root(e, analysis._identity())):
                code = kernel.__code__
                assert code.co_names == () and code.co_varnames[:4] == ("a", "b", "ga", "gb")
                for local in code.co_varnames:
                    assert re.fullmatch(r"(f|phi)[vdk]\d+", local) \
                        or local in _COMPILER_HELPERS or local in _ROOT_NAMES, local
                assert not any(isinstance(c, str) for c in code.co_consts), src
            # And the conjugacy residual, e as f, g and h in four parts.
            code = analysis._residuals(e, e, e).__code__
            assert code.co_names == () and code.co_varnames[:4] == ("lo", "w", "m", "n"), src
            for local in code.co_varnames:
                assert re.fullmatch(r"(f|h|hf|gh)[vk]\d+", local) \
                    or local in _COMPILER_HELPERS or local in _RESIDUAL_NAMES, local
            assert not any(isinstance(c, str) for c in code.co_consts), src
            # And the grid scans: the fixed-point scan of e(e(x)) and of e
            # alone, and the monotonicity scan.
            kernels = [dynamics._scan(e, e), dynamics._scan(e, analysis._identity()),
                       analysis._monotone(e)]
            for kernel, names in zip(kernels, (_SCAN_NAMES, _SCAN_NAMES, _MONOTONE_NAMES)):
                code = kernel.__code__
                assert code.co_names in ((), ("append",)), src
                assert code.co_varnames[:4] == ("lo", "w", "m", "n"), src
                for local in code.co_varnames:
                    assert re.fullmatch(r"(f|phi)[vk]\d+", local) \
                        or local in _COMPILER_HELPERS or local in names, local
                assert not any(isinstance(c, str) for c in code.co_consts), src

    def test_built_tree_with_int_constants(self):
        e = expr.Expression(BinOp("^", Var("x"), Num(2)), "x")
        assert expr.evaluate(e, 3.0) == 9.0
        # Constants are floats in the compiled code: float arithmetic throughout.
        e = expr.Expression(BinOp("*", Num(2), Num(3)), None)
        assert repr(expr.evaluate(e, 0.5)) == "6.0"

    @pytest.mark.parametrize("value", ["abc", None, True, 10**400, 1j],
                             ids=["str", "none", "bool", "huge-int", "complex"])
    def test_non_float_constant_fails_when_built(self, value):
        bad = Num(value)
        for root in (bad, BinOp("+", Var("x"), bad), BinOp("^", Var("x"), bad)):
            with pytest.raises(TypeError) as ei:
                expr.Expression(root, "x")
            assert str(ei.value) == f"not an expression node: {bad!r}"

    @pytest.mark.parametrize("bad", [1.5, BinOp("%", Var("x"), Num(2.0), 1),
                                     Call("sinh", Var("x"), 1)],
                             ids=["non-node", "operator", "function"])
    def test_unknown_node_fails_when_built(self, bad):
        for root in (bad, BinOp("+", Num(1.0), bad)):
            with pytest.raises(TypeError) as ei:
                expr.Expression(root, "x")
            assert str(ei.value) == f"not an expression node: {bad!r}"

    def test_pickle_round_trip(self):
        e = expr.parse("sin(x)^2 + 1e999*0.5")
        e2 = pickle.loads(pickle.dumps(e))
        assert e2 == e and e2.source == e.source
        assert expr.evaluate(e2, 0.5) == expr.evaluate(e, 0.5)

    def test_deterministic(self):
        e = expr.parse("sin(x) * exp(x) - tanh(x)")
        a = expr.evaluate(e, 0.7348291)
        b = expr.evaluate(e, 0.7348291)
        assert a == b


class TestDerivative:
    def test_sin_at_zero(self):
        assert expr.derivative(expr.parse("sin(x)"), 0.0) == 1.0

    def test_linear(self):
        assert expr.derivative(expr.parse("2*x"), 7.0) == 2.0

    def test_cube(self):
        assert expr.derivative(expr.parse("x^3"), 2.0) == 12.0

    def test_quotient_rule(self):
        # d/dx x/(1+x) = 1/(1+x)^2
        got = expr.derivative(expr.parse("x/(1+x)"), 1.0)
        assert got == pytest.approx(0.25, rel=1e-15)

    def test_abs_not_differentiable_at_zero(self):
        with pytest.raises(expr.NonDifferentiableError):
            expr.derivative(expr.parse("abs(x)"), 0.0)

    def test_abs_away_from_zero(self):
        assert expr.derivative(expr.parse("abs(x)"), -3.0) == -1.0

    def test_abs_evaluates_at_zero(self):
        # value is fine at the kink, only the derivative is rejected
        assert expr.evaluate(expr.parse("abs(x)"), 0.0) == 0.0

    def test_variable_exponent(self):
        # d/dx 2^x = 2^x log 2
        got = expr.derivative(expr.parse("2^x"), 3.0)
        assert got == pytest.approx(8.0 * math.log(2.0), rel=1e-14)

    def test_random_expressions_match_finite_differences(self):
        rng = random.Random(20260823)
        for _ in range(300):
            e, v = sample_safe_expression(rng)
            d = expr.derivative(e, v)
            fd = central_difference(e, v)
            assert abs(fd - d) <= max(1e-6 * abs(d), 1e-8), e.source


class TestDualValue:
    """The dual numbers of the reference walk in dual_walk.py."""

    def test_product_rule(self):
        a = DualValue(3.0, 2.0)
        b = DualValue(5.0, 7.0)
        assert (a * b).derivative == 2.0 * 5.0 + 3.0 * 7.0

    def test_quotient_rule(self):
        a = DualValue(1.0, 1.0)
        b = DualValue(2.0, 3.0)
        assert (a / b).derivative == (1.0 * 2.0 - 1.0 * 3.0) / 4.0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            DualValue(1.0, 0.0) / DualValue(0.0, 1.0)

    def test_integer_power_of_negative_base(self):
        p = DualValue(-2.0, 1.0) ** DualValue(2.0, 0.0)
        assert (p.value, p.derivative) == (4.0, -4.0)

    def test_scalar_mixing(self):
        d = 2.0 * DualValue(3.0, 1.0) + 1.0
        assert (d.value, d.derivative) == (7.0, 2.0)


class TestRoundTrip:
    CASES = [
        "x^2 + 1",
        "2*x*(1-x)",
        "-x^2",
        "sin(1.5707963267948966*x)^2",
        "y + 0.25 - 10.25*((y - 2) + abs(y - 2))",
        "exp(-x) / (1 + x^2)",
        "2^3^2",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_parse_serialize_parse(self, src):
        e1 = expr.parse(src)
        e2 = expr.parse(serialize(e1))
        assert e1.root == e2.root

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            src = gen_source(rng, 5)
            e1 = expr.parse(src)
            e2 = expr.parse(serialize(e1))
            assert e1.root == e2.root, src


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _value_walk(node, x):
    """Plain-float walk of the tree: the value the dual-number walk computes,
    or the error it raises, when its derivative bookkeeping does not fail."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_value_walk(node.operand, x)
    if isinstance(node, Call):
        arg = DualValue(_value_walk(node.arg, x), 0.0)
        try:
            return apply_function(node.func, arg, node.offset).value
        except (ValueError, OverflowError) as exc:
            raise expr.EvalDomainError(message(exc), node.offset) from None
    a, b = _value_walk(node.left, x), _value_walk(node.right, x)
    try:
        if node.op != "^":
            if node.op == "/" and b == 0.0:
                raise ZeroDivisionError("division by zero")
            return _OPS[node.op](a, b)
        if b.is_integer():
            if a == 0.0 and b < 0:
                raise ZeroDivisionError("zero raised to a negative power")
            return a ** int(b)
        if a <= 0.0:
            raise ValueError("non-integer power of a non-positive base")
        return a ** b
    except (ArithmeticError, ValueError) as exc:
        raise expr.EvalDomainError(message(exc), node.offset) from None


def _renamed(node, name):
    """node with every variable named name, which the parser might reject
    (log is a function name)."""
    if isinstance(node, Var):
        return Var(name, node.offset)
    if isinstance(node, Neg):
        return Neg(_renamed(node.operand, name), node.offset)
    if isinstance(node, BinOp):
        return BinOp(node.op, _renamed(node.left, name), _renamed(node.right, name), node.offset)
    if isinstance(node, Call):
        return Call(node.func, _renamed(node.arg, name), node.offset)
    return node


# The only names and strings a compiled function may hold: the bound helpers
# and the handler of a failing line.
_COMPILER_HELPERS = {"sin", "cos", "tan", "exp", "log", "tanh", "sqrt", "abs", "copysign", "pow",
                     "dpow", "kink", "fail"}
_LOOP_NAMES = {"x", "y", "n", "streak", "window", "xs", "ys", "append_x", "append_y", "_", "p",
               "t", "range", "cutoff", "rtol"}
_ORBIT_TAGS = {"divergence", "convergence", "step-budget"}
# The names of the solve lines (dynamics._SOLVE), in the sweep and the
# fixed-point solve.
_SOLVE_NAMES = {"a", "b", "ga", "gb", "tol", "ntol", "x0", "x", "status", "step", "step_old", "_",
                "gx", "slope", "mid", "least", "nxt", "newton", "range", "cap", "capped", "min",
                "numeric"}
_SWEEP_NAMES = _SOLVE_NAMES | {"y_lo", "w", "m", "n", "k", "lo", "hi", "flo", "fhi", "argmax",
                               "f_max", "best", "nans", "jumps", "y", "v", "diff", "max",
                               "nextafter", "inf", "rtol"}
_ROOT_NAMES = _SOLVE_NAMES | {"y", "fd", "v", "d"}
_RESIDUAL_NAMES = {"lo", "w", "m", "n", "best", "argmax", "nan_x", "k", "x", "fx", "hx", "r",
                   "range"}
_SCAN_NAMES = {"lo", "w", "m", "n", "tol", "near", "signs", "skipped", "ntol", "prev", "k", "x",
               "y", "g", "range", "numeric", "nan"}
_MONOTONE_NAMES = {"lo", "w", "m", "n", "prev", "sign", "k", "x", "v", "range"}


def _outcome(fn):
    """repr of the value (so -0.0 and nan are told apart), or the error."""
    try:
        return repr(fn())
    except (expr.ExpressionError, ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, getattr(exc, "offset", None), str(exc))


class TestCompiledMatchesTreeWalk:
    POINTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, math.pi / 2, 1e-200, -1e-200,
              1e200, 709.0, 710.0, math.inf, -math.inf, math.nan)

    def test_random_expressions(self):
        rng = random.Random(20261017)
        counts = {"value": 0, "error": 0, "bookkeeping": 0}
        for _ in range(1000):
            e = expr.parse(gen_source(rng, 5, wide=True))
            for v in self.POINTS:
                got = _outcome(lambda: expr.evaluate(e, v))
                ref = _outcome(lambda: eval_walk(e.root, DualValue(v, 0.0)).value)
                if got == ref:
                    counts["error" if isinstance(ref, tuple) else "value"] += 1
                    continue
                # Allowed only where the walk failed on derivative bookkeeping
                # alone: the plain value walk gives what evaluate gives, the
                # value or the error of the first node whose value fails.
                where = f"{e.source} at {v!r}: {got} vs {ref}"
                assert isinstance(ref, tuple), where
                assert issubclass(getattr(expr, ref[0]), expr.EvalDomainError), where
                assert got == _outcome(lambda: _value_walk(e.root, v)), where
                counts["bookkeeping"] += 1
        total = 1000 * len(self.POINTS)
        assert counts["value"] > total // 3 and counts["error"] > total // 20, counts
        assert counts["bookkeeping"] > 0, counts

    def test_random_grids(self):
        rng = random.Random(20261017)  # the trees of test_random_expressions
        points = list(self.POINTS)
        counts = {"value": 0, "error": 0}
        for _ in range(1000):
            e = expr.parse(gen_source(rng, 5, wide=True))
            got = _outcome(lambda: expr.evaluate_many(e, points))
            ref = _outcome(lambda: [expr.evaluate(e, v) for v in points])
            where = f"{e.source}: {got} vs {ref}"
            assert got == ref, where
            # It fails exactly where the point function fails, with its error.
            for v in points:
                assert _outcome(lambda: expr.evaluate_many(e, [v])) == \
                    _outcome(lambda: [e._value(v)]), where
            counts["error" if isinstance(ref, tuple) else "value"] += 1
        assert counts["value"] > 100 and counts["error"] > 100, counts

    def test_random_derivatives(self):
        rng = random.Random(20261017)  # the trees of test_random_expressions
        counts = {"value": 0, "error": 0}
        for _ in range(1000):
            e = expr.parse(gen_source(rng, 5, wide=True))
            for v in self.POINTS:
                got = _outcome(lambda: expr.derivative(e, v))
                ref = _outcome(lambda: eval_walk(e.root, DualValue(v, 1.0)).derivative)
                where = f"{e.source} at {v!r}: {got} vs {ref}"
                assert got == ref, where
                # derivative adds nothing to the compiled function.
                assert _outcome(lambda: e._derivative(v)) == got, where
                counts["error" if isinstance(ref, tuple) else "value"] += 1
        total = 1000 * len(self.POINTS)
        assert counts["value"] > total // 3 and counts["error"] > total // 20, counts

    def test_dual_value_lines_are_the_value_lines(self):
        # A dual part's value lines are _compile's, line for line, with the
        # same failures and constants, constant whole-number powers
        # included; its derivative lines, one per operator node, are a
        # part of their own.
        rng = random.Random(20261017)  # the trees of test_random_expressions
        ipows = 0
        for _ in range(1000):
            root = expr.parse(gen_source(rng, 5, wide=True)).root
            value, dual = expr._Emitter(False), expr._Emitter(True)
            assert value.emit(root)[0] == dual.emit(root)[0]
            assert (dual.lines, dual.failures) == (value.lines, value.failures), root
            assert dual.consts == value.consts and value.deriv is None, root
            assert len(dual.deriv.lines) == len(dual.deriv.failures) == len(dual.lines)
            assert not any(line.startswith("v") for line in dual.deriv.lines), root
            ipows += any(" ** " in line for line in dual.lines)
        assert ipows > 100, ipows

    def test_random_compiled_errors(self):
        # Each compiled function raises the reference's error itself, with
        # its type, message and offset, where the reference fails, and
        # returns the reference's value elsewhere.
        rng = random.Random(20261017)  # the trees of test_random_expressions
        points = list(self.POINTS)
        failures = {"value": 0, "derivative": 0}
        for _ in range(1000):
            e = expr.parse(gen_source(rng, 5, wide=True))
            _outcome(lambda: expr.derivative(e, 0.0))  # compiles e._derivative
            for v in points:
                where = f"{e.source} at {v!r}"
                want = _outcome(lambda: _value_walk(e.root, v))
                assert _outcome(lambda: e._value(v)) == want, where
                assert _outcome(lambda: expr.evaluate_many(e, [v])) == \
                    _outcome(lambda: [_value_walk(e.root, v)]), where
                failures["value"] += isinstance(want, tuple)
                want = _outcome(lambda: eval_walk(e.root, DualValue(v, 1.0)).derivative)
                assert _outcome(lambda: e._derivative(v)) == want, where
                failures["derivative"] += isinstance(want, tuple)
            # Over the grid, the first failing point's error.
            assert _outcome(lambda: expr.evaluate_many(e, points)) == \
                _outcome(lambda: [_value_walk(e.root, v) for v in points]), e.source
        assert min(failures.values()) > 1000 * len(points) // 20, failures

    def test_failure_compiles_nothing(self, monkeypatch):
        e = expr.parse("sqrt(x)")
        expr.derivative(e, 1.0)
        expr.evaluate_many(e, [1.0])
        compiled = []
        for module, name in ((expr, "_define"), (builtins, "exec"), (builtins, "eval"),
                             (builtins, "compile")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                                compiled.append(name) or real(*a, **k))
        for _ in range(3):
            for fn, v, error in ((expr.evaluate, -1.0, "sqrt of negative value -1.0"),
                                 (expr.derivative, 0.0, "sqrt not differentiable at 0"),
                                 (expr.evaluate_many, [2.0, -1.0], "sqrt of negative value -1.0")):
                with pytest.raises(expr.EvalDomainError) as ei:
                    fn(e, v)
                assert str(ei.value) == f"{error} (node at offset 0)"
        monkeypatch.undo()
        assert compiled == []


def _one_of_every_record():
    """One instance of every record type in the package."""
    e = expr.parse("-sin(x)^2/3 + 1")
    s = dynamics.make_system("x/2", "y", (0.0, 1.0), (0.0, 1.0))
    st = dynamics.SystemState(1.0, 0.5, 3)
    o = dynamics.Orbit((st, dynamics.SystemState(0.5, 0.25, 4)), "step-budget")
    return [
        Num(2.0, 8), Var("x", 5), Neg(Var("x"), 0), BinOp("^", Num(1.0), Num(2.0), 3),
        Call("sin", Var("x"), 1), e, s, st, o, dynamics.Gamma(s),
        dynamics.FixedPoint(0.0, 0.0, 0.0, 0.0, 0.5, "attracting"),
        dynamics.Prop1Report(0.0, 1e-17),
        analysis.DistanceReport(0.1, 2.0, 64, "increasing"),
        analysis.PeriodReport(2, (0.5, 0.8), 1e-12),
        analysis.BoomBustEvent(1, 7, 9, -2.5, 0.75),
        analysis.ConjugacyReport(math.nan, 2, "violated", 0.25),
        render.RenderOptions(640),
        render.StaircaseTrace((((0.0, 0.0), (0.0, 1.0)),), ((0.0, 0.0),), (), ()),
        render.PhasePortraitTrace(((1.0, 0.5),)),
    ]


class TestRecord:
    @pytest.mark.parametrize("make, text", [
        (lambda: Num(1.5, 3), "Num(value=1.5, offset=3)"),
        (lambda: expr.parse("x + 1"),
         "Expression(root=BinOp(op='+', left=Var(name='x', offset=0), right=Num(value=1.0, "
         "offset=4), offset=2), variable_name='x', source='x + 1')"),
        (lambda: dynamics.SystemState(1.0, 2.0, 3),
         "SystemState(x=1.0, y=2.0, index=3)"),
        (lambda: dynamics.FixedPoint(1.0, 2.0, 0.0, 0.0, 0.5, "attracting"),
         "FixedPoint(x_bar=1.0, y_bar=2.0, residual_f=0.0, residual_phi=0.0, multiplier=0.5, "
         "stability='attracting')"),
        (lambda: analysis.ConjugacyReport(0.0, 1, "consistent"),
         "ConjugacyReport(max_residual=0.0, fixed_point_images_checked=1, "
         "verdict='consistent', violation_x=None)"),
        (lambda: render.RenderOptions(),
         "RenderOptions(width=800, height=600, margin=60)"),
    ])
    def test_repr_is_the_dataclass_text(self, make, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("src", ["x^2 + 1", "-sin(x)^2/3", "2*x*(1-x)", "exp(-x) / (1 + x)"])
    def test_equality_and_hash_ignore_offsets(self, src):
        e = expr.parse(src)
        again = expr.parse(serialize(e))
        assert again.source != e.source
        assert again == e and hash(again) == hash(e)
        assert Num(1.0, 0) == Num(1.0, 7) and hash(Num(1.0, 0)) == hash(Num(1.0, 7))
        assert Num(1.0) != Var("x") and Num(1.0) != 1.0

    def test_pickle_round_trip_of_every_record(self):
        records = _one_of_every_record()
        every = {cls for mod in (expr, dynamics, analysis, render) for cls in vars(mod).values()
                 if isinstance(cls, type) and cls.__setattr__ is expr._frozen}
        assert {type(r) for r in records} == every and len(every) == 19
        for r in records:
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is type(r) and repr(back) == repr(r)
        e = pickle.loads(pickle.dumps(records[5]))
        assert e == records[5] and expr.evaluate(e, 0.5) == expr.evaluate(records[5], 0.5)

    def test_frozen(self):
        for r in _one_of_every_record():
            name = next(iter(type(r).__annotations__))
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
            with pytest.raises(AttributeError):
                r.not_a_field = 1

    def test_tuple_backed_records(self):
        # Every record whose fields are all init and compared is a tuple.
        records = [r for r in _one_of_every_record() if isinstance(r, tuple)]
        assert sorted(type(r).__name__ for r in records) == [
            "BoomBustEvent", "ConjugacyReport", "DistanceReport", "FixedPoint", "Gamma",
            "PeriodReport", "PhasePortraitTrace", "Prop1Report", "RenderOptions",
            "StaircaseTrace", "SystemState"]
        for r in records:
            cls = type(r)
            names = list(cls.__annotations__)
            values = tuple(getattr(r, n) for n in names)
            assert tuple(r) == values and not hasattr(r, "__dict__")
            again = cls(**dict(zip(names, values)))
            assert again == r and not again != r and hash(again) == hash(r)
            assert repr(again) == repr(r)
            assert r != values and values != r and not r == values and not values == r
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is cls and repr(back) == repr(r)
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(r, name, 0)
        # Equal values in another record class are not equal.
        assert dynamics.Gamma(1.0) != render.PhasePortraitTrace(1.0)
        assert not dynamics.Gamma(1.0) == render.PhasePortraitTrace(1.0)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_tuple_backed_records_are_not_ordered(self, op):
        a = dynamics.SystemState(1.0, 2.0, 3)
        other = [a, dynamics.SystemState(0.5, 2.0, 3), (1.0, 2.0, 3), (0.5,),
                 dynamics.Prop1Report(1.0, 2.0)]
        for b in other:
            for left, right in ((a, b), (b, a)):
                with pytest.raises(TypeError):
                    op(left, right)

    def test_keywords_and_defaults(self):
        assert Num(value=2.0) == Num(2.0, 0)
        assert Num(value=2.0).offset == 0
        assert render.RenderOptions(height=10) == render.RenderOptions(800, 10, 60)
        assert analysis.ConjugacyReport(0.5, 0, verdict="violated").violation_x is None
        assert render.PhasePortraitTrace(points=()) == render.PhasePortraitTrace(())
        assert dynamics.SystemState(index=2, y=1.0, x=0.5) == dynamics.SystemState(0.5, 1.0, 2)
        e = expr.Expression(variable_name="x", root=Var("x"))
        assert e.source == "" and e._derivative is None
        assert expr.evaluate(e, 3.0) == 3.0

    @pytest.mark.parametrize("call", [
        lambda: Num(),
        lambda: Num(1.0, 2, 3),
        lambda: Num(1.0, size=2),
        lambda: Num(1.0, value=2.0),
        lambda: expr.Expression(Var("x"), "x", "x", None),  # _value is not an argument
        lambda: dynamics.SystemState(1.0, 2.0),
        lambda: dynamics.SystemState(1.0, 2.0, 3, 4),
        lambda: dynamics.SystemState(1.0, 2.0, index=3, z=4),
    ])
    def test_wrong_arguments_are_type_errors(self, call):
        with pytest.raises(TypeError):
            call()

    def test_cli_imports_no_dataclasses_inspect_or_logging(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import reflexivity.cli, sys; "
                "print([m for m in ('dataclasses', 'inspect', 'logging') if m in sys.modules])")
        r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True)
        assert r.stdout == "[]\n"

    def test_runtime_imports_only_the_standard_library(self):
        # Every import in the package names a standard-library module or the
        # package itself (a relative import).
        src = Path(__file__).resolve().parent.parent / "src" / "reflexivity"
        files = sorted(src.glob("*.py"))
        assert len(files) >= 6
        for path in files:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = ["reflexivity" if node.level else node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    assert top in sys.stdlib_module_names or top == "reflexivity", (path.name, name)
