"""The dual-number walk of an expression tree: the reference that the
compiled functions of reflexivity.expr are tested against.

It shares no arithmetic with the code under test.  Only the node and error
types and the record helper come from reflexivity.expr; _dual_pow is this
module's own copy.  eval_walk(root, DualValue(x, 0.0)).value is a value
(its derivative bookkeeping can fail where the value does not), and
eval_walk(root, DualValue(x, 1.0)).derivative is a derivative, each with
the error, message and node offset the compiled functions must raise.
"""

import math

from reflexivity.expr import (BinOp, Call, EvalDomainError, Neg, NonDifferentiableError, Num,
                              Var, record)


@record
class DualValue:
    """value + derivative*eps with eps^2 = 0."""

    value: float
    derivative: float = 0.0

    def __add__(self, other):
        other = _as_dual(other)
        return DualValue(self.value + other.value, self.derivative + other.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual(other)
        return DualValue(self.value - other.value, self.derivative - other.derivative)

    def __rsub__(self, other):
        return _as_dual(other) - self

    def __mul__(self, other):
        other = _as_dual(other)
        return DualValue(
            self.value * other.value,
            self.value * other.derivative + self.derivative * other.value,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return DualValue(-self.value, -self.derivative)

    def __truediv__(self, other):
        other = _as_dual(other)
        if other.value == 0.0:
            raise ZeroDivisionError("division by zero")
        value = self.value / other.value
        return DualValue(value, (self.derivative - value * other.derivative) / other.value)

    def __rtruediv__(self, other):
        return _as_dual(other) / self

    def __pow__(self, other):
        other = _as_dual(other)
        return DualValue(*_dual_pow(self.value, self.derivative, other.value, other.derivative))

    def __rpow__(self, other):
        return _as_dual(other) ** self


def _as_dual(x):
    return x if isinstance(x, DualValue) else DualValue(float(x), 0.0)


def _dual_pow(v, dv, e, de):
    """(value, derivative) of (v + dv*eps) ** (e + de*eps)."""
    if de == 0.0 and float(e).is_integer():
        n = int(e)
        if v == 0.0 and n < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        val = v ** n
        if n == 0:
            der = 0.0
        elif v == 0.0:
            der = dv if n == 1 else 0.0
        else:
            der = n * v ** (n - 1) * dv
        return val, der
    if v <= 0.0:
        raise ValueError("non-integer power of a non-positive base")
    val = v ** e
    return val, val * (de * math.log(v) + e * dv / v)


def apply_function(name, arg, offset):
    v, d = arg.value, arg.derivative
    if name == "sin":
        return DualValue(math.sin(v), math.cos(v) * d)
    if name == "cos":
        return DualValue(math.cos(v), -math.sin(v) * d)
    if name == "tan":
        c = math.cos(v)
        if c == 0.0:
            raise EvalDomainError("tan undefined here", offset)
        return DualValue(math.tan(v), d / (c * c))
    if name == "exp":
        ev = math.exp(v)
        return DualValue(ev, ev * d)
    if name == "log":
        if v <= 0.0:
            raise EvalDomainError(f"log of non-positive value {v!r}", offset)
        return DualValue(math.log(v), d / v)
    if name == "tanh":
        t = math.tanh(v)
        return DualValue(t, (1.0 - t * t) * d)
    if name == "sqrt":
        if v < 0.0:
            raise EvalDomainError(f"sqrt of negative value {v!r}", offset)
        if v == 0.0 and d != 0.0:
            raise NonDifferentiableError("sqrt not differentiable at 0", offset)
        r = math.sqrt(v)
        return DualValue(r, d / (2.0 * r) if d != 0.0 else 0.0)
    if name == "abs":
        if v == 0.0 and d != 0.0:
            raise NonDifferentiableError("abs not differentiable at 0", offset)
        return DualValue(abs(v), math.copysign(1.0, v) * d if v != 0.0 else 0.0)
    raise EvalDomainError(f"unknown function {name!r}", offset)


def message(exc):
    """The text an EvalDomainError carries for a numeric exception: an
    OverflowError's last argument, without the errno that float ** puts
    before it, and any other exception's own text."""
    return exc.args[-1] if isinstance(exc, OverflowError) else str(exc)


def eval_walk(node, x):
    if isinstance(node, Num):
        return DualValue(node.value, 0.0)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -eval_walk(node.operand, x)
    if isinstance(node, BinOp):
        left = eval_walk(node.left, x)
        right = eval_walk(node.right, x)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            if node.op == "^":
                return left ** right
        except ZeroDivisionError as exc:
            raise EvalDomainError(str(exc), node.offset) from None
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(message(exc), node.offset) from None
        raise EvalDomainError(f"unknown operator {node.op!r}", node.offset)
    if isinstance(node, Call):
        arg = eval_walk(node.arg, x)
        try:
            return apply_function(node.func, arg, node.offset)
        except (ValueError, OverflowError) as exc:
            # math.sin/cos/tan raise ValueError at +-inf, math.exp overflows.
            raise EvalDomainError(message(exc), node.offset) from None
    raise TypeError(f"not an expression node: {node!r}")
