"""Scalar expression DSL: recursive-descent parser, evaluation, and
forward-mode (dual number) differentiation.

Expressions hold at most one free variable.  Trees are immutable after
parsing, so evaluation and differentiation are pure and reentrant.  Values
come from a straight-line float function compiled from the tree when the
Expression is built, values over a list of points from that function
mapped over it, and derivatives from a straight-line value-plus-derivative
function compiled on first use.  Each compiled function reports its own
failures: one handler raises the error of the line that failed, with its
message and node offset, at no cost until something fails.  compile_loop
puts the lines of several expressions, values only or values with
derivatives, into one function from a template: the orbit loop and the
fixed-point scan and solve of the dynamics layer, and the monotonicity scan,
inversion sweep and conjugacy residual of the analysis layer.  kernel
keeps each such function on the first Expression it holds, and compiles
it again only for other Expression objects.

The module also holds the two helpers every layer uses: `record`, which
makes the frozen result classes, and `LazyLogger`.
"""

from __future__ import annotations

import math
import re
import sys
from operator import is_, itemgetter


class ExpressionError(Exception):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class MultipleVariablesError(ParseError):
    pass


class EvalDomainError(ExpressionError):
    """Numeric domain violation (log of non-positive, division by zero, ...)."""

    def __init__(self, message, offset=0):
        super().__init__(f"{message} (node at offset {offset})")
        self.offset = offset


class NonDifferentiableError(EvalDomainError):
    """The expression has no derivative at the requested point (abs at 0)."""


# ---------------------------------------------------------------------------
# Records: frozen classes, the shape of every result type in the package.
# Built without the dataclasses module, which with the inspect module it
# imports would be most of the CLI's start-up.

_NO_DEFAULT = object()


class field:
    """A record field's options, given as its class attribute.  A field that
    is not init is neither compared nor shown."""

    __slots__ = ("default", "compare", "init")

    def __init__(self, *, default=_NO_DEFAULT, compare=True, init=True):
        self.default, self.compare, self.init = default, compare and init, init


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _values(rec, names):
    return tuple([getattr(rec, n) for n in names])


def _tuple_eq(self, other):
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _tuple_ne(self, other):
    return other.__class__ is not self.__class__ or tuple.__ne__(self, other)


def _unordered(self, other):
    raise TypeError(f"{self.__class__.__name__} records are not ordered")


def record(cls):
    """cls rebuilt as a frozen record class, like a frozen dataclass.

    Its annotated class attributes are its fields, in order; the value of
    one is its default or a field(...).  A record whose fields are all init
    and compared, with no __post_init__, is a tuple whose items are its
    fields (operator.itemgetter properties), so tuple.__new__(cls, values)
    builds one in C; any other is a __slots__ class.  Unless cls defines
    its own, the class gets __new__ or __init__ (defaults filled, init=False
    fields set to their default, then __post_init__ if cls has one), __eq__
    (true only for the same class: a record never equals a plain tuple) and
    __hash__ over the compared fields, no ordering (<, <=, > and >= raise
    TypeError, also against a plain tuple), and a dataclass-style __repr__
    and a __reduce__, both over the init fields.  Setting or
    deleting an attribute raises AttributeError; only object.__setattr__,
    on a __slots__ record, gets past it.
    """
    specs = {}
    for name in cls.__dict__.get("__annotations__", ()):
        spec = cls.__dict__.get(name, _NO_DEFAULT)
        specs[name] = spec if isinstance(spec, field) else field(default=spec)
    ns = {k: v for k, v in cls.__dict__.items()
          if k not in specs and k not in ("__dict__", "__weakref__")}
    ns.update(__qualname__=cls.__qualname__, __setattr__=_frozen, __delattr__=_frozen)
    compared = [n for n, s in specs.items() if s.compare]
    inits = [n for n, s in specs.items() if s.init]
    env = {f"_default_{n}": s.default for n, s in specs.items() if s.default is not _NO_DEFAULT}
    params = [n if specs[n].default is _NO_DEFAULT else f"{n}=_default_{n}" for n in inits]

    # The constructor comes from one small exec, as namedtuple's __new__
    # does: as fast as a hand-written one.
    if len(compared) == len(inits) == len(specs) and not hasattr(cls, "__post_init__"):
        env["_new"] = tuple.__new__
        exec(f"def __new__(_cls, {', '.join(params)}):\n"
             f"    return _new(_cls, ({''.join(n + ', ' for n in specs)}))\n", env)
        ns.setdefault("__new__", env["__new__"])
        ns.update(__slots__=(), **{n: property(itemgetter(i)) for i, n in enumerate(specs)})
        new = type(cls.__name__, (tuple,), ns)
        methods = {"__eq__": _tuple_eq, "__ne__": _tuple_ne, "__hash__": tuple.__hash__,
                   "__lt__": _unordered, "__le__": _unordered,
                   "__gt__": _unordered, "__ge__": _unordered}
    else:
        ns.update(__slots__=tuple(specs))
        new = type(cls.__name__, cls.__bases__, ns)
        env.update((f"_set_{n}", new.__dict__[n].__set__) for n in specs)
        stores = [f"_set_{n}(self, {n if s.init else '_default_' + n})"
                  for n, s in specs.items() if s.init or s.default is not _NO_DEFAULT]
        if hasattr(new, "__post_init__"):
            stores.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n"
             + "".join(f"    {line}\n" for line in stores), env)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return _values(self, compared) == _values(other, compared)

        methods = {"__init__": env["__init__"], "__eq__": __eq__,
                   "__hash__": lambda self: hash(_values(self, compared))}

    def __repr__(self):
        shows = ", ".join([f"{n}={getattr(self, n)!r}" for n in inits])
        return f"{self.__class__.__qualname__}({shows})"

    methods.update(__repr__=__repr__,
                   __reduce__=lambda self: (self.__class__, _values(self, inits)))
    for name, fn in methods.items():
        if name not in ns:
            setattr(new, name, fn)
    return new


class LazyLogger:
    """logging.getLogger(name), for warnings only.  The logging module is
    imported on the first warning, so start-up does without it; records
    name the caller's line, as a logger's own would."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def warning(self, msg, *args):
        import logging
        logging.getLogger(self.name).warning(msg, *args, stacklevel=2)


# ---------------------------------------------------------------------------
# AST nodes.  Offsets are byte positions into the source, excluded from
# structural equality so that sources that differ only in spacing or
# parentheses parse to equal trees.

@record
class Num:
    value: float
    offset: int = field(compare=False, default=0)


@record
class Var:
    name: str
    offset: int = field(compare=False, default=0)


@record
class Neg:
    operand: object
    offset: int = field(compare=False, default=0)


@record
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object
    offset: int = field(compare=False, default=0)


@record
class Call:
    func: str
    arg: object
    offset: int = field(compare=False, default=0)


FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "tanh", "sqrt", "abs")


@record
class Expression:
    """A parsed scalar function of one variable (or a constant)."""

    root: object
    variable_name: str | None
    source: str = field(compare=False, default="")
    _value: object = field(init=False)
    # Compiled on the first derivative call: most expressions never need it.
    _derivative: object = field(init=False, default=None)
    # The compiled kernels whose first part this is, by template (see kernel).
    _kernels: dict = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_value", _compile(self.root))
        object.__setattr__(self, "_kernels", {})


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        if source[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    # expr := term (("+"|"-") term)*
    def expr(self):
        node = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term(), offset)
            else:
                return node

    # term := factor (("*"|"/") factor)*
    def term(self):
        node = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor(), offset)
            else:
                return node

    # factor := "-" factor | power    (unary minus binds looser than ^)
    def factor(self):
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor(), offset)
        return self.power()

    # power := primary ("^" factor)?  (right-associative exponent)
    def power(self):
        node = self.primary()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.factor(), offset)
        return node

    def primary(self):
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text), offset)
        if kind == "ident":
            pk, pt, _ = self.peek()
            if pk == "op" and pt == "(":
                if text not in FUNCTION_NAMES:
                    raise UnknownIdentifierError(f"unknown function {text!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, offset)
            if text in FUNCTION_NAMES:
                raise ParseError(f"function name {text!r} used without arguments", offset)
            return Var(text, offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def _free_variables(node, acc):
    if isinstance(node, Var):
        acc.setdefault(node.name, node.offset)
    elif isinstance(node, Neg):
        _free_variables(node.operand, acc)
    elif isinstance(node, BinOp):
        _free_variables(node.left, acc)
        _free_variables(node.right, acc)
    elif isinstance(node, Call):
        _free_variables(node.arg, acc)


def parse(source):
    """Parse a DSL expression with exactly one (or zero) free variable."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    try:
        p = _Parser(source)
        root = p.expr()
        kind, text, offset = p.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {text!r}", offset)
        names = {}
        _free_variables(root, names)
        if len(names) > 1:
            listed = ", ".join(sorted(names))
            offset = max(names.values())
            raise MultipleVariablesError(f"multiple free variables: {listed}", offset)
        var = next(iter(names)) if names else None
        return Expression(root, var, source)
    except RecursionError:
        # Parser, variable scan and compiler all recurse once per tree level.
        raise ParseError("expression nested too deeply", 0) from None


# ---------------------------------------------------------------------------
# Evaluation / differentiation

def evaluate(e, v):
    """Evaluate e at the real point v (IEEE-754 double arithmetic).

    Runs e's compiled function, which raises a failure as EvalDomainError
    with its node's offset.
    """
    return e._value(float(v))


def evaluate_many(e, xs):
    """[evaluate(e, x) for x in xs] for a list of floats xs: e's compiled
    point function mapped over xs, so the first failing x raises its
    EvalDomainError."""
    return list(map(e._value, xs))


def derivative(e, v):
    """Exact forward-mode derivative of e at v.

    Runs e's compiled value-plus-derivative function, compiling it on the
    first call, which raises a failure as EvalDomainError (or
    NonDifferentiableError) with its node's offset.
    """
    x = float(v)
    fn = e._derivative
    if fn is None:
        fn = _compile(e.root, dual=True)
        object.__setattr__(e, "_derivative", fn)
    return fn(x)


# ---------------------------------------------------------------------------
# Compilation to straight-line float functions
#
# _compile(root) builds x -> value.  A constant whole-number exponent there
# becomes `a ** n` with n a bound int, the operation _pow performs for it.
# _compile(root, dual=True) builds x -> derivative by forward-mode source
# transformation: one pair of locals v<k>, d<k> per operator node, each a
# dual number's value and derivative part, the value line as in value mode.
# The dual-number walk of the tree in tests/dual_walk.py is the reference
# both modes are tested against, bit for bit, errors included.
#
# A line that fails raises ArithmeticError or ValueError (_NUMERIC_ERRORS).
# _define puts the body of every generated function in one try, whose
# handler `fail` finds the failing line by the traceback's line number and
# raises its typed error: EvalDomainError (NonDifferentiableError for the
# kinks of sqrt and abs) with the message in _FAILURES and the node's
# offset.  A template's own line re-raises its exception unchanged.  A try
# costs nothing until something raises, so one function per mode is fast
# and reports too.  A template may catch _NUMERIC_ERRORS around its part
# lines itself, as dynamics._SCAN does to skip a failing grid point and
# dynamics._SOLVE to take 0 for a failing slope; fail then never runs.
#
# The generated source holds only names the compiler chooses: the parameter
# x, the locals, constants k<j>, the helpers in _HELPERS its lines call, and
# fail, all bound as default arguments (a constant may be inf, which has no
# literal), plus the literals in _RULES.  Node values and user
# identifiers never become source text; operators and function names are
# written only after an exact match with _INFIX or FUNCTION_NAMES.  Every
# constant is a float, so the arithmetic is float arithmetic, as evaluate's
# float(v) makes it for the variable.
#
# compile_loop adds the names of its template, which come from the calling
# layer's source, and names each expression's variable as the template asks
# and its locals and constants with the part's name as prefix (phiv3, fd2,
# fk0), so that the lines of several expressions share one function, a dual
# part's derivative lines as a part of their own.
# _define is the one place any generated source is run.

def _dual_pow(v, dv, e, de):
    """Derivative part of (v + dv*eps) ** (e + de*eps); unlike _pow it fails
    for a base <= 0 wherever de is not 0, as the dual-number walk does."""
    if de == 0.0 and float(e).is_integer():
        n = int(e)
        if v == 0.0 and n < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        if n == 0 or v == 0.0:
            return dv if n == 1 else 0.0
        return n * v ** (n - 1) * dv
    if v <= 0.0:
        raise ValueError("non-integer power of a non-positive base")
    val = v ** e
    return val * (de * math.log(v) + e * dv / v)


def _pow(v, e):
    """v ** e, with the dual-number walk's checks for an exponent whose
    derivative is 0."""
    if float(e).is_integer():
        n = int(e)
        if v == 0.0 and n < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return v ** n
    if v <= 0.0:
        raise ValueError("non-integer power of a non-positive base")
    return v ** e


def _kink(d):
    """Derivative of abs at 0, which exists only for a constant argument."""
    if d != 0.0:
        raise ValueError("abs not differentiable at 0")
    return 0.0


_HELPERS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "tanh": math.tanh, "sqrt": math.sqrt, "abs": abs,
    "copysign": math.copysign, "pow": _pow, "dpow": _dual_pow, "kink": _kink,
}
_INFIX = ("+", "-", "*", "/")
_NUMERIC_ERRORS = (ArithmeticError, ValueError)
_CALL = re.compile(r"\b(\w+)\(")  # a helper's name where a line calls it

# (value, derivative) templates per rule: a and b name the operands' values,
# da and db their derivatives, v this node's value.
_RULES = {
    "neg": ("-{a}", "-{da}"),
    "+": ("{a} + {b}", "{da} + {db}"),
    "-": ("{a} - {b}", "{da} - {db}"),
    "*": ("{a} * {b}", "{a} * {db} + {da} * {b}"),
    "/": ("{a} / {b}", "({da} - {v} * {db}) / {b}"),
    "^": ("pow({a}, {b})", "dpow({a}, {da}, {b}, {db})"),
    "ipow": ("{a} ** {b}", "dpow({a}, {da}, {b}, {db})"),  # b is a bound int
    "sin": ("sin({a})", "cos({a}) * {da}"),
    "cos": ("cos({a})", "-sin({a}) * {da}"),
    "tan": ("tan({a})", "{da} / (cos({a}) * cos({a}))"),
    "exp": ("exp({a})", "{v} * {da}"),
    "log": ("log({a})", "{da} / {a}"),
    "tanh": ("tanh({a})", "(1.0 - {v} * {v}) * {da}"),
    "sqrt": ("sqrt({a})", "{da} / (2.0 * {v}) if {da} != 0.0 else 0.0"),
    "abs": ("abs({a})", "copysign(1.0, {a}) * {da} if {a} != 0.0 else kink({da})"),
}

# The error a failing line raises, per rule, as (value line, derivative
# line): an error class and its message, where %r stands for the value of
# the line's first operand.  A line given None, and a line whose exception is
# an OverflowError (of the lines named here, only ipow's can overflow),
# raise EvalDomainError with the exception's own message: for an
# OverflowError its last argument, the text without the errno that float
# ** puts before it.
_FAILURES = {
    "/": ((EvalDomainError, "division by zero"), None),
    "ipow": ((EvalDomainError, "zero raised to a negative power"), None),
    "log": ((EvalDomainError, "log of non-positive value %r"), None),
    "sqrt": ((EvalDomainError, "sqrt of negative value %r"),
             (NonDifferentiableError, "sqrt not differentiable at 0")),
    "abs": (None, (NonDifferentiableError, "abs not differentiable at 0")),
}


def _constant(node):
    """A Num's value as a float: an int or float (not a bool) in float range."""
    value = node.value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise TypeError(f"not an expression node: {node!r}")


class _Emitter:
    """Lines computing a tree's value in the variable var, with locals and
    constants named prefix + v<k>/d<k>/k<j>, and for each line what it
    raises on failure: (the _FAILURES entry, the name of its first operand,
    the node's offset).  If dual, each node's derivative line goes to the
    emitter deriv: lines of their own, or these lines where deriv is self."""

    def __init__(self, dual, var="x", prefix=""):
        self.var = var
        self.prefix = prefix
        self.lines = []
        self.failures = []
        self.consts = []
        self.deriv = _Emitter(False) if dual else None

    def const(self, value):
        self.consts.append(value)
        return f"{self.prefix}k{len(self.consts) - 1}"

    def bound(self):
        """The names the lines need bound: the helpers they call, and the
        constants.  Each bound name costs a little on every call."""
        env = {name: _HELPERS[name] for name in _CALL.findall("\n".join(self.lines))}
        env.update((f"{self.prefix}k{j}", c) for j, c in enumerate(self.consts))
        return env

    def emit(self, node):
        """Names holding node's value and derivative, after the lines that
        compute them."""
        if isinstance(node, Num):
            return self.const(_constant(node)), "0.0"
        if isinstance(node, Var):
            return self.var, "1.0"
        if isinstance(node, Neg):
            rule, operands = "neg", (node.operand,)
        elif (isinstance(node, BinOp) and node.op == "^"
              and isinstance(node.right, Num) and _constant(node.right).is_integer()):
            # _pow's integer branch, without the call: v ** n with n an int.
            rule, operands = "ipow", (node.left,)
        elif isinstance(node, BinOp) and (node.op in _INFIX or node.op == "^"):
            rule, operands = node.op, (node.left, node.right)
        elif isinstance(node, Call) and node.func in FUNCTION_NAMES:
            rule, operands = node.func, (node.arg,)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        emitted = [self.emit(operand) for operand in operands]
        if rule == "ipow":
            emitted.append((self.const(int(_constant(node.right))), "0.0"))
        k = len(self.lines)
        v, d = f"{self.prefix}v{k}", f"{self.prefix}d{k}"
        names = {"v": v, "d": d}
        for (val, der), (vk, dk) in zip(emitted, (("a", "da"), ("b", "db"))):
            names[vk], names[dk] = val, der
        value, deriv = _RULES[rule]
        on_value, on_deriv = _FAILURES.get(rule, (None, None))
        steps = [(self, f"{v} = {value.format(**names)}", on_value)]
        if self.deriv is not None:
            # Interleaved, "^"'s derivative line comes first: its _dual_pow
            # fails as the dual-number walk does (0^x at x = -1), not _pow.
            steps.insert(0 if rule == "^" else 1,
                         (self.deriv, f"{d} = {deriv.format(**names)}", on_deriv))
        for em, line, failure in steps:
            em.lines.append(line)
            em.failures.append((failure, names["a"], node.offset))
        return v, d


def _failure(table):
    """The handler of a generated function, called in its except clause.  It
    raises the typed error of a numeric exception from a line in table (keyed
    by line number), and returns on any other, which the clause re-raises."""
    def fail():
        exc = sys.exc_info()[1]
        if not isinstance(exc, _NUMERIC_ERRORS):
            return
        tb = exc.__traceback__
        entry = table.get(tb.tb_lineno)
        if entry is None:
            return
        failure, operand, at = entry
        if isinstance(exc, OverflowError):
            raise EvalDomainError(exc.args[-1], at) from None
        if failure is None:
            raise EvalDomainError(exc, at) from None
        cls, message = failure
        if "%r" in message:
            message %= (tb.tb_frame.f_locals[operand],)
        raise cls(message, at) from None
    return fail


# Function templates.  A line "@<name>" stands for the lines of the part
# <name>, at the marker's indent, and {<name>} for the name holding its
# result; {params} binds the names the lines need as default arguments.
_POINT = """\
def compiled(x{params}):
    @value
    return {value}
"""


def _compile(root, dual=False):
    """Straight-line function x -> value of root (x -> derivative if dual).

    Nested expressions would hit the compiler's parenthesis limit on long
    sums, so every operator node gets its own statements.
    """
    em = _Emitter(False)
    em.deriv = em if dual else None
    value, deriv = em.emit(root)
    return _define(_POINT, {"value": (em, deriv if dual else value)})


def compile_loop(template, parts, env, dual=()):
    """The function in template, where parts maps a name to (expression,
    variable name): "@name" lines are the expression's value lines, with its
    variable so named and its locals and constants prefixed by name, and
    {name} the name holding its value.  A part named in dual also has its
    derivative lines, "@d<name>" lines after its value lines, and
    {d<name>} the name holding its derivative.  env binds the template's
    own helpers.  A failing part line raises its typed error, as in
    _compile's functions.  Callers reach it through kernel, which keeps
    what it compiles."""
    emitted = {}
    for name, (e, var) in parts.items():
        em = _Emitter(name in dual, var=var, prefix=name)
        value, deriv = em.emit(e.root)
        emitted[name] = em, value
        if em.deriv is not None:
            emitted["d" + name] = em.deriv, deriv
    return _define(template, emitted, env)


def kernel(template, parts, env, dual=()):
    """compile_loop's function, kept in the _kernels of the first part's
    Expression under template, with the other parts' Expressions.  It is
    compiled on first use, and again only when a part is not the same
    object as the kept one was compiled for: equal Expressions parsed apart
    do not share a kernel.  A kernel, and the other parts it holds, live as
    long as its first part, or until another compile replaces it."""
    owner, *others = [e for e, _ in parts.values()]
    kept = owner._kernels.get(template)
    if kept is not None and all(map(is_, kept[0], others)):
        return kept[1]
    fn = compile_loop(template, parts, env, dual)
    owner._kernels[template] = others, fn
    return fn


def _define(template, emitted, env=()):
    """Run template, with emitted mapping each part's name to (emitter,
    result name), and return the function `compiled` it defines: the one
    place generated source is run, with no builtins.  Its body runs in one
    try whose handler is fail (see _failure)."""
    scope = {}
    for em, _ in emitted.values():
        scope.update(em.bound())
    scope.update(env)
    table = {}
    scope["fail"] = _failure(table)
    names = {name: result for name, (_, result) in emitted.items()}
    names["params"] = "".join(f", {name}={name}" for name in scope)
    head, *body = template.splitlines()
    lines = [head.format(**names), "    try:"]
    for line in body:
        indent, marker, name = line.partition("@")
        if marker:
            em = emitted[name][0]
            # Line numbers count from 1, the def line.
            table.update(enumerate(em.failures, len(lines) + 1))
            lines += [f"    {indent}{code}" for code in em.lines]
        else:
            lines.append("    " + line.format(**names))
    # A bare except, as the source has no builtins to name a class with: fail
    # raises the typed error of a numeric one, and raise re-raises the rest.
    lines += ["    except:", "        fail()", "        raise"]
    scope["__builtins__"] = {}
    exec("\n".join(lines) + "\n", scope)
    return scope["compiled"]
