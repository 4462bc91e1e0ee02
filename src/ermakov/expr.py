"""Small expression language for user-supplied scalar functions.

System coefficients (angular forcings, couplings, potentials) enter the
library as text and live as immutable syntax trees.  The grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

'^' binds tightest, unary minus sits below it (so "-x^2" is -(x^2) while
"x^-2" is a legal exponent).  Known function names: sin, cos, tan, exp,
ln, sqrt, abs.  Everything downstream (evaluation, differentiation,
quadrature) works on the trees built here.

A tree deeper than ``MAX_DEPTH`` nodes, or text that nests parentheses,
function calls, signs and exponents deeper than that, is refused with a
ParseError.  The recursive walkers (``differentiate``, ``compile``,
``substitute``, ``evaluate``, ``to_text`` and ``==``) then keep within
Python's default recursion limit on a tree at the bound and on its
second derivative, which can be 7.5 times as deep.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import re
import sys
import types
from typing import Callable, Mapping, Union

__all__ = [
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Expr",
    "FUNCTIONS",
    "ExprError",
    "ParseError",
    "MAX_DEPTH",
    "EvalError",
    "DomainError",
    "QuadratureError",
    "parse",
    "to_text",
    "evaluate",
    "compile",
    "differentiate",
    "substitute",
    "free_vars",
    "quad_adaptive",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
# nodes on the longest root-to-leaf path of a parsed tree; ``==`` takes
# three recursion levels per node, and the deepest second derivative
# found (of a chain of powers) is 241 nodes deep: 723 of the 1,000 levels
MAX_DEPTH = 32


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    """Raised on malformed input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Raised when evaluation refers to a variable with no binding."""


class DomainError(ExprError):
    """Raised when evaluation leaves the real domain (log of a negative
    number, division by zero, fractional power of a negative base, ...)."""


class QuadratureError(ExprError):
    """Raised when adaptive quadrature cannot deliver the requested tolerance."""


class _Record:
    """Base of the package's records that are not tuples: the ``_fields``
    are set once, by position, and compared, hashed and shown in order, by
    type, unless the class declares its own ``_key``; assigning to an
    attribute raises AttributeError.  A subclass without ``__slots__``
    keeps a ``__dict__`` for caches."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if cls._fields and "_key" not in vars(cls):  # what __eq__ and __hash__ compare
            cls._key = operator.attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Node(_Record):
    """Base of the expression nodes.  A node's hash is computed as it is
    built, from its fields, whose hashes were kept the same way, so a tree
    keys the caches of :func:`compile` and :func:`differentiate` at the
    cost of one lookup."""

    __slots__ = ("_hash",)

    def __init__(self, *values):
        super().__init__(*values)
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self):
        return self._hash


class Num(_Node):
    __slots__ = _fields = ("value",)
    # 0.0 == -0.0, yet x + 0.0 and x + -0.0 differ at x = -0.0: the sign
    # takes part in equality
    _key = staticmethod(lambda num: (num.value, math.copysign(1.0, num.value)))


class Var(_Node):
    __slots__ = _fields = ("name",)


class Unary(_Node):
    __slots__ = _fields = ("op", "arg")  # op is "neg" or one of FUNCTIONS


class Binary(_Node):
    __slots__ = _fields = ("op", "left", "right")  # op is one of + - * / ^


Expr = Union[Num, Var, Unary, Binary]

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0  # open _factor calls: every recursion passes there

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _fail(self, expected: str):
        self._skip_ws()
        found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
        raise ParseError(f"expected {expected}, found {found!r}", self.pos)

    def parse(self) -> Expr:
        node = self._expr()
        self._skip_ws()
        if self.pos < len(self.text):
            self._fail("end of input")
        level, depth = [node], 0
        while level:  # breadth first, so that no depth is too deep to measure
            depth += 1
            level = [c for e in level if type(e) in (Unary, Binary)
                     for c in ((e.arg,) if type(e) is Unary else (e.left, e.right))]
        if depth > MAX_DEPTH:  # offset 0: the whole text
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
        return node

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = Binary(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = Binary(op, node, self._factor())
        return node

    def _factor(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self.pos)
        if self._peek() == "-":
            self.pos += 1
            node = Unary("neg", self._factor())
        else:
            node = self._power()
        self.nesting -= 1
        return node

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            # exponent at factor level: right-associative, may carry a sign
            return Binary("^", base, self._factor())
        return base

    def _atom(self) -> Expr:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                self._fail("')'")
            self.pos += 1
            return node
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        m = _NAME.match(self.text, self.pos)
        if m:
            name = m.group()
            name_at = self.pos
            self.pos = m.end()
            if self._peek() == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", name_at)
                self.pos += 1
                arg = self._expr()
                if self._peek() != ")":
                    self._fail("')'")
                self.pos += 1
                return Unary(name, arg)
            return Var(name)
        self._fail("a number, name or '('")


@functools.lru_cache(maxsize=256)
def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with byte offset) on malformed input, including
    empty input, unknown function names and input deeper than MAX_DEPTH.
    Trees are immutable, so equal text gives the one tree it gave before:
    a cache keyed by a reloaded config's tree then finds its entry by
    identity, without walking the tree to compare it.
    """
    return _Parser(text).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary) and e.op == "neg":
        return _PREC["neg"]
    return _ATOM_PREC


def to_text(e: Expr) -> str:
    """Render a tree with a minimal set of parentheses.

    For any tree the parser can produce, parse(to_text(e)) == e holds
    structurally.  (Trees with negative literals cannot come out of the
    parser; they render fine but reparse as negations.)
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_text(e.arg)
            if _prec(e.arg) <= _PREC["*"]:
                inner = f"({inner})"
            return "-" + inner
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Binary):
        lhs, rhs = to_text(e.left), to_text(e.right)
        if e.op == "^":
            if _prec(e.left) <= _PREC["^"]:
                lhs = f"({lhs})"
            if _prec(e.right) < _PREC["neg"]:
                rhs = f"({rhs})"
        else:
            if _prec(e.left) < _PREC[e.op]:
                lhs = f"({lhs})"
            if _prec(e.right) <= _PREC[e.op]:
                rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"
    raise TypeError(f"not an expression node: {e!r}")


def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return free_vars(e.arg)
    return free_vars(e.left) | free_vars(e.right)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate a tree under IEEE double semantics.

    Unknown variables raise EvalError naming the variable; real-domain
    violations raise DomainError.  Extra bindings are ignored.
    """
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        x = evaluate(e.arg, bindings)
        if e.op in ("neg", "abs"):
            return -x if e.op == "neg" else abs(x)
        try:
            return getattr(math, "log" if e.op == "ln" else e.op)(x)
        except ValueError:
            raise DomainError(f"{e.op} of {x!r} is outside the real domain") from None
        except OverflowError:
            raise DomainError(f"{e.op} of {x!r} overflows") from None
    if isinstance(e, Binary):
        a = evaluate(e.left, bindings)
        b = evaluate(e.right, bindings)
        if e.op == "/" and b == 0.0:
            raise DomainError("division by zero")
        if e.op in _ARITHMETIC:
            return _ARITHMETIC[e.op](a, b)
        if e.op == "^":
            try:
                return math.pow(a, b)
            except ValueError:
                raise DomainError(f"power {a!r}^{b!r} is outside the real domain") from None
            except OverflowError:
                raise DomainError(f"power {a!r}^{b!r} overflows") from None
    raise TypeError(f"not an expression node: {e!r}")


# globals of every compiled function (none owns a dict that could form a
# cycle); _gk21 runs the generic panel, _method binds a bind's values
_NAMESPACE = dict(
    {name: getattr(math, name) for name in ("sin", "cos", "tan", "exp", "sqrt")},
    ln=math.log, abs=abs, float=float, inf=math.inf, nan=math.nan, _pow=math.pow,
    _gk21=lambda *panel: _gk21_panel()(*panel), _method=types.MethodType,
)


def _lower(tree: Expr, args: tuple, bound: tuple = (), guards: tuple = ()):
    """Source of ``make(replay)``, which returns the function of len(args)
    positional values computing ``tree``: one assignment per distinct
    subexpression, each the operation :func:`evaluate` performs.  Where an
    operation raises ArithmeticError or ValueError, or |e| <= m for a
    guard (e, m), it returns replay(*values, *bound values).  With
    ``bound`` names it returns ``bind(*values, replay=replay)``, which
    computes the work on those alone (where that raises, every call
    replays) and returns the function: ``compiled``, made once per make,
    as a method bound to the tuple of that work, the bound values and
    replay, so a bind builds no closure.  Of one arg, ``compiled`` carries
    ``gk21``: the panel of :func:`_gk21_source` with the work inlined at
    each node, which reads the tuple from its f and runs the generic panel
    where a sample faults or K21 or G10 is not finite."""
    a, b = [f"a{i}" for i in range(len(args))], [f"b{i}" for i in range(len(bound))]
    # a slot computed per sample is {s}xN and an arg's read {aI}, filled in
    # for compiled and for each node of the panel
    lines, slots, prelude, per_sample = [], {}, [], {}

    def emit(e: Expr) -> str:
        if isinstance(e, Num):
            return repr(float(e.value))
        if isinstance(e, Var):  # a bound variable is read when bound
            varies = e.name in args
            rhs = f"{{a{args.index(e.name)}}}" if varies else f"float(b{bound.index(e.name)})"
        else:
            xs = (emit(e.arg),) if isinstance(e, Unary) else (emit(e.left), emit(e.right))
            if isinstance(e, Unary):
                rhs = f"-{xs[0]}" if e.op == "neg" else f"{e.op}({xs[0]})"
            else:
                rhs = f"_pow({xs[0]}, {xs[1]})" if e.op == "^" else f"{xs[0]} {e.op} {xs[1]}"
            varies = not bound or any(per_sample.get(x) for x in xs)
        if rhs not in slots:  # equal text computes an equal value
            slots[rhs] = name = f"{'{s}' * varies}x{len(slots)}"
            per_sample[name] = varies
            (lines if varies else prelude).append(f"{name} = {rhs}")
        return slots[rhs]

    replay, result = f"return replay({', '.join(a + b)})", None
    if free_vars(tree).union(*(free_vars(e) for e, _ in guards)) <= set(args + bound):
        result = emit(tree)
        for e, m in guards:  # a guard hit replays as a raise does
            x = emit(e)
            lines += [f"if {-m!r} <= {x} <= {m!r}:", "    raise ValueError"]
    else:  # with a variable unbound, the replay raises evaluate's EvalError
        lines.append("raise ValueError")
    body = lines or ["pass"]
    # what a bind holds: its work's values, the bound values and replay
    held = ", ".join([x.partition(" = ")[0] for x in prelude] + b + ["replay"])
    unpack = [f"    {held} = bound"] if bound else []
    code = [f"def compiled({', '.join(['bound'] * bool(bound) + a)}):", *unpack, "    try:"]
    code += [f"        {x}" for x in body]
    # the return after the try, so that a replay that raises is not replayed
    code += ["    except (ArithmeticError, ValueError):", f"        {replay}"]
    code += [f"    return {result}"] if result else []
    code = [line.format(s="", **{x: f"float({x})" for x in a}) for line in code]
    if bound:
        code += [f"def bind({', '.join(b)}, replay=replay):", "    try:"]
        code += [f"        {x}" for x in prelude or ["pass"]]
        code += ["    except (ArithmeticError, ValueError):",  # every call replays
                 f"        return lambda {', '.join(a)}: replay({', '.join(a + b)})",
                 f"    return _method(compiled, ({held}))"]
        if len(args) == 1 and result:
            at = [{"s": f"{y}_", "a0": x} for y, x in _GK21_POINTS]  # in the order taken
            back = "    return _gk21(f, lo, hi, depth)"
            sampling = [f"{held} = f.__self__", "try:"]
            sampling += [f"    {x.format(**n)}" for n in at for x in body]
            sampling += ["except (ArithmeticError, ValueError):", back]
            code += _gk21_source(sampling, [result.format(**n) for n in at], back)
            code.append("compiled.gk21 = gk21")
    code.append("return bind" if bound else "return compiled")
    return "def make(replay):\n" + "".join(f"    {line}\n" for line in code)


@functools.lru_cache(maxsize=1024)  # CPython keeps memory for each new code object run
def _maker(tree: Expr, args: tuple, bound: tuple, guards: tuple):
    scope = {}
    exec(_lower(tree, args, bound, guards), _NAMESPACE, scope)
    return scope["make"]


def compile(tree: Expr, args, bound=(), guards=()) -> Callable[..., float]:
    """Lower ``tree`` to a function of the positional values of ``args``
    (variable names, in order) that returns, as a Python float, exactly
    what :func:`evaluate` returns for ``dict(zip(args, values))``.  Where
    it raises ArithmeticError or ValueError, ``evaluate`` runs instead and
    raises its own error.  With ``bound`` names it returns
    ``bind(*values, replay=evaluate)``, which binds those and returns that
    function, a bound method; where an operation raises or |e| <= m for a
    guard (e, m), it returns replay(*values of args, *values of bound).
    bind computes the work on the bound values alone once, and the
    function of one arg it returns carries ``gk21``, a fused Gauss-Kronrod
    panel for :func:`quad_adaptive`.  The lowered code, panel included, is
    kept by the value of (tree, args, bound, guards), for the 1,024 keys
    used last, so an equal tree is lowered once per process, on first use."""
    args, bound, guards = tuple(args), tuple(bound), tuple(guards)
    make = _maker(tree, args, bound, guards)
    return make(lambda *vals: evaluate(tree, dict(zip(args + bound, vals))))


def substitute(e: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``var`` by ``replacement``.
    A subtree without ``var`` comes back as the same object."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return replacement if e.name == var else e
    if isinstance(e, Unary):
        arg = substitute(e.arg, var, replacement)
        return e if arg is e.arg else Unary(e.op, arg)
    left, right = substitute(e.left, var, replacement), substitute(e.right, var, replacement)
    return e if left is e.left and right is e.right else Binary(e.op, left, right)


_ZERO, _ONE = Num(0.0), Num(1.0)  # the structural zero, and d(var)/d(var)


def _add(op: str, a: Expr, b: Expr) -> Expr:
    """a + b or a - b, a structural-zero term dropped (0 - b stays)."""
    return a if b is _ZERO else b if a is _ZERO and op == "+" else Binary(op, a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    """a * b: the structural zero if a factor is, the other factor if one is 1."""
    if a is _ZERO or b is _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else Binary("*", a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to ``var``, built with no
    dead terms.  A subtree free of ``var`` derives to one shared Num(0.0),
    the structural zero, found bottom-up; a sum or difference drops a
    structural-zero term (0 - b stays), a product with one is that zero, a
    factor 1 drops out, f^2 gives 2*f (not 2*f^1.0), and --x is x.  Nothing
    else is rewritten ((df*g)/g^2 stays), so a finite, nonzero value keeps
    the bits of the unsimplified derivative.  Only two values can differ
    from it: a zero can change sign (that tree wrote 0.0 + x and x*0.0),
    and where a dropped term is inf or NaN or raises, that tree gave NaN or
    the error.  d(abs)/dx is written as x/abs(x) times the inner
    derivative, which turns the kink at zero into an evaluation-time
    domain error.  Results, the subtrees' included, are kept by the value
    of (e, var), for the 4,096 keys used last: an equal tree is derived
    once per process, to the same tree objects.
    """
    return _derivative(e, var)


# the cache sits under differentiate, which stays a plain function: the
# benchmark's tracer copies it to count only its outermost calls
@functools.lru_cache(maxsize=4096)
def _derivative(e: Expr, var: str) -> Expr:
    d = None
    if isinstance(e, Num):
        d = _ZERO
    elif isinstance(e, Var):
        d = _ONE if e.name == var else _ZERO
    elif isinstance(e, Unary):
        f, df = e.arg, _derivative(e.arg, var)
        if df is _ZERO:
            d = _ZERO
        elif e.op == "neg":
            d = df.arg if isinstance(df, Unary) and df.op == "neg" else Unary("neg", df)
        elif e.op == "sin":
            d = _mul(Unary("cos", f), df)
        elif e.op == "cos":
            d = _mul(Unary("neg", Unary("sin", f)), df)
        elif e.op == "tan":
            d = Binary("/", df, Binary("^", Unary("cos", f), Num(2.0)))
        elif e.op == "exp":
            d = _mul(Unary("exp", f), df)
        elif e.op == "ln":
            d = Binary("/", df, f)
        elif e.op == "sqrt":
            d = Binary("/", df, Binary("*", Num(2.0), Unary("sqrt", f)))
        elif e.op == "abs":
            d = _mul(Binary("/", f, Unary("abs", f)), df)
    elif isinstance(e, Binary):
        f, g = e.left, e.right
        df, dg = _derivative(f, var), _derivative(g, var)
        if df is _ZERO and dg is _ZERO:
            d = _ZERO
        elif e.op in ("+", "-"):
            d = _add(e.op, df, dg)
        elif e.op == "*":
            d = _add("+", _mul(df, g), _mul(f, dg))
        elif e.op == "/":
            d = Binary("/", _add("-", _mul(df, g), _mul(f, dg)), Binary("^", g, Num(2.0)))
        elif e.op == "^" and isinstance(g, Num):
            # constant exponent: keeps negative bases evaluable
            power = f if g.value == 2.0 else Binary("^", f, Num(g.value - 1.0))
            d = _mul(_mul(g, power), df)
        elif e.op == "^" and isinstance(f, Num):
            d = _mul(Binary("*", e, Unary("ln", f)), dg)
        elif e.op == "^":  # general case needs ln(base)
            d = Binary("*", e, _add("+", _mul(dg, Unary("ln", f)), Binary("/", _mul(g, df), f)))
    if d is None:
        raise TypeError(f"not an expression node: {e!r}")
    return d


# halvings allowed below the whole interval before a quadrature gives up
_QUAD_MAX_DEPTH = 50
# panels one Gauss-Kronrod quadrature may hold (QUADPACK's ``limit``);
# the shipped configs and the benchmark use at most 4
_QUAD_MAX_PANELS = 1000
# a panel whose |K21 - G10| is at most this many units of rounding of its
# integral of |f| is rounding noise that bisection cannot lower (the 50
# eps floor of QUADPACK's qk21); the shipped configs and the benchmark
# bisect no panel closer to it than 2,000 units, so the floor stops only
# a tol set below what doubles resolve
_ROUNDOFF_UNITS = 50.0

# Gauss-Kronrod pair on [-1, 1] (QUADPACK qk21), symmetric about 0, so
# only 0 and the positive nodes are listed: the 11 Kronrod nodes, their
# weights, and the 10-point Gauss weights of nodes 1, 3, 5, 7 and 9
_GK21_NODES = (
    0.0, 0.14887433898163122, 0.2943928627014602, 0.4333953941292472,
    0.5627571346686047, 0.6794095682990244, 0.7808177265864169, 0.8650633666889845,
    0.9301574913557082, 0.9739065285171717, 0.9956571630258081,
)
_K21_WEIGHTS = (
    0.1494455540029169, 0.14773910490133849, 0.14277593857706009, 0.13470921731147334,
    0.12349197626206584, 0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
    0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
)
_G10_WEIGHTS = (
    0.29552422471475287, 0.26926671930999635, 0.21908636251598204, 0.1494513491505806,
    0.06667134430868814,
)


def quad_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Globally adaptive Gauss-Kronrod (21-point Kronrod, 10-point Gauss)
    rule: the panel whose |K21 - G10| is largest is bisected until those
    differences sum to at most ``tol``, or until the largest is rounding
    noise (``_ROUNDOFF_UNITS``), which bisection cannot lower, and the
    K21 values of the panels are summed by math.fsum; a first panel that
    meets ``tol`` is the value, as fsum gives it.  The endpoints are never
    sampled.  The orientation convention is the usual one, integral over
    [a,b] = -integral over [b,a]: for b < a the bounds are swapped and
    the value negated.  A panel runs f's own ``gk21`` where f
    has one (see :func:`compile`): the same bits and errors, with f's
    work inlined and, on any fault, the generic panel run on f instead.

    Raises QuadratureError on a non-finite integrand sample or panel sum
    (K21 or G10), when the panel to bisect is already ``_QUAD_MAX_DEPTH``
    halvings deep, or when ``_QUAD_MAX_PANELS`` panels have not met ``tol``.
    """
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bounds must be finite, got {a!r}, {b!r}")
    if a == b:
        return 0.0
    flip = b < a
    if flip:
        a, b = b, a

    gk21 = getattr(f, "gk21", None) or _gk21_panel()
    first = gk21(f, a, b, 0)
    # a running sum of the panels' errors, recomputed by math.fsum when it
    # leaves [exact/2, 2*exact], so its rounding stays near 1e-11 of it
    errsum = exact = -first[0]
    if not errsum > tol:  # fsum of one value x is x + 0.0, -0.0 made 0.0
        return -(first[4] + 0.0) if flip else first[4] + 0.0
    panels = [first]
    while errsum > tol:
        if len(panels) >= _QUAD_MAX_PANELS:
            raise QuadratureError(
                f"panel limit {_QUAD_MAX_PANELS} reached on [{a!r}, {b!r}] "
                f"before tolerance was met"
            )
        neg_err, depth, lo, hi, _, samples = panels[0]
        floor = _ROUNDOFF_UNITS * sys.float_info.epsilon * _abs_integral(lo, hi, samples)
        if -neg_err <= floor:
            break  # every error left is rounding noise: tol is below it
        if depth >= _QUAD_MAX_DEPTH:
            raise QuadratureError(
                f"subdivision limit {_QUAD_MAX_DEPTH} reached on [{lo!r}, {hi!r}] "
                f"before tolerance was met"
            )
        mid = 0.5 * (lo + hi)
        left = gk21(f, lo, mid, depth + 1)
        right = gk21(f, mid, hi, depth + 1)
        heapq.heapreplace(panels, left)
        heapq.heappush(panels, right)
        errsum += neg_err - left[0] - right[0]
        if not 0.5 * exact <= errsum <= 2.0 * exact:
            errsum = exact = math.fsum(-panel[0] for panel in panels)
    total = math.fsum(map(operator.itemgetter(4), panels))  # the K21 values
    return -total if flip else total


# a panel's samples and their nodes, in the order taken: centre, left, right
_GK21_POINTS = (("c", "mid"), *((f"{y}{i}", f"mid {sign} d{i}")
                                for y, sign in (("l", "-"), ("r", "+"))
                                for i in range(1, len(_GK21_NODES))))


def _gk21_source(sampling: list, values: list, nonfinite: str) -> list:
    """Lines of the panel ``gk21(f, lo, hi, depth)``, as straight-line
    float code: the node offsets half * x, ``sampling``, which leaves the
    samples of _GK21_POINTS in ``values``, the K21 and G10 sums unrolled
    from 0.0, weights in order, the line ``nonfinite`` where one is not
    finite, and the entry (-|K21 - G10|, depth, lo, hi, K21, samples) for
    a min-heap that puts the largest error first; ``samples`` are the
    centre's, the left and the right."""
    idx, n = range(1, len(_GK21_NODES)), len(_GK21_NODES)
    centre, left, right = values[0], values[1:n], values[n:]
    lines = ["mid = 0.5 * (lo + hi)", "half = 0.5 * (hi - lo)"]
    lines += [f"d{i} = half * {_GK21_NODES[i]!r}" for i in idx]
    lines += sampling
    lines += [f"p{i} = {y} + {z}" for i, y, z in zip(idx, left, right)]
    k21 = "".join(f" + {_K21_WEIGHTS[i]!r} * p{i}" for i in idx)
    g10 = "".join(f" + {w!r} * p{2 * i + 1}" for i, w in enumerate(_G10_WEIGHTS))
    lines += [
        f"kronrod = half * ({_K21_WEIGHTS[0]!r} * {centre} + (0.0{k21}))",
        f"gauss = half * (0.0{g10})", "if kronrod - kronrod or gauss - gauss:", nonfinite,
        f"samples = ({centre}, [{', '.join(left)}], [{', '.join(right)}])",
        "return (-abs(kronrod - gauss), depth, lo, hi, kronrod, samples)",
    ]
    return ["def gk21(f, lo, hi, depth):", *(f"    {line}" for line in lines)]


@functools.cache
def _gk21_panel() -> Callable:
    """The generic panel ``gk21(f, lo, hi, depth)`` of :func:`_gk21_source`,
    generated on first use: its samples are float(f(x)), each checked as
    it is taken, and its sums are checked too."""
    # y - y is 0.0 where y is finite and NaN, which is true, where not
    sampling = [line for y, x in _GK21_POINTS for line in (
        f"{y} = float(f({x}))", f"if {y} - {y}:",
        f'    raise _error(f"non-finite integrand value {{{y}!r}} at lambda={{{x}!r}}")')]
    nonfinite = '    raise _error(f"non-finite K21 or G10 sum on [{lo!r}, {hi!r}]")'
    source = _gk21_source(sampling, [y for y, _ in _GK21_POINTS], nonfinite)
    scope = {}
    exec("\n".join(source), {"_error": QuadratureError}, scope)
    return scope["gk21"]


def _abs_integral(lo: float, hi: float, samples: tuple) -> float:
    """The K21 estimate of the integral of |f| over [lo, hi] from the
    samples a panel kept; only the panel about to be bisected needs it."""
    centre, left, right = samples
    pairs = map(operator.add, map(abs, left), map(abs, right))
    return 0.5 * (hi - lo) * (
        _K21_WEIGHTS[0] * abs(centre) + sum(map(operator.mul, _K21_WEIGHTS[1:], pairs))
    )
