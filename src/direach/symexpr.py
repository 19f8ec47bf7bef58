"""Symbolic vector fields: expression trees, parsing, differentiation, and
extraction of step-error constants over a bounding box.

The grammar covers what the drift and input fields of an input-affine system
need: variables x1..xn, decimal literals, + - * /, integer powers with ^,
and sin/cos/exp.  Differentiation is exact.  Evaluation over points, over boxes
(natural interval extension), over numpy columns (mc) and over polynomial
models (polymodel.compose_expr) is one fold with a table of operations per
domain; InputAffineSystem.field assembles f + sum_k g_k u_k in any of them.
"""
from __future__ import annotations

import math
import operator
import re
from typing import Any, Callable, Sequence

from .interval import (
    Box,
    Interval,
    IntervalMatrix,
    iv_cos,
    iv_exp,
    iv_sin,
    lognorm_inf,
    mat_inf_norm,
    row_abs_sums,
    _Immutable,
    _add_down,
    _add_up,
    _mul_down,
    _mul_up,
    _set,
)

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Sin",
    "Cos",
    "Exp",
    "ExprSyntaxError",
    "parse",
    "diff",
    "fold",
    "ARITH_OPS",
    "eval_point",
    "eval_interval",
    "max_var_index",
    "InputAffineSystem",
    "StepErrorBounds",
    "compute_bounds",
]


class Expr(_Immutable):
    """Base class for expression nodes: immutable slotted values (see
    interval._Immutable)."""

    __slots__ = ()


class Var(Expr):
    __slots__ = ("index",)  # 1-based, printed as x<index>

    def __init__(self, index: int):
        _set(self, "index", index)

    def __str__(self) -> str:
        return f"x{self.index}"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)

    def __str__(self) -> str:
        if self.value < 0:
            return f"({self.value!r})"
        return repr(self.value)


class _Binary(Expr):
    """A node of two operands: Add, Sub, Mul or Div."""

    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        _set(self, "a", a)
        _set(self, "b", b)


class _Unary(Expr):
    """A node of one operand: Neg, Sin, Cos or Exp."""

    __slots__ = ("a",)

    def __init__(self, a: Expr):
        _set(self, "a", a)


class Add(_Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.a} + {self.b}"


class Sub(_Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.a} - {_paren_term(self.b)}"


class Mul(_Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{_paren_term(self.a)}*{_paren_term(self.b)}"


class Div(_Binary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{_paren_term(self.a)}/{_paren_factor(self.b)}"


class Neg(_Unary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"-{_paren_term(self.a)}"


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)

    def __str__(self) -> str:
        return f"{_paren_factor(self.base)}^{self.exponent}"


class Sin(_Unary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"sin({self.a})"


class Cos(_Unary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"cos({self.a})"


class Exp(_Unary):
    __slots__ = ()

    def __str__(self) -> str:
        return f"exp({self.a})"


def _paren_term(e: Expr) -> str:
    if isinstance(e, (Add, Sub, Neg)):
        return f"({e})"
    return str(e)


def _paren_factor(e: Expr) -> str:
    if isinstance(e, (Add, Sub, Mul, Div, Neg)):
        return f"({e})"
    return str(e)


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the 1-based offending token index."""

    def __init__(self, message: str, token_index: int):
        super().__init__(f"syntax error at token {token_index}: {message}")
        self.token_index = token_index


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprSyntaxError(f"unrecognized input {rest[:10]!r}", len(tokens) + 1)
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, message: str):
        # report the upcoming (1-based) token position
        raise ExprSyntaxError(message, self.pos + 1)

    def _fail_here(self, message: str):
        # report the token just consumed
        raise ExprSyntaxError(message, self.pos)

    def parse(self) -> Expr:
        e = self._expr()
        kind, value = self._peek()
        if kind != "end":
            self._fail(f"unexpected {value!r}")
        return e

    def _expr(self) -> Expr:
        kind, value = self._peek()
        negate = False
        if kind == "op" and value in "+-":
            self._next()
            negate = value == "-"
        e = self._term()
        if negate:
            e = Neg(e)
        while True:
            kind, value = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                rhs = self._term()
                e = Add(e, rhs) if value == "+" else Sub(e, rhs)
            else:
                return e

    def _term(self) -> Expr:
        e = self._power()
        while True:
            kind, value = self._peek()
            if kind == "op" and value in "*/":
                self._next()
                rhs = self._power()
                e = Mul(e, rhs) if value == "*" else Div(e, rhs)
            else:
                return e

    def _power(self) -> Expr:
        base = self._atom()
        kind, value = self._peek()
        if kind == "op" and value == "^":
            self._next()
            sign = 1
            kind, value = self._peek()
            if kind == "op" and value == "-":
                self._next()
                sign = -1
            kind, value = self._peek()
            if kind != "num" or not value.isdigit():
                self._fail("expected integer exponent after '^'")
            self._next()
            return Pow(base, sign * int(value))
        return base

    def _atom(self) -> Expr:
        kind, value = self._next()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            m = _VAR_RE.match(value)
            if m:
                return Var(int(m.group(1)))
            fn = _FUNCTIONS.get(value)
            if fn is None:
                self._fail_here(f"unknown identifier {value!r}")
            kind2, value2 = self._next()
            if kind2 != "op" or value2 != "(":
                self._fail_here(f"expected '(' after {value}")
            arg = self._expr()
            kind2, value2 = self._next()
            if kind2 != "op" or value2 != ")":
                self._fail_here("expected ')'")
            return fn(arg)
        if kind == "op" and value == "(":
            e = self._expr()
            kind2, value2 = self._next()
            if kind2 != "op" or value2 != ")":
                self._fail_here("expected ')'")
            return e
        if kind == "op" and value == "-":
            return Neg(self._atom())
        self._fail_here("unexpected end of input" if kind == "end" else f"unexpected {value!r}")


def parse(text: str) -> Expr:
    """Parse expression text; raises ExprSyntaxError with token position."""
    return _Parser(text).parse()


def _exact(x: float, y: float, up, down) -> float | None:
    # fold constants only when the float operation is exact: finite operands
    # whose upward and downward roundings agree (so the result is finite too)
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    v = up(x, y)
    return v if v == down(x, y) else None


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        v = _exact(a.value, b.value, _add_up, _add_down)
        if v is not None:
            return Const(v)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        v = _exact(a.value, -b.value, _add_up, _add_down)
        if v is not None:
            return Const(v)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and isinstance(b, Const):
        v = _exact(a.value, b.value, _mul_up, _mul_down)
        if v is not None:
            return Const(v)
    return Mul(a, b)


def diff(e: Expr, j: int) -> Expr:
    """Exact partial derivative with respect to variable x<j> (1-based)."""
    if isinstance(e, Var):
        return Const(1.0 if e.index == j else 0.0)
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Add):
        return _add(diff(e.a, j), diff(e.b, j))
    if isinstance(e, Sub):
        return _sub(diff(e.a, j), diff(e.b, j))
    if isinstance(e, Neg):
        return _neg(diff(e.a, j))
    if isinstance(e, Mul):
        return _add(_mul(diff(e.a, j), e.b), _mul(e.a, diff(e.b, j)))
    if isinstance(e, Div):
        num = _sub(_mul(diff(e.a, j), e.b), _mul(e.a, diff(e.b, j)))
        if isinstance(num, Const) and num.value == 0.0:
            return Const(0.0)
        return Div(num, Pow(e.b, 2))
    if isinstance(e, Pow):
        inner = diff(e.base, j)
        if isinstance(inner, Const) and inner.value == 0.0:
            return Const(0.0)
        if e.exponent == 0:
            return Const(0.0)
        return _mul(_mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Sin):
        return _mul(Cos(e.a), diff(e.a, j))
    if isinstance(e, Cos):
        return _neg(_mul(Sin(e.a), diff(e.a, j)))
    if isinstance(e, Exp):
        return _mul(Exp(e.a), diff(e.a, j))
    raise TypeError(f"cannot differentiate {type(e).__name__}")


_BINARY = frozenset((Add, Sub, Mul, Div))


def fold(e: Expr, args: Sequence, ops: dict, memo: dict | None = None):
    """Value of e over one domain: x<i> is args[i-1], and every other node is
    ops[type(node)] applied to its children's values.  Const gets its value
    and args (from which a domain takes its shape), Pow its base's value and
    its exponent.

    With a memo, each node's value is kept under id(node), next to the node
    itself (which the memo keeps alive, so no other node takes its id), and
    a node met again is not folded again.  Variables are not memoized.
    """
    t = type(e)
    if t is Var:
        return args[e.index - 1]
    if memo is not None:
        hit = memo.get(id(e))
        if hit is not None:
            return hit[1]
    op = ops.get(t)
    if op is None:
        raise TypeError(f"cannot evaluate {t.__name__}")
    if t is Const:
        out = op(e.value, args)
    elif t is Pow:
        out = op(fold(e.base, args, ops, memo), e.exponent)
    elif t in _BINARY:
        out = op(fold(e.a, args, ops, memo), fold(e.b, args, ops, memo))
    else:
        out = op(fold(e.a, args, ops, memo))
    if memo is not None:
        memo[id(e)] = (e, out)
    return out


# the arithmetic nodes in every domain: the operators dispatch on the value type
ARITH_OPS = {
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Neg: operator.neg,
    Pow: operator.pow,
}
_POINT_OPS = {**ARITH_OPS, Const: lambda v, args: v, Sin: math.sin, Cos: math.cos, Exp: math.exp}
_INTERVAL_OPS = {**ARITH_OPS, Const: lambda v, args: Interval.point(v), Sin: iv_sin, Cos: iv_cos, Exp: iv_exp}
# folding over the variable indices themselves gives the largest one
_VAR_INDICES = range(1, 2**63)
_MAX_INDEX_OPS = {
    **{t: max for t in _BINARY},
    **{t: (lambda a: a) for t in (Neg, Sin, Cos, Exp)},
    Const: lambda v, args: 0,
    Pow: lambda a, n: a,
}


def eval_point(e: Expr, x: Sequence[float]) -> float:
    return fold(e, [float(v) for v in x], _POINT_OPS)


def eval_interval(e: Expr, x: Box, memo: dict | None = None) -> Interval:
    """Natural interval extension; encloses {e(p) : p in x}.  Calls over
    one box that pass one memo evaluate each shared node once (see fold)."""
    return fold(e, x.components, _INTERVAL_OPS, memo)


def max_var_index(e: Expr) -> int:
    return fold(e, _VAR_INDICES, _MAX_INDEX_OPS)


def _intern(e: Expr, table: dict) -> Expr:
    """e rebuilt so that, among all expressions interned into the same
    table, equal subtrees are one object.  It walks each node's field
    slots, in the order of its constructor's parameters.  Constants are
    told apart by their bits, so 0.0 and -0.0 stay two nodes."""
    parts = [getattr(e, name) for name in e._fields]
    parts = [_intern(p, table) if isinstance(p, Expr) else p for p in parts]
    key = (type(e),) + tuple(
        id(p) if isinstance(p, Expr) else p.hex() if isinstance(p, float) else p for p in parts
    )
    node = table.get(key)
    if node is None:
        # the table keeps node, and so its interned children, alive: the
        # child ids in the keys stay unique
        node = table[key] = type(e)(*parts)
    return node


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


_POINT_ZERO = Interval.point(0.0)


def _entry_interval(e: Expr, box: Box, memo: dict) -> Interval:
    # most derivative entries are the interned zero: no evaluation for them
    return _POINT_ZERO if _is_zero(e) else eval_interval(e, box, memo)


class InputAffineSystem:
    """System dx/dt = f(x) + sum_i g_i(x) v_i(t) with |v_i| <= V_i.

    Drift and input fields are expression vectors over x1..xn; their first
    and second derivatives are prepared once at construction.  Fields and
    derivatives are interned together, so that a subterm they share is one
    object: compose_expr composes it once per memo, and eval_interval
    evaluates it once per memo (one per box in compute_bounds and
    flow.local_rates).
    """

    def __init__(
        self,
        dim: int,
        drift: Sequence[Expr | str],
        inputs: Sequence[Sequence[Expr | str]] = (),
        magnitudes: Sequence[float] = (),
    ):
        table: dict = {}

        def _coerce(e):
            return _intern(parse(e) if isinstance(e, str) else e, table)

        self.n = int(dim)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        self.f: tuple[Expr, ...] = tuple(_coerce(e) for e in drift)
        self.g: tuple[tuple[Expr, ...], ...] = tuple(tuple(_coerce(e) for e in gi) for gi in inputs)
        self.V: tuple[float, ...] = tuple(float(v) for v in magnitudes)
        if len(self.f) != self.n:
            raise ValueError(f"drift has {len(self.f)} components, expected {self.n}")
        for gi in self.g:
            if len(gi) != self.n:
                raise ValueError("every input field must have one component per state dimension")
        if len(self.V) != len(self.g):
            raise ValueError("need one magnitude per input field")
        if not all(0 < v < math.inf for v in self.V):
            raise ValueError("input magnitudes must be positive")
        for e in self.f:
            if max_var_index(e) > self.n:
                raise ValueError(f"expression {e} references a variable beyond x{self.n}")
        for gi in self.g:
            for e in gi:
                if max_var_index(e) > self.n:
                    raise ValueError(f"expression {e} references a variable beyond x{self.n}")

        n = self.n

        def _d(e, j):
            return _intern(diff(e, j), table)

        self.df = tuple(tuple(_d(self.f[i], j + 1) for j in range(n)) for i in range(n))
        self.dg = tuple(tuple(tuple(_d(gi[i], j + 1) for j in range(n)) for i in range(n)) for gi in self.g)
        self.d2f = tuple(
            tuple(tuple(_d(self.df[i][j], k + 1) for k in range(n)) for j in range(n)) for i in range(n)
        )
        self.d2g = tuple(
            tuple(tuple(tuple(_d(dgi[i][j], k + 1) for k in range(n)) for j in range(n)) for i in range(n))
            for dgi in self.dg
        )

    @property
    def m(self) -> int:
        return len(self.g)

    # memo is an eval_interval memo for box, shared with other calls on box
    def drift_jacobian(self, box: Box, memo: dict) -> IntervalMatrix:
        return IntervalMatrix(tuple(tuple(_entry_interval(e, box, memo) for e in row) for row in self.df))

    def input_jacobian(self, k: int, box: Box, memo: dict) -> IntervalMatrix:
        return IntervalMatrix(tuple(tuple(_entry_interval(e, box, memo) for e in row) for row in self.dg[k]))

    def field(self, value: Callable[[Expr], Any], inputs: Sequence) -> list:
        """f(x) + sum_k g_k(x) u_k per component, in the domain of value:
        value(e) is the value of the expression e there, inputs[k] is u_k.
        Input fields that are the constant 0 are skipped: their product and
        sum change nothing."""
        out = []
        for c in range(self.n):
            acc = value(self.f[c])
            for k, u in enumerate(inputs):
                if not _is_zero(self.g[k][c]):
                    acc = acc + value(self.g[k][c]) * u
            out.append(acc)
        return out

    def rhs_interval(self, box: Box, input_ranges: Sequence[Interval]) -> tuple[Interval, ...]:
        """Interval hull of f(x) + sum g_i(x)u_i over x in box, u_i in input_ranges."""
        memo: dict = {}
        return tuple(self.field(lambda e: eval_interval(e, box, memo), input_ranges))


class StepErrorBounds(_Immutable):
    """Constants bounding the field and its derivatives over a box.

    Primed values are assembled componentwise (sup-norm of sum_i V_i|g_i|
    and its derivatives), which is what the error formulas consume.  Since
    every V_i is positive, Lp and Hp are 0 exactly when every input field
    has zero first and second derivatives on the box (additive noise).
    """

    __slots__ = ("K", "Kp", "L", "Lp", "H", "Hp", "Lam")

    def __init__(self, K: float, Kp: float, L: float, Lp: float, H: float, Hp: float, Lam: float):
        if min(K, Kp, L, Lp, H, Hp) < 0:
            raise ValueError("bounds must be nonnegative")
        for name, value in zip(self.__slots__, (K, Kp, L, Lp, H, Hp, Lam)):
            _set(self, name, value)


def _sup_abs(e: Expr, box: Box, memo: dict) -> float:
    # 0.0 for a zero entry, which leaves every max and upward sum it enters as it was
    return _entry_interval(e, box, memo).mag


def _weighted_max(V: Sequence[float], per_input: Sequence[Sequence[float]]) -> float:
    """Max over slots of the upward sum of V_i * x_i, where per_input[i]
    lists input i's nonnegative value x_i for every slot."""
    best = 0.0
    for xs in zip(*per_input):
        s = 0.0
        for v, x in zip(V, xs):
            s = _add_up(s, _mul_up(v, x))
        best = max(best, s)
    return best


def compute_bounds(sys: InputAffineSystem, box: Box) -> StepErrorBounds:
    """Upper bounds for ||f||, ||Df||, lognorm(Df), ||D^2 f|| and the input
    analogues over box; everything rounded upward.  ||D^2 f|| is the
    largest second-derivative magnitude.  One memo serves every evaluation
    on box, so each distinct node of the fields and their derivatives is
    evaluated once.  A non-finite entry of Df or of an input Jacobian
    raises IntervalDomainError.
    """
    memo: dict = {}

    K = max(_sup_abs(e, box, memo) for e in sys.f)
    Kp = _weighted_max(sys.V, [[_sup_abs(e, box, memo) for e in gi] for gi in sys.g])
    dfm = sys.drift_jacobian(box, memo)
    L = mat_inf_norm(dfm)
    Lp = _weighted_max(sys.V, [row_abs_sums(sys.input_jacobian(k, box, memo)) for k in range(sys.m)])
    Lam = lognorm_inf(dfm)
    H = max(_sup_abs(e, box, memo) for plane in sys.d2f for row in plane for e in row)
    Hp = _weighted_max(
        sys.V, [[_sup_abs(e, box, memo) for plane in d2gi for row in plane for e in row] for d2gi in sys.d2g]
    )
    return StepErrorBounds(K=K, Kp=Kp, L=L, Lp=Lp, H=H, Hp=Hp, Lam=Lam)
