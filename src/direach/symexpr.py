"""Symbolic vector fields: expression trees, parsing, differentiation, and
extraction of step-error constants over a bounding box.

The grammar covers what the drift and input fields of an input-affine system
need: variables x1..xn, decimal literals, + - * /, integer powers with ^,
and sin/cos/exp.  Differentiation is exact.  Evaluation over points, over boxes
(natural interval extension), over numpy columns (mc) and over polynomial
models (polymodel.compose_expr) is a run of one Program, a flat list of the
distinct subtrees, told apart by structure alone, with a table of operations
per domain; a lone expression is a one-root program.  A system checks its
fields on their program before it differentiates them.
InputAffineSystem.field assembles f + sum_k g_k u_k from a run in any of
them.
"""
from __future__ import annotations

import math
import operator
import re
from typing import Sequence

from .interval import (
    Box,
    Interval,
    IntervalDomainError,
    iv_cos,
    iv_exp,
    iv_sin,
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
    "Program",
    "ARITH_OPS",
    "eval_point",
    "eval_interval",
    "InputAffineSystem",
    "StepErrorBounds",
    "compute_bounds",
]


class Expr(_Immutable):
    """Base class for expression nodes: immutable slotted values (see
    interval._Immutable); each node class writes its text with
    _format(*texts), from its operands' texts.  Equality, hash, str, repr
    and pickling walk a tree from a stack (_postorder), so any nesting
    depth works, and each distinct node object is visited once, so a
    shared subtree costs once.  Equality is interval._Immutable's, field
    by field within one class, so Const(0.0) == Const(-0.0); like the hash,
    it needs the fields other than operands (a Var's index, a Const's
    value, an exponent) hashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        numbers: dict = {}  # structure -> number; an identical subtree is numbered once

        def number(e: Expr, kids: list) -> int:
            return numbers.setdefault((type(e), *kids, *e._values()[len(kids):]), len(numbers))

        done: dict = {}
        return _postorder(self, number, done) == _postorder(other, number, done)

    def __hash__(self):
        return _postorder(self, lambda e, kids: hash((type(e), *kids, *e._values()[len(kids):])))

    def __str__(self) -> str:
        return _postorder(self, lambda e, texts: e._format(*texts))

    def __repr__(self) -> str:
        def text(e: Expr, kids: list) -> str:
            values = (*kids, *map(repr, e._values()[len(kids):]))
            return f"{type(e).__qualname__}({', '.join(f'{n}={v}' for n, v in zip(e._fields, values))})"

        return _postorder(self, text)

    def __reduce__(self):
        flat = []  # per distinct node: (type, its operands' places in flat, its other fields)

        def place(e: Expr, kids: list) -> int:
            flat.append((type(e), tuple(kids), e._values()[len(kids):]))
            return len(flat) - 1

        _postorder(self, place)
        return _unflatten, (tuple(flat),)


def _unflatten(flat: tuple) -> Expr:
    """The tree that Expr.__reduce__ flattened, built in its order."""
    nodes = []
    for t, kids, other in flat:
        nodes.append(t(*[nodes[k] for k in kids], *other))
    return nodes[-1]


class Var(Expr):
    __slots__ = ("index",)  # 1-based, printed as x<index>

    def __init__(self, index: int):
        _set(self, "index", index)

    def _format(self) -> str:
        return f"x{self.index}"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)

    def _format(self) -> str:
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

    def _format(self, a: str, b: str) -> str:
        return f"{a} + ({b})" if isinstance(self.b, (Add, Sub)) else f"{a} + {b}"


class Sub(_Binary):
    __slots__ = ()

    def _format(self, a: str, b: str) -> str:
        return f"{a} - {_paren_term(self.b, b)}"


class Mul(_Binary):
    __slots__ = ()

    def _format(self, a: str, b: str) -> str:
        return f"{_paren_term(self.a, a)}*{_paren_factor(self.b, b)}"


class Div(_Binary):
    __slots__ = ()

    def _format(self, a: str, b: str) -> str:
        return f"{_paren_term(self.a, a)}/{_paren_factor(self.b, b)}"


class Neg(_Unary):
    __slots__ = ()

    def _format(self, a: str) -> str:
        return f"-{_paren_term(self.a, a)}"


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)

    def _format(self, base: str) -> str:
        base = f"({base})" if isinstance(self.base, Pow) else _paren_factor(self.base, base)
        return f"{base}^{self.exponent}"


class Sin(_Unary):
    __slots__ = ()

    def _format(self, a: str) -> str:
        return f"sin({a})"


class Cos(_Unary):
    __slots__ = ()

    def _format(self, a: str) -> str:
        return f"cos({a})"


class Exp(_Unary):
    __slots__ = ()

    def _format(self, a: str) -> str:
        return f"exp({a})"


def _paren_term(e: Expr, text: str) -> str:
    return f"({text})" if isinstance(e, (Add, Sub, Neg)) else text


def _paren_factor(e: Expr, text: str) -> str:
    return f"({text})" if isinstance(e, (Add, Sub, Mul, Div, Neg)) else text


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
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("end", ""))
    return tokens


_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")
# the deepest nesting of signs, function calls and parentheses that parses
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept(self, ops: str) -> str | None:
        """The next token, consumed, if it is one of the operators in ops."""
        kind, value = self.tokens[self.pos]
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def _fail(self, message: str):
        # report the upcoming (1-based) token position
        raise ExprSyntaxError(message, self.pos + 1)

    def _fail_here(self, message: str):
        # report the token just consumed
        raise ExprSyntaxError(message, self.pos)

    def _deeper(self, rule):
        """rule() one level deeper, for the operand of a sign or what a
        parenthesis opens; a level past _MAX_DEPTH fails at the token just
        consumed, which opens it, before the stack could run out."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self._fail_here(f"nested more than {_MAX_DEPTH} levels deep")
        e = rule()
        self.depth -= 1
        return e

    def parse(self) -> Expr:
        e = self._expr()
        kind, value = self._peek()
        if kind != "end":
            self._fail(f"unexpected {value!r}")
        return e

    def _expr(self) -> Expr:
        negate = self._accept("+-") == "-"
        e = self._term()
        if negate:
            e = Neg(e)
        while op := self._accept("+-"):
            rhs = self._term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def _term(self) -> Expr:
        e = self._power()
        while op := self._accept("*/"):
            rhs = self._power()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def _power(self) -> Expr:
        # a sign after an operator binds looser than ^, as at the start
        if self._accept("-"):
            return Neg(self._deeper(self._power))
        base = self._atom()
        if self._accept("^"):
            sign = -1 if self._accept("-") else 1
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
            if not self._accept("("):
                self._fail(f"expected '(' after {value}")
            return fn(self._group())
        if kind == "op" and value == "(":
            return self._group()
        self._fail_here("unexpected end of input" if kind == "end" else f"unexpected {value!r}")

    def _group(self) -> Expr:
        # the expression after an opening parenthesis, and its closing one
        e = self._deeper(self._expr)
        if not self._accept(")"):
            self._fail("expected ')'")
        return e


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
    """Exact partial derivative with respect to variable x<j> (1-based),
    each distinct node once, after its operands (_postorder)."""
    return _postorder(e, lambda node, kids: _diff_node(node, j, *kids))


def _diff_node(e: Expr, j: int, da: Expr | None = None, db: Expr | None = None) -> Expr:
    """The derivative of e in x<j> from its operands' derivatives da, db."""
    if isinstance(e, Var):
        return Const(1.0 if e.index == j else 0.0)
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Add):
        return _add(da, db)
    if isinstance(e, Sub):
        return _sub(da, db)
    if isinstance(e, Neg):
        return _neg(da)
    if isinstance(e, Mul):
        return _add(_mul(da, e.b), _mul(e.a, db))
    if isinstance(e, Div):
        num = _sub(_mul(da, e.b), _mul(e.a, db))
        if isinstance(num, Const) and num.value == 0.0:
            return Const(0.0)
        return Div(num, Pow(e.b, 2))
    if isinstance(e, Pow):
        if isinstance(da, Const) and da.value == 0.0:
            return Const(0.0)
        if e.exponent == 0:
            return Const(0.0)
        return _mul(_mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)), da)
    if isinstance(e, Sin):
        return _mul(Cos(e.a), da)
    if isinstance(e, Cos):
        return _neg(_mul(Sin(e.a), da))
    if isinstance(e, Exp):
        return _mul(Exp(e.a), da)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


_BINARY = frozenset((Add, Sub, Mul, Div))


def _operands(e: Expr) -> tuple:
    if isinstance(e, _Binary):
        return e.a, e.b
    if isinstance(e, _Unary):
        return (e.a,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Expr):
        return ()
    raise ValueError(f"{e!r} is not an Expr")


def _postorder(root: Expr, node, done: dict | None = None):
    """node(e, its operands' results) for each node e under root whose id
    is not a key of done, after its operands, left to right; root's result.
    Results go into done by id, so a subtree met again, in root or in a
    later call with the same done, is not visited again.  A stack stands in
    for recursion, so any nesting depth works.  An operand that is not an
    Expr raises ValueError."""
    done = {} if done is None else done
    stack = [(root, None)]
    while stack:
        e, kids = stack.pop()
        if id(e) in done:
            continue
        if kids is not None:
            done[id(e)] = node(e, [done[id(k)] for k in kids])
            continue
        kids = _operands(e)
        stack.append((e, kids))
        stack += [(k, None) for k in reversed(kids) if id(k) not in done]
    return done[id(root)]


class Program:
    """The distinct subtrees under blocks of root expressions as one list of
    instructions in topological order, the "tape" of algorithmic
    differentiation (Griewank & Walther, 2008); roots holds every root's
    slot.  Instruction i is (i, type, a, b): a Var's index, a Const's value,
    a Pow's base slot and exponent, or the operands' slots (b None for one).
    Subtrees of equal structure (type, operand slots, and the type and
    value of each other field) share a slot whether or not they are one
    object; other fields are told apart by their repr, which tells floats
    apart by their bits, so 0.0 and -0.0 are two slots.  An operand that is
    not an Expr raises ValueError.  A Const whose every use scales another
    operand (the left factor of a product or the divisor of a quotient
    beside a non-Const, or a root of the first block, the one scalar runs
    are for, at a position in factors, which the caller only multiplies on
    the left) has True in b.  A program holds no values: each run computes
    its own."""

    __slots__ = ("code", "roots", "_steps")

    def __init__(self, blocks: Sequence[Sequence[Expr]], factors: Sequence[int] = ()):
        slots: dict = {}  # structure -> slot
        seen: dict[int, int] = {}  # id(node) -> slot, while blocks keeps the nodes alive
        code = []  # per slot: [slot, type, a, b]

        def slot(e: Expr, kids: list) -> int:
            other = e._values()[len(kids):]
            s = slots.setdefault((type(e), *kids, *((type(p), repr(p)) for p in other)), len(code))
            if s == len(code):
                code.append([s, type(e), *kids, *other, None][:4])
            return s

        roots = [[_postorder(e, slot, seen) for e in block] for block in blocks]
        self.roots = tuple(s for block in roots for s in block)
        scalar = {s for s, t, _, _ in code if t is Const}
        scalar.difference_update(s for k, s in enumerate(roots[0]) if k not in factors)
        for _, t, a, b in code:
            if t is Mul and code[b][1] is not Const or t is Div and code[a][1] is not Const:
                continue  # a left factor or a divisor beside a non-Const may scale
            if t is not Var and t is not Const:
                scalar.difference_update((a, b) if t in _BINARY else (a,))
        for s in scalar:
            code[s][3] = True
        self.code = tuple(map(tuple, code))
        self._steps = {k: self._need(block) for k, block in enumerate(roots)}
        self._steps[None] = self.code

    def _need(self, slots) -> tuple:
        """The instructions of slots and of their operands, in order."""
        need = set(slots)
        for i, t, a, b in reversed(self.code):
            if i in need and t is not Var and t is not Const:
                need.update((a, b) if t in _BINARY else (a,))
        return tuple(ins for ins in self.code if ins[0] in need)

    def run(self, args: Sequence, ops: dict, block: int | tuple | None = None, scalars: bool = False) -> list:
        """The values of the slots that a block needs, or of all: block is
        the index of a block of roots or a tuple of slots.  x<i> is
        args[i-1], a Const ops[Const](value, args), a Pow ops[Pow](base, n),
        any other node ops[type] of its operands; with scalars, a Const with
        True is its float.  Each run evaluates each slot it needs once."""
        if block not in self._steps:
            self._steps[block] = self._need(block)
        vals = [None] * len(self.code)
        const = ops[Const]
        for i, t, a, b in self._steps[block]:
            if t is Var:
                vals[i] = args[a - 1]
            elif t is Const:
                vals[i] = a if b and scalars else const(a, args)
            elif t is Pow:
                vals[i] = ops[Pow](vals[a], b)
            elif b is None:
                vals[i] = ops[t](vals[a])
            else:
                vals[i] = ops[t](vals[a], vals[b])
        return vals


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


def eval_point(e: Expr, x: Sequence[float]) -> float:
    return Program(((e,),)).run([float(v) for v in x], _POINT_OPS)[-1]


def eval_interval(e: Expr | Program, x: Box, block: int | tuple | None = None):
    """Natural interval extension over x: an Interval enclosing {e(p) : p
    in x}, or of a program the slot values of one run (Program.run), which
    evaluates every slot it needs on every call; what no box changes is kept
    only by InputAffineSystem's bounds plan."""
    if isinstance(e, Program):
        return e.run(x.components, _INTERVAL_OPS, block)
    return Program(((e,),)).run(x.components, _INTERVAL_OPS)[-1]


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


class InputAffineSystem:
    """System dx/dt = f(x) + sum_i g_i(x) v_i(t) with |v_i| <= V_i.

    Drift and input fields are expression vectors over x1..xn; their first
    and second derivatives are prepared once at construction and compiled
    into one Program of three blocks: the fields (f, then every g_k), the
    Jacobians and the second derivatives (a zero entry is +0.0).  A subtree
    that fields and derivatives share is one slot of it.  Each box
    (rhs_interval, jacobian_norms, compute_bounds) and each Picard iterate
    (flow) is at most one run.

    The derivative norms of compute_bounds and flow.local_rates come from
    one bounds plan built from the root slots (_bounds_plan), the one place
    that decides and keeps what no box changes.  A quantity of it whose
    slots have no Var below them is computed on the first box and kept on
    the system unless it met an entry that is not finite; a later box runs
    only the slots of the quantities not kept, and no program when all
    are, so after the first box no plan quantity of a linear field's
    Jacobian is evaluated again.  A run evaluates every slot it needs,
    constant subtrees included.  Every value is bit for bit what the norms
    of the full matrices give.  A system pickles as its definition (n, f,
    g, V) alone; loading builds the rest again.

    Construction raises ValueError on an operand that is not an Expr, a
    variable other than x1..xn (x0 included), a constant that is not a
    finite float and a power whose exponent is not an int of magnitude at
    most 2**53 (so that its derivative's factor is exact), each named in the
    message.  The fields are checked before they are differentiated.  A
    dimension that is not an int raises ValueError too, and so does a
    box of another dimension than n given to rhs_interval, jacobian_norms
    or compute_bounds.
    """

    def __init__(
        self,
        dim: int,
        drift: Sequence[Expr | str],
        inputs: Sequence[Sequence[Expr | str]] = (),
        magnitudes: Sequence[float] = (),
    ):
        try:
            self.n = operator.index(dim)
        except TypeError:
            raise ValueError(f"dimension {dim!r} is not an int") from None
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        self.f: tuple[Expr, ...] = tuple(parse(e) if isinstance(e, str) else e for e in drift)
        self.g: tuple[tuple[Expr, ...], ...] = tuple(
            tuple(parse(e) if isinstance(e, str) else e for e in gi) for gi in inputs
        )
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
        n = self.n
        fields = [e for gi in (self.f, *self.g) for e in gi]
        # checked before diff, so that every derivative is built from checked nodes
        for _, t, a, b in Program((fields,)).code:
            if t is Var and not (type(a) is int and 1 <= a <= n):
                raise ValueError(f"variable x{a} is not one of x1..x{n}")
            if t is Const and not (isinstance(a, float) and math.isfinite(a)):
                raise ValueError(f"constant {a!r} is not a finite float")
            if t is Pow and not (type(b) is int and abs(b) <= 2**53):
                raise ValueError(f"exponent {b!r} is not an int of magnitude at most 2**53")
        self.df = tuple(tuple(diff(self.f[i], j + 1) for j in range(n)) for i in range(n))
        self.dg = tuple(tuple(tuple(diff(gi[i], j + 1) for j in range(n)) for i in range(n)) for gi in self.g)
        self.d2f = tuple(
            tuple(tuple(diff(self.df[i][j], k + 1) for k in range(n)) for j in range(n)) for i in range(n)
        )
        self.d2g = tuple(
            tuple(tuple(tuple(diff(dgi[i][j], k + 1) for k in range(n)) for j in range(n)) for i in range(n))
            for dgi in self.dg
        )

        zero = Const(0.0)
        jac = [zero if _is_zero(e) else e for d in (self.df, *self.dg) for row in d for e in row]
        hess = [zero if _is_zero(e) else e for d in (self.d2f, *self.d2g) for p in d for row in p for e in row]
        self.program = Program((fields, jac, hess), factors=range(n, len(fields)))
        slots = iter(self.program.roots)

        def rows(k):  # the next k rows of n root slots
            return tuple(tuple(next(slots) for _ in range(n)) for _ in range(k))

        # the root slots of f, g_k, Df, Dg_k, D^2 f and D^2 g_k
        self._slots = (
            rows(1)[0], rows(self.m), rows(n), [rows(n) for _ in self.g], rows(n * n), [rows(n * n) for _ in self.g]
        )
        self._plan = _bounds_plan(self.program, self._slots, self.V)
        self._kept: list = [None] * len(self._plan)  # the box-independent values computed so far
        self._runs: dict = {}  # the quantities a call computes -> the slots they read

    def __reduce__(self):
        # the definition alone: loading differentiates and compiles again, and
        # the kept values are computed again, bit for bit, on first use
        return InputAffineSystem, (self.n, self.f, self.g, self.V)

    @property
    def m(self) -> int:
        return len(self.g)

    def _measure(self, box: Box, quantities: range) -> list:
        """Every kept value of the bounds plan, and over box those of the
        quantities not kept, from one run over the slots they read."""
        if len(box.components) != self.n:
            raise ValueError(f"box has dimension {len(box.components)}, expected {self.n}")
        todo = tuple(q for q in quantities if self._kept[q] is None)
        values = self._kept[:]
        if todo:
            if todo not in self._runs:
                self._runs[todo] = tuple(sorted({s for q in todo for s in self._plan[q][2]}))
            vals = eval_interval(self.program, box, self._runs[todo])
            for q in todo:
                how, reads, _, constant = self._plan[q]
                values[q] = how(vals, reads)
                if constant and values[q] is not None:
                    self._kept[q] = values[q]
        return values

    def jacobian_norms(self, box: Box) -> tuple:
        """(||Df||, lognorm(Df)) and every ||Dg_k|| over box, from the
        bounds plan; None for a matrix with an entry that is not finite."""
        df, *dg = self._measure(box, range(2, 3 + self.m))[2 : 3 + self.m]
        return df and df[1:], [d and d[1] for d in dg]

    def field(self, vals: Sequence, inputs: Sequence) -> list:
        """f(x) + sum_k g_k(x) u_k per component in one domain: vals are the
        slot values of a run of the program for its fields (block 0), inputs[k]
        is u_k.  Input fields that are the constant 0 are skipped: their
        product and sum change nothing."""
        f, g = self._slots[:2]
        out = []
        for c in range(self.n):
            acc = vals[f[c]]
            for k, u in enumerate(inputs):
                if not _is_zero(self.g[k][c]):
                    acc = acc + vals[g[k][c]] * u
            out.append(acc)
        return out

    def rhs_interval(self, box: Box, input_ranges: Sequence[Interval]) -> tuple[Interval, ...]:
        """Interval hull of f(x) + sum g_i(x)u_i over x in box, u_i in input_ranges."""
        if len(box.components) != self.n:
            raise ValueError(f"box has dimension {len(box.components)}, expected {self.n}")
        return tuple(self.field(eval_interval(self.program, box, 0), input_ranges))


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


def _bounds_plan(program: Program, slots: tuple, V: Sequence[float]) -> tuple:
    """A system's bounds plan: (how, reads, used, constant) per quantity, in
    the order K, K', Df, every Dg_k, H, H', L'.  how(vals, reads) computes it
    from a run's slot values; reads are its slots other than the +0.0 ones,
    in the order how takes them, used are those distinct, and constant says
    that no Var is below any of them, so that no box changes it.  L' reads
    every Dg_k's slots, so it is constant exactly when every Dg_k is."""
    f, g, df, dg, d2f, d2g = slots
    zero = {i for i, t, a, _ in program.code if t is Const and a == 0.0}
    varies = []  # per slot, whether a Var is below it
    for _, t, a, b in program.code:
        varies.append(t is Var or t is not Const and (varies[a] or t in _BINARY and varies[b]))

    def entry(how, source, reads=None):
        used = tuple(sorted(set(source) - zero))
        return how, used if reads is None else reads, used, not any(varies[s] for s in used)

    def norms(rows):  # per row, its (slot, on the diagonal) pairs
        pairs = (((s, i == k) for i, s in enumerate(row) if s not in zero) for k, row in enumerate(rows))
        return entry(_norms, [s for row in rows for s in row], tuple(map(tuple, pairs)))

    def weighted(per_input):  # per entry, its (V_k, slot of input k) pairs
        pairs = (tuple((v, s) for v, s in zip(V, col) if s not in zero) for col in zip(*per_input))
        return entry(_weighted_mags, [s for row in per_input for s in row], tuple(e for e in pairs if e))

    second = [[s for row in rows for s in row] for rows in (d2f, *d2g)]
    dgs = [norms(rows) for rows in dg]
    lp = entry(_weighted_row_sums, [s for rows in dg for row in rows for s in row], (tuple(V), tuple(d[1] for d in dgs)))
    return entry(_max_mag, f), weighted(g), norms(df), *dgs, entry(_max_mag, second[0]), weighted(second[1:]), lp


def _max_mag(vals: list, slots: Sequence[int]) -> float:
    """The largest magnitude of the slots' values, 0 for none."""
    return max((vals[s].mag for s in slots), default=0.0)


def _weighted_max(entries) -> float:
    """Max over entries of the upward sum of v * x over an entry's (v, x)
    pairs, every x nonnegative; 0 for no entry."""
    best = 0.0
    for pairs in entries:
        s = 0.0
        for v, x in pairs:
            s = _add_up(s, _mul_up(v, x))
        best = max(best, s)
    return best


def _weighted_mags(vals: list, entries) -> float:
    """_weighted_max of each entry's (V_k, slot) pairs, a slot's magnitude as x."""
    return _weighted_max(((v, vals[s].mag) for v, s in pairs) for pairs in entries)


def _norms(vals: list, rows) -> tuple | None:
    """(row sums, their max, log-norm) from each row's (slot, on the
    diagonal) pairs, each row summed upward in column order (the diagonal
    entry's upper endpoint for the log-norm), so that the log-norm is at
    most the max exactly; None when an entry is not finite."""
    sums, lam = [], -math.inf
    for row in rows:
        s = t = 0.0
        for slot, diag in row:
            x = vals[slot]
            if not x.is_finite:
                return None
            s, t = _add_up(s, x.mag), _add_up(t, x.hi if diag else x.mag)
        sums.append(s)
        lam = max(lam, t)
    return tuple(sums), max(sums), lam


def _weighted_row_sums(vals: list, reads) -> float | None:
    """L' = max_i sum_k V_k (row sum i of Dg_k) from (V, each Dg_k's _norms
    reads), the row sums _norms gives; None when an entry is not finite."""
    V, per_input = reads
    dg = [_norms(vals, rows) for rows in per_input]
    if None in dg:
        return None
    return _weighted_max(zip(V, sums) for sums in zip(*(d[0] for d in dg)))


def compute_bounds(sys: InputAffineSystem, box: Box) -> StepErrorBounds:
    """Upper bounds for ||f||, ||Df||, lognorm(Df), ||D^2 f|| and the input
    analogues over box; everything rounded upward.  ||D^2 f|| is the
    largest second-derivative magnitude.  Every value comes from the
    system's bounds plan (see InputAffineSystem): a box-independent one is
    computed once per system, the others from one run over the slots they
    read, bit for bit what the full matrices give; so L' is built once
    when no input Jacobian depends on the box.  A non-finite entry of Df
    or of an input Jacobian raises IntervalDomainError.
    """
    K, Kp, df, *dg, H, Hp, Lp = sys._measure(box, range(len(sys._plan)))
    if df is None or None in dg:
        raise IntervalDomainError("matrix norm requires finite entries")
    return StepErrorBounds(K=K, Kp=Kp, L=df[1], Lp=Lp, H=H, Hp=Hp, Lam=df[2])
