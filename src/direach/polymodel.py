"""Polynomial models: multivariate polynomials over the unit box plus a
uniform error bound, representing function enclosures.

A model (p, e) over [-1,1]^v stands for every function within e of p in the
sup norm.  All operations preserve that enclosure: coefficient arithmetic is
done in doubles and the rounding slack is pushed into e, degree-truncated
mass is pushed into e, and composition with elementary functions carries a
Lagrange remainder.

Sums are bounded in one of two ways, never with a directed rounding per term:

- A sum of exact nonnegative floats (the term magnitudes that range() adds
  up, the mass that sweep() moves into the error) is added in plain floats
  and bounded once by _sum_bound, Higham's a-priori bound for n terms
  (Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2).
- The rounding errors of coefficient arithmetic (sums, products, scaling,
  the Taylor series sum, the antiderivative) are accumulated as slack, the
  plain-float sum of |v|*_EPS over each rounded result v, and bounded by
  _grown, which also charges each rounded product or quotient the absolute
  error it can lose to underflow.  Dropped or truncated mass, a sum of
  exact magnitudes, goes through _grown as well.

Exponent tuples are packed 4 bits per variable into a single int, so the
degree cap must stay <= 7 (monomial products then never overflow a nibble).

The product is truncated Taylor-model multiplication (Makino & Berz, 2003):
it multiplies only the term pairs whose total degree fits under the cap
(3,003 of 63,504 for two full arity-5, cap-5 models).  Each of its
kernels bounds the mass of the dropped pairs from suffix sums of the right
operand's coefficient magnitudes by degree, which are built by addition
only, so cancellation cannot under-count it.  A product with an exact
constant (no error, no term but the constant one) is a scaling.

What a model may hold is decided once, when it is built: its terms are
finite coefficients on monomials of its variables of degree <= its cap,
and its error is finite and nonnegative.  The public constructor raises
ValueError for anything else.  The operations build their results past
those checks; each rounded result v charges |v| * _EPS of slack to the
error, so a coefficient that overflows makes the error infinite, and every
result whose error is not finite raises
IntervalDomainError("model arithmetic overflowed").  No operation has to
look for a term above the cap, an infinite coefficient or an infinite
error in its operands.

A model holds its polynomial in one store: a term dict, or a slot vector
of the dense module's layout for its (arity, cap), one slot per monomial
of degree <= cap.  A model that comes out of a dense kernel keeps its
vector; PolynomialModel.terms is a read-only view of the dict, which a
vector model builds from its nonzero slots on each read.  Each operation
has one vector form and one dict loop, and the stores of its operands
pick one of them: the vector form runs when an operand carries a vector
(a dict operand is then scattered into the layout), the dict loop
otherwise.  The one exception is the product: it also scatters two
dict models when the product of their term counts reaches the kept pairs
of two full models, C(2*arity + cap, cap), and it does not scatter a dict
model of at most two terms that meets a vector model, whose slots it
shifts instead.  Above 15 variables there is no layout, and extend turns
the vector of a model that grows past it into a dict.

- In the product, antiderivative and substitute_unit, a result slot that
  sums n_k contributions charges n_k * |c| * _EPS of slack per
  contribution c (Higham's gamma_{n_k}), and each rounded product or
  quotient its own |c| * _EPS, through _grown; the shift product charges
  what the dict loop charges.  Sums, differences, negation, scale,
  add_scalar and the series sum apply the dict loop's IEEE operation to
  each slot, in the same order, and charge what it charges; extend,
  reindex and sweep move coefficients unchanged.  Their coefficients are
  bit-identical to the loop's.  Range, poly_magnitude and the swept mass
  add up in numpy's order, which _sum_bound and _grown cover in any
  order.
- The dict loops charge each rounded product and merge.

compose_expr expands sin, cos, exp and reciprocals about the midpoint c of
the argument's range as sum a_k (inner - c)^k plus a Lagrange remainder.
One power table per argument model, kept on that model, holds c, the
powers of inner - c and their ranges, so every function of one argument
shares them, and each series is summed in one pass over those powers
(_series_sum).

FloatPolynomial is a second domain over the same layouts, with no
validation: a bare slot vector whose operations (FLOAT_OPS, for
Program.run) compute only the polynomial part of the model operations.
It never builds a model and carries no error, so nothing it computes is an
enclosure; PolynomialModel.from_floats turns a finite one into a model
with error 0, an exact enclosure of that polynomial.  flow runs the Picard
iterates before the certified one in it when the iterate's models carry
slot vectors (carries_slot_vectors).
"""
from __future__ import annotations

import math
from enum import Enum
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from . import dense
from .interval import Interval, Box, IntervalDomainError, iv_cos, iv_exp, iv_sin
from .interval import _EPS, _TINY, _Immutable, _add_down, _add_up, _div_up, _mul_up, _pow_up, _set
from . import symexpr
from .symexpr import Expr

__all__ = [
    "Role",
    "VarInfo",
    "PolynomialModel",
    "VectorModel",
    "ArityMismatchError",
    "compose_expr",
    "FloatPolynomial",
    "FLOAT_OPS",
    "carries_slot_vectors",
]

_SLACK_INFLATE = 1.000000002


class ArityMismatchError(ValueError):
    """Models combined over different variable layouts."""


class Role(str, Enum):
    STATE = "state"
    INPUT = "input"
    TIME = "time"


class VarInfo(_Immutable):
    """One unit-domain variable z: its meaning and, for the step's time
    variable, its radius (t - t_mid = radius * z)."""

    __slots__ = ("role", "born", "radius", "axis")

    def __init__(self, role: Role, born: int = 0, radius: float = 1.0, axis: int | None = None):
        _set(self, "role", role)
        _set(self, "born", born)
        _set(self, "radius", radius)
        _set(self, "axis", axis)


_DEG_CACHE: dict[int, int] = {}


def _degree_of(key: int) -> int:
    d = _DEG_CACHE.get(key)
    if d is None:
        d = 0
        k = key
        while k:
            d += k & 0xF
            k >>= 4
        _DEG_CACHE[key] = d
    return d


def _odd_mask(arity: int) -> int:
    # low bit of every nibble
    return int("1" * arity, 16) if arity else 0


def _grown(slack: float, products: int = 0) -> float:
    """Sound upper bound for accumulated rounding slack or dropped mass.

    slack is a plain-float sum of nonnegative terms: |v|*_EPS for each
    rounded result v (twice the unit roundoff, so it covers that rounding
    with room to spare), or dropped magnitudes.  The factor
    _SLACK_INFLATE = 1 + 2e-9 covers the rounding of that sum, gamma_{n-1}
    with gamma_k = k*u/(1 - k*u), for sums of up to 10**7 terms.

    products is the number of rounded products or quotients among the
    results, or an upper bound for it.  A product that underflows loses up
    to 2**-1075 absolutely (Higham's eta term), which |v|*_EPS does not
    see, and |v|*_EPS may itself lose as much; each is charged one _TINY
    = 2**-1074.  Sums need no such term: an addition whose result lies in
    the subnormal range is exact.
    """
    if slack == 0.0 and not products:
        return 0.0
    return slack * _SLACK_INFLATE + (products + 1) * _TINY


def _sum_bound(s: float, n: int) -> float:
    """Upper bound for the exact sum S of n nonnegative floats, given their
    plain-float sum s, added in any order (Higham 2002, sec. 4.2):
    s >= S * (1 - gamma_{n-1}), so S <= s / (1 - gamma_{n-1}).

    s + s*n*_EPS exceeds that by about s*n*u (u = _EPS/2), which also
    covers the two roundings of its own evaluation, for n < 2**50.  The
    _TINY covers underflow of the product s*n*_EPS; the sum itself needs
    no underflow term, because additions are exact below 2**-1021.  Exact
    for n <= 1, and for s == 0, where every term is 0."""
    if n <= 1 or not s:
        return s
    return s + (s * (n * _EPS) + _TINY)


def _pair_product(a: dict[int, float], b: dict[int, float], cap: int) -> tuple:
    """The truncated product of the term dicts a and b by a loop over the
    kept pairs: (terms, dropped mass, products behind it, rounding slack,
    products behind it).

    A left term of degree d1 pairs with the right terms of degree
    <= cap - d1 (in the right operand's term order, so the result is the
    same as expanding every pair); the rest of its row is dropped and
    bounded by |c1| times the mass of the right terms above cap - d1.
    Those masses are suffix sums over the right terms grouped by degree,
    built by addition only: "total minus kept" would cancel and could
    under-count the dropped mass.
    """
    out: dict[int, float] = {}
    slack = 0.0
    dropped = 0.0
    n_kept = n_dropped = 0
    if a:
        right = [(k2, c2, _degree_of(k2)) for k2, c2 in b.items()]
        # above[r + 1]: |c| mass of the right terms of degree > r, r = 0..cap
        above = [0.0] * (cap + 2)
        for _, c2, d2 in right:
            above[d2] += abs(c2)
        for r in range(cap, -1, -1):
            above[r] += above[r + 1]
        rows: dict[int, list[tuple[int, float]]] = {}
        for k1, c1 in a.items():
            r = cap - _degree_of(k1)
            if above[r + 1]:
                dropped += abs(c1) * above[r + 1]
                n_dropped += 1
            row = rows.get(r)
            if row is None:
                row = rows[r] = [(k2, c2) for k2, c2, d2 in right if d2 <= r]
            n_kept += len(row)
            for k2, c2 in row:
                c = c1 * c2
                k = k1 + k2
                prev = out.get(k)
                if prev is None:
                    out[k] = c
                else:
                    v = prev + c
                    if v == 0.0:
                        del out[k]
                    else:
                        out[k] = v
                    slack += abs(v) * _EPS
                slack += abs(c) * _EPS
    return out, dropped, n_dropped, slack, n_kept


def _pair_count(arity: int, cap: int) -> float:
    """The kept pairs of two full models, the monomials of degree <= cap in
    2 * arity variables; infinite above 15 variables, whose packed keys
    reach the nibble of int64's sign bit, so the dense layout is not
    used."""
    return math.comb(2 * arity + cap, cap) if arity <= 15 else math.inf


def _substitute_unit_loop(terms: dict[int, float], position: int, value: float) -> tuple:
    """The term dict at z_position = value by a loop over the terms, with
    the nibble of position cleared in every key: (terms, slack)."""
    shift = 4 * position
    out: dict[int, float] = {}
    slack = 0.0
    for k, c in terms.items():
        e = (k >> shift) & 0xF
        if e and value == -1.0 and (e & 1):
            c = -c
        nk = k & ~(0xF << shift)
        prev = out.get(nk)
        if prev is None:
            out[nk] = c
        else:
            v = prev + c
            if v == 0.0:
                del out[nk]
            else:
                out[nk] = v
            slack += abs(v) * _EPS
    return out, slack


def _antiderivative_loop(terms: dict[int, float], position: int, r: float, cap: int) -> tuple:
    """The antiderivative of the term dict in the variable at position, of
    radius r, by a loop over the terms: (terms, dropped mass, slack)."""
    shift = 4 * position
    out: dict[int, float] = {}
    slack = 0.0
    dropped = 0.0
    one = 1 << shift
    clear = ~(0xF << shift)
    for k, c in terms.items():
        e = (k >> shift) & 0xF
        coeff = c * r / (e + 1)
        if coeff == 0.0:
            continue
        slack += abs(coeff) * _EPS * 2
        # the antiderivative term: its key has time exponent e + 1 >= 1,
        # which no other term's antiderivative and no value at tau = -1
        # takes
        if _degree_of(k) == cap:
            dropped += abs(coeff)
        else:
            out[k + one] = coeff
        # minus its value at tau = -1 (the integral starts at t_k)
        key = k & clear
        if e & 1:
            coeff = -coeff
        prev = out.get(key)
        if prev is None:
            out[key] = coeff
        else:
            v = prev + coeff
            if v == 0.0:
                del out[key]
            else:
                out[key] = v
            slack += abs(v) * _EPS
    return out, dropped, slack


class PolynomialModel(_Immutable):
    """The model (p, error) over the unit box of len(vars) variables, p of
    degree <= max_degree.  Immutable, with value equality and no hash.

    PolynomialModel(vars, terms, error, max_degree) raises ValueError
    unless every key of terms is a monomial of vars of degree <=
    max_degree, every coefficient is finite and error is finite and
    nonnegative; the operations rely on that and check nothing of it
    again.  A result whose error is not finite raises
    IntervalDomainError("model arithmetic overflowed").

    p is held in one store: _terms, a term dict (packed key ->
    coefficient), or _vec, the slot vector of the dense layout of (arity,
    max_degree) that a dense kernel returned; the other is None.  Both are
    shared between models and never changed: terms is a read-only view,
    of the dict or, for a vector model, of a dict built from its nonzero
    slots in slot order on each read, and the vector is read-only.
    _table caches the power table of compose_expr's Taylor compositions
    with this model as their argument, and _mag its poly_magnitude.  Of
    _Immutable it uses only the read-only attributes: equality, repr and
    __reduce__ are its own, and none of them sees _table or _mag."""

    __slots__ = ("vars", "error", "max_degree", "_terms", "_vec", "_table", "_mag")

    def __init__(self, vars: tuple[VarInfo, ...], terms: dict[int, float], error: float, max_degree: int):
        if not 0 <= max_degree <= 7:
            raise ValueError("degree cap must be between 0 and 7")
        terms = dict(terms)  # the caller's dict may change after the checks
        top = 1 << (4 * len(vars))
        for k, c in terms.items():
            if not (0 <= k < top and _degree_of(k) <= max_degree):
                raise ValueError(f"key {k:#x} is not a monomial of {len(vars)} variables of degree <= {max_degree}")
            if not math.isfinite(c):
                raise ValueError("model coefficients must be finite")
        if not 0 <= error < math.inf:
            raise ValueError("model error must be finite and nonnegative")
        _init(self, vars, terms, None, error, max_degree)

    @classmethod
    def _of(cls, vars, terms, vec, error: float, max_degree: int) -> "PolynomialModel":
        """A model from a term dict or a slot vector, the other None, which
        holds what the constructor admits."""
        m = object.__new__(cls)
        _init(m, vars, terms, vec, error, max_degree)
        return m

    def __reduce__(self):
        return PolynomialModel._of, (self.vars, self._terms, self._vec, self.error, self.max_degree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vars, self.terms, self.error, self.max_degree) == (other.vars, other.terms, other.error, other.max_degree)

    __hash__ = None  # the terms are a dict

    @property
    def terms(self) -> Mapping[int, float]:
        """A read-only view of the term dict; a vector model builds the
        dict from its nonzero slots, in slot order, on each read."""
        t = self._terms
        return MappingProxyType(t if t is not None else self._layout().terms(self._vec))

    # ------------------------------------------------------------------ build
    @staticmethod
    def constant(value: float, vars: tuple[VarInfo, ...], max_degree: int) -> "PolynomialModel":
        terms = {0: float(value)} if value != 0.0 else {}
        return PolynomialModel(vars, terms, 0.0, max_degree)

    @staticmethod
    def from_var(position: int, vars: tuple[VarInfo, ...], max_degree: int) -> "PolynomialModel":
        if not 0 <= position < len(vars):
            raise IndexError("variable position out of range")
        return PolynomialModel(vars, {1 << (4 * position): 1.0}, 0.0, max_degree)

    @staticmethod
    def from_floats(vars: tuple[VarInfo, ...], poly: "FloatPolynomial") -> "PolynomialModel":
        """The float polynomial poly over vars as a model with error 0, an
        exact enclosure of poly itself, that holds poly's vector (now
        read-only).  Raises ValueError unless poly's layout has len(vars)
        variables and its coefficients are finite."""
        if poly.layout.arity != len(vars):
            raise ValueError(f"a polynomial of {poly.layout.arity} variables is not one of {len(vars)}")
        if not dense._finite(poly.vec):
            raise ValueError("model coefficients must be finite")
        return PolynomialModel._of(vars, None, poly.vec, 0.0, poly.layout.cap)

    @property
    def arity(self) -> int:
        return len(self.vars)

    def _check_compat(self, other: "PolynomialModel") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise ArityMismatchError("models have different variable layouts")
        if self.max_degree != other.max_degree:
            raise ArityMismatchError("models have different degree caps")

    # ------------------------------------------------------------------ dispatch
    def _layout(self) -> "dense._DenseLayout":
        return dense._layout(len(self.vars), self.max_degree)

    def _size(self) -> int:
        """The number of terms, counted without building the dict."""
        return len(self._terms) if self._vec is None else dense._count(self._vec)

    def _vector_in(self, layout: "dense._DenseLayout"):
        """The coefficients as a slot vector of layout, the layout of this
        model's (arity, cap): the carried one, or the terms scattered into
        it."""
        return self._vec if self._vec is not None else layout.vector(self._terms)

    def _vector_pair(self, other: "PolynomialModel") -> tuple:
        """(layout, a, b): the slot vectors of self and other in the layout
        of their (arity, cap), for a binary operation's vector form."""
        layout = self._layout()
        a = self._vector_in(layout)
        return layout, a, a if other is self else other._vector_in(layout)

    # ------------------------------------------------------------------ arithmetic
    def __neg__(self) -> "PolynomialModel":
        if self._vec is not None:
            return PolynomialModel._of(self.vars, None, -self._vec, self.error, self.max_degree)
        return PolynomialModel._of(self.vars, {k: -c for k, c in self._terms.items()}, None, self.error, self.max_degree)

    def __add__(self, other: "PolynomialModel") -> "PolynomialModel":
        return self._sum(other, 1.0)

    def __sub__(self, other: "PolynomialModel") -> "PolynomialModel":
        return self._sum(other, -1.0)

    def _sum(self, other: "PolynomialModel", sign: float) -> "PolynomialModel":
        """self + sign * other, sign = +-1.0.  Flipping a sign is exact, and
        a - b and a + (-b) round alike, so self - other is bit-identical to
        self + (-other)."""
        self._check_compat(other)
        if self._vec is not None or other._vec is not None:
            _, a, b = self._vector_pair(other)
            vec, slack = dense._dense_add(a, b, sign)
            out = None
        else:
            out = dict(self._terms)
            slack = 0.0
            for k, c in other._terms.items():
                c *= sign
                prev = out.get(k)
                if prev is None:
                    out[k] = c
                else:
                    v = prev + c
                    if v == 0.0:
                        del out[k]
                    else:
                        out[k] = v
                    slack += abs(v) * _EPS
            vec = None
        e = _add_up(_add_up(self.error, other.error), _grown(slack))
        return PolynomialModel._of(self.vars, out, vec, e, self.max_degree)

    def __mul__(self, other: "PolynomialModel") -> "PolynomialModel":
        """Truncated product: only term pairs whose degree fits under the cap
        are multiplied, by one of three routes, tried in this order.

        - Scale: an exact constant operand (no error, no term but the
          constant one), such as the 0.3 of 0.3*sin(x3), is a scalar: the
          product is the other operand's scale by it, which skips the pair
          kernels and does not charge the constant's poly_magnitude
          inflation to the other's error.
        - Shift: a vector model times a dict model of at most two terms,
          such as a surrogate input, runs dense._dense_shift_product, which
          shifts the vector's slots by each term's key and charges the dict
          loop's slack.
        - Pair table: when an operand carries a slot vector, or
          len(self.terms) * len(other.terms) reaches the kept pairs of two
          full models, dense._dense_product multiplies the whole pair table
          of the (arity, cap) layout with numpy; otherwise _pair_product
          loops over the kept pairs of the terms.  This pair-count rule is
          the only place where two dict models become slot vectors.
        """
        self._check_compat(other)
        s = self._scalar()
        if s is not None:
            return other.scale(s)
        s = other._scalar()
        if s is not None:
            return self.scale(s)
        cap = self.max_degree
        # the slot vector of one operand and the term dict of the other
        shifted, few = (other._vec, self._terms) if self._vec is None else (self._vec, other._terms)
        if shifted is not None and few is not None and len(few) <= 2:
            vec, dropped, n_dropped, slack, n_products = dense._dense_shift_product(shifted, few.items(), self._layout())
            out = None
        elif (
            self._vec is not None
            or other._vec is not None
            or len(self._terms) * len(other._terms) >= _pair_count(self.arity, cap)
        ):
            layout, a, b = self._vector_pair(other)
            vec, dropped, n_dropped, slack, n_products = dense._dense_product(a, b, layout)
            out = None
        else:
            out, dropped, n_dropped, slack, n_products = _pair_product(self._terms, other._terms, cap)
            vec = None
        pa = self.poly_magnitude()
        pb = other.poly_magnitude()
        e = _mul_up(pa, other.error)
        e = _add_up(e, _mul_up(pb, self.error))
        e = _add_up(e, _mul_up(self.error, other.error))
        e = _add_up(e, _grown(dropped, n_dropped))
        e = _add_up(e, _grown(slack, n_products))
        return PolynomialModel._of(self.vars, out, vec, e, cap)

    def _scalar(self) -> float | None:
        """The value of an exact constant model (no error, no term but the
        constant one), else None."""
        if self.error:
            return None
        if self._vec is not None:
            return dense._constant(self._vec)
        if self._terms.keys() <= {0}:
            return self._terms.get(0, 0.0)
        return None

    def __rmul__(self, s: float) -> "PolynomialModel":
        return self.scale(s)  # s * self for a float s, as s's exact constant model gives

    def scale(self, s: float) -> "PolynomialModel":
        """The model times the float s.  A product that underflows to zero
        leaves no term.  Scaling by 1.0 returns the model itself and by
        -1.0 its negation: both products are exact, so neither charges
        rounding slack."""
        if s == 0.0:
            return PolynomialModel.constant(0.0, self.vars, self.max_degree)
        if s == 1.0:
            return self
        if s == -1.0:
            return -self
        if self._vec is not None:
            vec, slack, products = dense._dense_scale(self._vec, s)
            out = None
        else:
            out = {}
            slack = 0.0
            for k, c in self._terms.items():
                v = c * s
                if v:
                    out[k] = v
                    slack += abs(v) * _EPS
            vec, products = None, len(self._terms)
        e = _add_up(_mul_up(abs(s), self.error), _grown(slack, products))
        return PolynomialModel._of(self.vars, out, vec, e, self.max_degree)

    def add_scalar(self, v: float) -> "PolynomialModel":
        if v == 0.0:
            return self
        if self._vec is not None:
            vec, s = dense._dense_add_scalar(self._vec, v)
            out = None
        else:
            out = dict(self._terms)
            s = out.get(0, 0.0) + v
            if s == 0.0:
                out.pop(0, None)
            else:
                out[0] = s
            vec = None
        e = _add_up(self.error, _grown(abs(s) * _EPS))
        return PolynomialModel._of(self.vars, out, vec, e, self.max_degree)

    def add_error(self, extra: float) -> "PolynomialModel":
        if not extra >= 0:
            raise ValueError("error increment must be nonnegative")
        return self.with_error(_add_up(self.error, extra))

    def with_error(self, error: float) -> "PolynomialModel":
        """The same polynomial with the error bound error."""
        return PolynomialModel._of(self.vars, self._terms, self._vec, error, self.max_degree)

    def poly_magnitude(self) -> float:
        """Upper bound of sup|p| over the unit box (term-magnitude sum),
        computed on first use and kept."""
        if self._mag is None:
            if self._vec is not None:
                s = dense._magnitude(self._vec)
            else:
                s = 0.0
                for c in self._terms.values():
                    s += abs(c)
            _set_mag(self, _grown(s))
        return self._mag

    # ------------------------------------------------------------------ range
    def range(self) -> Interval:
        """Enclosure of {p(z)+d : z in unit box, |d| <= error}: monomials with
        any odd exponent span [-1,1], all-even ones [0,1]."""
        # plain-float sums of the non-constant terms' magnitudes: the odd
        # monomials count on both sides, the all-even ones on one
        if self._vec is not None:
            c0, odd, pos, neg, n = dense._dense_range(self._vec, self._layout())
        else:
            terms = self._terms
            odd_mask = _odd_mask(self.arity)
            odd = pos = neg = 0.0
            for k, c in terms.items():
                if k & odd_mask:
                    odd += abs(c)
                elif not k:
                    continue
                elif c > 0.0:
                    pos += c
                else:
                    neg -= c
            c0 = terms.get(0, 0.0)
            n = len(terms) - (0 in terms)
        r = Interval(_add_down(c0, -_sum_bound(odd + neg, n)), _add_up(c0, _sum_bound(odd + pos, n)))
        return r.inflate(self.error) if self.error else r

    # ------------------------------------------------------------------ structure ops
    def sweep(self, positions: Iterable[int]) -> "PolynomialModel":
        """Replace dependence on the given variables by a uniform error and
        drop them from the layout.  A vector model gathers its kept slots
        directly; a dict model that sweeps a trailing set of variables
        keeps its remaining terms as they are, with no reindex pass, and
        any other dict model reindexes them."""
        drop = set(positions)
        if not drop:
            return self
        mask = 0
        for p in drop:
            if not 0 <= p < self.arity:
                raise IndexError("sweep position out of range")
            mask |= 0xF << (4 * p)
        keep = tuple(i for i in range(self.arity) if i not in drop)
        if self._vec is not None:
            vec, swept, n = dense._dense_sweep(self._vec, self._layout(), keep)
            e = _add_up(self.error, _sum_bound(swept, n))
            return PolynomialModel._of(tuple(self.vars[i] for i in keep), None, vec, e, self.max_degree)
        out = {}
        swept = 0.0
        for k, c in self._terms.items():
            if k & mask:
                swept += abs(c)
            else:
                out[k] = c
        e = _add_up(self.error, _sum_bound(swept, len(self._terms) - len(out)))
        if min(drop) == len(keep):  # the swept variables are the trailing ones
            return self._prefix(len(keep), out, None, e)
        return PolynomialModel._of(self.vars, out, None, e, self.max_degree).reindex(keep)

    def _prefix(self, n: int, terms, vec, error: float) -> "PolynomialModel":
        """The model of terms or vec (the other None), over this model's
        layout but inert in every variable at position n and above, as a
        model of the first n variables: a dict model shares its terms, a
        vector model gathers its slots into the layout of (n, cap)."""
        if vec is not None:
            vec = vec[self._layout().gather(tuple(range(n)))[0]]
        return PolynomialModel._of(self.vars[:n], terms, vec, error, self.max_degree)

    def reindex(self, keep: Sequence[int]) -> "PolynomialModel":
        """Keep only the listed, distinct variable positions (the model must
        be inert in the dropped ones); re-pack keys accordingly.  A vector
        model gathers its slots into the layout of the kept variables.  A
        dict model that keeps a prefix of its variables shares its terms
        unchanged once it is seen to be inert in the others; any other keep
        moves each key's nibbles to their new positions.  sweep of a
        trailing set and substitute_unit of the last variable build their
        results without this pass, because their loops have already
        removed every exponent of the dropped variables."""
        keep = tuple(keep)
        if len(set(keep)) < len(keep):
            raise ValueError("reindex positions must be distinct")
        new_vars = tuple(self.vars[i] for i in keep)
        if self._vec is not None:
            vec = dense._dense_reindex(self._vec, self._layout(), keep)
            return PolynomialModel._of(new_vars, None, vec, self.error, self.max_degree)
        terms = self._terms
        if keep == tuple(range(len(keep))):
            # every position at or above len(keep) is dropped
            bits = 4 * len(keep)
            if any(k >> bits for k in terms):
                raise ValueError("cannot drop a variable the model still depends on")
            return self._prefix(len(keep), terms, None, self.error)
        dropped_mask = 0
        for i in range(self.arity):
            if i not in keep:
                dropped_mask |= 0xF << (4 * i)
        shifts = [(4 * old, 4 * new) for new, old in enumerate(keep)]
        out = {}
        for k, c in terms.items():
            if k & dropped_mask:
                raise ValueError("cannot drop a variable the model still depends on")
            nk = 0
            for old, new in shifts:
                nk |= ((k >> old) & 0xF) << new
            out[nk] = c
        return PolynomialModel._of(new_vars, out, None, self.error, self.max_degree)

    def extend(self, new_vars: Sequence[VarInfo]) -> "PolynomialModel":
        """Append fresh (independent) variables; keys are unchanged, and a
        vector model scatters its slots into the larger layout, or becomes
        a dict model above 15 variables, where there is no layout."""
        new_vars = self.vars + tuple(new_vars)
        vec = self._vec
        if vec is None:
            return PolynomialModel._of(new_vars, self._terms, None, self.error, self.max_degree)
        if len(new_vars) > 15:
            return PolynomialModel._of(new_vars, self._layout().terms(vec), None, self.error, self.max_degree)
        vec = dense._dense_extend(vec, self._layout(), len(new_vars))
        return PolynomialModel._of(new_vars, None, vec, self.error, self.max_degree)

    def substitute_unit(self, position: int, value: float) -> "PolynomialModel":
        """Substitute z_position := value with value in {-1.0, 1.0} (exact):
        the dense kernel for a vector model, the dict loop for a dict
        model.  Both clear every exponent of z_position, so the result of
        substituting the last variable is built over the others directly,
        with no reindex pass; any other position is reindexed away."""
        if value not in (-1.0, 1.0):
            raise ValueError("substitute_unit only supports the endpoints -1 and 1")
        if not 0 <= position < self.arity:
            raise IndexError("substitute position out of range")
        if self._vec is not None:
            vec, slack = dense._dense_substitute_unit(self._vec, self._layout(), position, value)
            out = None
        else:
            out, slack = _substitute_unit_loop(self._terms, position, value)
            vec = None
        e = _add_up(self.error, _grown(slack))
        if position == self.arity - 1:
            return self._prefix(position, out, vec, e)
        m = PolynomialModel._of(self.vars, out, vec, e, self.max_degree)
        return m.reindex([i for i in range(self.arity) if i != position])

    def antiderivative(self, time_position: int) -> "PolynomialModel":
        """Integral from the interval start in the semantic time variable.

        The time variable has radius h/2; the result models
        t -> integral_{t_k}^{t} p(s) ds, and the error is multiplied by the
        full step length h.  A vector model takes the dense kernel, a dict
        model the dict loop.
        """
        if not 0 <= time_position < self.arity:
            raise IndexError("antiderivative position out of range")
        info = self.vars[time_position]
        if info.role is not Role.TIME:
            raise ValueError("antiderivative requires the time variable")
        r = info.radius
        cap = self.max_degree
        if self._vec is not None:
            vec, dropped, slack = dense._dense_antiderivative(self._vec, self._layout(), time_position, r)
            out = None
        else:
            out, dropped, slack = _antiderivative_loop(self._terms, time_position, r, cap)
            vec = None
        h = 2.0 * r
        e_out = _mul_up(self.error, h)
        e_out = _add_up(e_out, _grown(dropped))
        # a product and a quotient per coefficient
        e_out = _add_up(e_out, _grown(slack, 2 * self._size()))
        return PolynomialModel._of(self.vars, out, vec, e_out, cap)

    # ------------------------------------------------------------------ queries
    def eval_point(self, z: Sequence[float]) -> float:
        """Value of the polynomial part at z (no error band)."""
        total = 0.0
        for k, c in self.terms.items():
            v = c
            kk = k
            pos = 0
            while kk:
                e = kk & 0xF
                if e:
                    v *= z[pos] ** e
                kk >>= 4
                pos += 1
            total += v
        return total

    def __repr__(self) -> str:
        return f"PolynomialModel(arity={self.arity}, terms={self._size()}, error={self.error:.3g})"


# the slot descriptors' setters: the fastest way past __setattr__
_set_vars = PolynomialModel.vars.__set__
_set_error = PolynomialModel.error.__set__
_set_max_degree = PolynomialModel.max_degree.__set__
_set_terms = PolynomialModel._terms.__set__
_set_vec = PolynomialModel._vec.__set__
_set_table = PolynomialModel._table.__set__
_set_mag = PolynomialModel._mag.__set__


def _init(m: PolynomialModel, vars, terms, vec, error: float, max_degree: int) -> None:
    if not 0.0 <= error < math.inf:
        if error < 0.0:
            raise ValueError("model error must be nonnegative")
        # an infinite or NaN error: some coefficient or error overflowed
        raise IntervalDomainError("model arithmetic overflowed")
    _set_vars(m, vars)
    _set_error(m, error)
    _set_max_degree(m, max_degree)
    _set_terms(m, terms)
    if vec is not None:
        vec.setflags(write=False)  # the vector of an immutable model
    _set_vec(m, vec)
    _set_table(m, None)
    _set_mag(m, None)


class VectorModel(_Immutable):
    """A vector of models over one variable layout.  Its box, the ranges of
    its components, is computed on first use and kept (not a field)."""

    __slots__ = ("components", "_box")

    def __init__(self, components: tuple[PolynomialModel, ...]):
        if not components:
            raise ValueError("vector model needs at least one component")
        v0 = components[0].vars
        for c in components[1:]:
            if c.vars != v0:
                raise ArityMismatchError("vector model components disagree on variables")
        _set(self, "components", components)
        _set(self, "_box", None)

    @property
    def vars(self) -> tuple[VarInfo, ...]:
        return self.components[0].vars

    @property
    def n(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> PolynomialModel:
        return self.components[i]

    def box(self) -> Box:
        b = self._box
        if b is None:
            b = Box(tuple(c.range() for c in self.components))
            _set(self, "_box", b)
        return b

    def map(self, fn: Callable[[PolynomialModel], PolynomialModel]) -> "VectorModel":
        return VectorModel(tuple(fn(c) for c in self.components))

    def eval_point(self, z: Sequence[float]) -> tuple[float, ...]:
        return tuple(c.eval_point(z) for c in self.components)


# ---------------------------------------------------------------------- composition


def _series_coefficients(kind: str, table: "_PowerTable", d: int) -> tuple[list[Interval], float]:
    """Taylor coefficients of the elementary function about the table's
    centre c as intervals, plus an upper bound for the Lagrange remainder
    factor sup|f^(d+1)|/(d+1)! over its range."""
    c, rng = table.c, table.rng
    pt = Interval.point(c)
    if kind == "exp":
        base = iv_exp(pt)
        coeffs = [base / float(math.factorial(k)) for k in range(d + 1)]
        rem = iv_exp(rng).mag / float(math.factorial(d + 1)) * _SLACK_INFLATE
        return coeffs, rem
    if kind in ("sin", "cos"):
        s, co = table.sin_cos()
        cycle = [s, co, -s, -co] if kind == "sin" else [co, -s, -co, s]
        coeffs = [cycle[k % 4] / float(math.factorial(k)) for k in range(d + 1)]
        return coeffs, 1.0 / float(math.factorial(d + 1)) * _SLACK_INFLATE
    if kind == "recip":
        if rng.lo <= 0.0 <= rng.hi:
            raise IntervalDomainError("reciprocal of a model whose range contains zero")
        coeffs = []
        for k in range(d + 1):
            denom = pt ** (k + 1)
            val = Interval.point(1.0) / denom
            coeffs.append(val if k % 2 == 0 else -val)
        return coeffs, _pow_up(_div_up(1.0, rng.mig), d + 2)
    raise ValueError(kind)


class _PowerTable:
    """What the Taylor compositions about one inner model share, kept on
    that model: its range rng, the centre c = rng.mid, rho >= sup|inner - c|,
    sin(c) and cos(c) (computed on first use), the powers delta^0 .. delta^d
    of delta = inner - c (built on first use) and each power's range
    magnitude (computed on first use, that is, only when some series
    coefficient has a nonzero radius).  The table does not hold its inner
    model, so the two form no reference cycle."""

    __slots__ = ("rng", "c", "rho", "_sin_cos", "_powers", "_mags")

    def __init__(self, inner: PolynomialModel):
        self.rng = inner.range()
        self._sin_cos = None
        self._powers = None
        if self.rng.is_finite:
            self.c = self.rng.mid
            rho = (self.rng - Interval.point(self.c)).mag
            self.rho = _add_up(rho, rho * 4 * _EPS)

    def sin_cos(self) -> tuple[Interval, Interval]:
        if self._sin_cos is None:
            pt = Interval.point(self.c)
            self._sin_cos = iv_sin(pt), iv_cos(pt)
        return self._sin_cos

    def powers(self, inner: PolynomialModel) -> list[PolynomialModel]:
        """The powers of delta; inner is the model the table was built for."""
        if self._powers is None:
            delta = inner.add_scalar(-self.c)
            if delta is inner:  # c == 0: a copy, which holds no table
                delta = inner.with_error(inner.error)
            # delta^1 is delta itself: 1 * delta would copy it and charge
            # slack for a product that is exact
            powers = [PolynomialModel.constant(1.0, inner.vars, inner.max_degree)]
            for k in range(inner.max_degree):
                powers.append(powers[-1] * delta if k else delta)
            self._powers = powers
            self._mags = [None] * len(powers)
        return self._powers

    def mag(self, k: int) -> float:
        m = self._mags[k]
        if m is None:
            m = self._mags[k] = self._powers[k].range().mag
        return m


def _compose_elementary(kind: str, inner: PolynomialModel) -> PolynomialModel:
    """kind (sin, cos, exp or recip) of inner: sum a_k delta^k over the
    powers of inner's power table plus a Lagrange remainder over its full
    range."""
    table = inner._table
    if table is None:
        table = _PowerTable(inner)
        _set_table(inner, table)
    rng = table.rng
    if not rng.is_finite:
        raise IntervalDomainError(f"{kind} composition requires a finite range")
    d = inner.max_degree
    coeffs, rem_factor = _series_coefficients(kind, table, d)
    rem = _mul_up(rem_factor, _pow_up(table.rho, d + 1))
    return _series_sum(coeffs, table.powers(inner), table.mag).add_error(rem)


def _series_sum(
    coeffs: Sequence[Interval], powers: Sequence[PolynomialModel], mag: Callable[[int], float]
) -> PolynomialModel:
    """An enclosure of sum a_k powers[k] for a_k in coeffs, given
    mag(k) >= the range magnitude of powers[k].

    The sum is built in one pass, in the order that adding up the scaled
    powers would take, so its coefficients are those of
    sum_k powers[k].scale(mid a_k): over slot vectors when a power carries
    one, else into one dict.  The error is one slack sum over every product
    and merge, sum_k |mid a_k| * err(powers[k]) rounded up, and the radius
    of each a_k times mag(k)."""
    err = 0.0
    for k, a in enumerate(coeffs):
        m = a.mid
        if m and powers[k].error:
            err = _add_up(err, _mul_up(abs(m), powers[k].error))
        if a.rad:
            err = _add_up(err, _mul_up(a.rad, mag(k)))
    scaled = [(a.mid, power) for a, power in zip(coeffs, powers) if a.mid]
    vars, cap = powers[0].vars, powers[0].max_degree
    if any(power._vec is not None for _, power in scaled):
        layout = powers[0]._layout()
        vectors = [power._vector_in(layout) for _, power in scaled]
        vec, slack, products = dense._dense_series_sum([m for m, _ in scaled], vectors, layout)
        return PolynomialModel._of(vars, None, vec, _add_up(err, _grown(slack, products)), cap)
    out: dict[int, float] = {}
    slack = 0.0
    products = 0
    for m, power in scaled:
        for key, c in power._terms.items():
            v = c * m
            slack += abs(v) * _EPS
            prev = out.get(key)
            if prev is None:
                if v:
                    out[key] = v
            else:
                v = prev + v
                if v == 0.0:
                    del out[key]
                else:
                    out[key] = v
                slack += abs(v) * _EPS
        products += len(power._terms)
    return PolynomialModel._of(vars, out, None, _add_up(err, _grown(slack, products)), cap)


def _pow_model(base: PolynomialModel, n: int) -> PolynomialModel:
    if n == 0:
        return PolynomialModel.constant(1.0, base.vars, base.max_degree)
    if n < 0:
        return _pow_model(_compose_elementary("recip", base), -n)
    return _squarings(base, n)


def _squarings(base, n: int):
    """base ** n for n >= 1 by repeated squaring, in any domain with *."""
    result = None
    power = base
    while n:
        if n & 1:
            result = power if result is None else result * power
        n >>= 1
        if n:
            power = power * power
    return result


def _model_div(a: PolynomialModel, b) -> PolynomialModel:
    v = b._scalar() if isinstance(b, PolynomialModel) else b  # a divisor Const comes as its value
    if v is not None:  # an exact constant: scale
        if v == 0.0:
            raise IntervalDomainError("division by a zero model")
        return a.scale(1.0 / v).add_error(_grown(abs(1.0 / v) * _EPS))
    return a * _compose_elementary("recip", b)


_MODEL_OPS = {
    **symexpr.ARITH_OPS,
    symexpr.Const: lambda v, args: PolynomialModel.constant(v, args[0].vars, args[0].max_degree),
    symexpr.Div: _model_div,
    symexpr.Pow: _pow_model,
    symexpr.Sin: partial(_compose_elementary, "sin"),
    symexpr.Cos: partial(_compose_elementary, "cos"),
    symexpr.Exp: partial(_compose_elementary, "exp"),
}


# ---------------------------------------------------------------------- float domain


def carries_slot_vectors(models: Iterable[PolynomialModel]) -> bool:
    """Whether every model holds a slot vector: its products have run on the
    dense kernels, where the float domain pays for its numpy calls.  Dict
    models are small enough that the validated dict loops cost less."""
    return all(m._vec is not None for m in models)


# 1/k! for the Taylor series of exp, sin and cos, k <= 7, the largest cap
_INV_FACTORIAL = [1.0 / math.factorial(k) for k in range(8)]


class FloatPolynomial:
    """A polynomial in plain floats, the slot vector of the dense layout of
    one (arity, cap), with no error (see the module docstring).  + and -
    act slot by slot, * is the truncated product, and a number operand
    scales.  One made by of from a dict model of at most two terms keeps
    them as _monomials, (key, coefficient) pairs, and a product with it
    shifts the other operand's slots (dense._float_shift_product, bit for
    bit the pair table's).  sin, cos, exp and the reciprocal (for / and
    negative powers) are Taylor series about the constant coefficient p0:
    delta = p - p0 has no constant term, so sum_{k <= cap} a_k delta^k cut
    at the cap is the exact truncated composition.  Overflow raises
    nothing: inf and NaN propagate, for the caller to find under numpy's
    errstate."""

    __slots__ = ("vec", "layout", "_powers", "_monomials")

    def __init__(self, vec, layout: "dense._DenseLayout"):
        self.vec = vec
        self.layout = layout
        self._powers = None  # delta^0 .. delta^cap, built on first use
        self._monomials = None

    @staticmethod
    def of(model: PolynomialModel) -> "FloatPolynomial":
        """The polynomial part of model (a dict model is scattered)."""
        layout = model._layout()
        p = FloatPolynomial(model._vector_in(layout), layout)
        if model._vec is None and len(model._terms) <= 2:
            p._monomials = tuple(model._terms.items())
        return p

    @staticmethod
    def constant(value: float, layout: "dense._DenseLayout") -> "FloatPolynomial":
        return FloatPolynomial(layout.vector({0: value}), layout)

    def __add__(self, other: "FloatPolynomial") -> "FloatPolynomial":
        return FloatPolynomial(self.vec + other.vec, self.layout)

    def __sub__(self, other: "FloatPolynomial") -> "FloatPolynomial":
        return FloatPolynomial(self.vec - other.vec, self.layout)

    def __neg__(self) -> "FloatPolynomial":
        return FloatPolynomial(-self.vec, self.layout)

    def __mul__(self, other) -> "FloatPolynomial":
        if isinstance(other, FloatPolynomial):
            if other._monomials is not None:
                vec = dense._float_shift_product(self.vec, other._monomials, self.layout)
            elif self._monomials is not None:
                vec = dense._float_shift_product(other.vec, self._monomials, self.layout)
            else:
                vec = dense._float_product(self.vec, other.vec, self.layout)
            return FloatPolynomial(vec, self.layout)
        return FloatPolynomial(self.vec * other, self.layout)

    __rmul__ = __mul__  # s * self for a number s

    def __truediv__(self, other) -> "FloatPolynomial":
        if isinstance(other, FloatPolynomial):
            return self * _float_series("recip", other)
        return FloatPolynomial(self.vec / other, self.layout)

    def __pow__(self, n: int) -> "FloatPolynomial":
        if n < 0:
            return _float_series("recip", self) ** -n
        if n == 0:
            return FloatPolynomial.constant(1.0, self.layout)
        return _squarings(self, n)

    def antiderivative(self, position: int, radius: float) -> tuple["FloatPolynomial", float]:
        """PolynomialModel.antiderivative's polynomial, in the variable at
        position of radius radius, and the magnitude sum of the terms it
        drops at the cap."""
        if not 0 <= position < self.layout.arity:
            raise IndexError("antiderivative position out of range")
        vec, dropped = dense._float_antiderivative(self.vec, self.layout, position, radius)
        return FloatPolynomial(vec, self.layout), dropped

    def magnitude(self) -> float:
        """The plain-float sum of the coefficient magnitudes."""
        return float(abs(self.vec).sum())


def _float_series(kind: str, p: FloatPolynomial) -> FloatPolynomial:
    """kind (sin, cos, exp or recip) of p about p0, over the powers of delta
    kept on p, so that sin(p) and cos(p) share them; NaN where p0 is
    outside the function's float domain."""
    cap = p.layout.cap
    p0 = float(p.vec[0])
    try:
        if kind == "recip":
            r = 1.0 / p0
            a = [r * (-r) ** k for k in range(cap + 1)]
        elif kind == "exp":
            e = math.exp(p0)
            a = [e * f for f in _INV_FACTORIAL[: cap + 1]]
        else:
            s, c = math.sin(p0), math.cos(p0)
            cycle = (s, c, -s, -c) if kind == "sin" else (c, -s, -c, s)
            a = [cycle[k % 4] * f for k, f in enumerate(_INV_FACTORIAL[: cap + 1])]
    except (ArithmeticError, ValueError):
        a = [math.nan] * (cap + 1)
    if p._powers is None:
        p._powers = dense._float_powers(p.vec, p.layout)
    return FloatPolynomial(a @ p._powers, p.layout)


FLOAT_OPS = {
    **symexpr.ARITH_OPS,
    symexpr.Const: lambda v, args: FloatPolynomial.constant(v, args[0].layout),
    symexpr.Sin: partial(_float_series, "sin"),
    symexpr.Cos: partial(_float_series, "cos"),
    symexpr.Exp: partial(_float_series, "exp"),
}


def compose_expr(e: Expr | symexpr.Program, args: VectorModel | Sequence[PolynomialModel], block: int | None = None):
    """Evaluate an expression over polynomial-model arguments, producing an
    enclosure of the composition, or run a program over them (its slot
    values for block, or for every slot): Program.run over models, where
    sums, products and integer powers are model arithmetic, sin/cos/exp and
    reciprocals are Taylor compositions with a Lagrange remainder, and a
    product with an exact constant or a division by one is a scaling
    (PolynomialModel.__mul__); a Const that only scales is never built.

    A run of a system's program composes sin(x3) once, however many fields
    hold it.  Each inner model that a composition expands (Makino & Berz,
    2003: f(inner) = sum a_k delta^k, delta = inner - c) keeps one power
    table, so sin(x3) and cos(x3) share c, the powers of delta and their
    ranges.  Every result is bit-identical to composing it alone.
    """
    models = tuple(args) if not isinstance(args, VectorModel) else args.components
    if not models:
        raise ValueError("composition needs at least one argument model")
    if isinstance(e, symexpr.Program):
        return e.run(models, _MODEL_OPS, block, scalars=True)
    return symexpr.Program(((e,),)).run(models, _MODEL_OPS, scalars=True)[-1]
