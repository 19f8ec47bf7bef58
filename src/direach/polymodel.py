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
(3,003 of 63,504 for two full arity-5, cap-5 models).  Both of its
kernels bound the mass of the dropped pairs from suffix sums of the right
operand's coefficient magnitudes by degree, which are built by addition
only, so cancellation cannot under-count it.  A product with an exact
constant (no error, no term but the constant one) is a scaling.

The product, antiderivative and substitute_unit each have two kernels,
chosen from sizes alone:

- the dense kernels of the dense module work on the slot vector of the
  (arity, cap) layout, one slot per monomial of degree <= cap, built on
  first use and cached.  A result slot that sums n_k contributions charges
  n_k * |c| * _EPS of slack per contribution c (Higham's gamma_{n_k}),
  and each rounded product or quotient its own |c| * _EPS, through
  _grown.  The product takes it when len(a.terms) * len(b.terms) reaches
  the kept pairs of two full models, C(2*arity + cap, cap); the
  antiderivative when the model fills a quarter of the layout's slots, and
  substitute_unit when it fills half of them, with at least 32 terms (the
  measured crossovers);
- the dict loops serve the rest, and also what a dense kernel declines:
  operands with a term above the cap, more than 15 variables, or a result
  that is not finite.  They charge each rounded product and merge.

compose_expr expands sin, cos, exp and reciprocals about the midpoint c of
the argument's range as sum a_k (inner - c)^k plus a Lagrange remainder.
One power table per argument model and memo holds c, the powers of
inner - c and their ranges, so every function of one argument shares them,
and each series is summed in one pass over those powers (_series_sum).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import dense
from .interval import Interval, Box, IntervalDomainError, iv_cos, iv_exp, iv_sin
from .interval import _EPS, _TINY, _add_down, _add_up, _mul_up, _pow_up
from . import symexpr
from .symexpr import Expr

__all__ = [
    "Role",
    "VarInfo",
    "PolynomialModel",
    "VectorModel",
    "ArityMismatchError",
    "compose_expr",
]

_SLACK_INFLATE = 1.000000002


class ArityMismatchError(ValueError):
    """Models combined over different variable layouts."""


class Role(str, Enum):
    STATE = "state"
    INPUT = "input"
    TIME = "time"


@dataclass(frozen=True)
class VarInfo:
    """One unit-domain variable: its meaning and the affine map into the
    semantic domain (center + radius * z)."""

    role: Role
    born: int = 0
    center: float = 0.0
    radius: float = 1.0
    axis: int | None = None


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
        # above[r + 1]: |c| mass of the right terms of degree > r, r = -1..cap
        above = [0.0] * (cap + 2)
        for _, c2, d2 in right:
            above[d2 if d2 <= cap else cap + 1] += abs(c2)
        for r in range(cap, -1, -1):
            above[r] += above[r + 1]
        rows: dict[int, list[tuple[int, float]]] = {}
        for k1, c1 in a.items():
            r = cap - _degree_of(k1)
            if r < 0:
                dropped += abs(c1) * above[0]
                n_dropped += 1
                continue
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


def _slot_count(arity: int, cap: int) -> float:
    """The slots of the dense layout of (arity, cap), the monomials of
    degree <= cap in arity variables; infinite above 15 variables."""
    return math.comb(arity + cap, cap) if arity <= 15 else math.inf


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
        if _degree_of(k) + 1 > cap:
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


@dataclass(frozen=True)
class PolynomialModel:
    vars: tuple[VarInfo, ...]
    terms: dict[int, float]
    error: float
    max_degree: int

    def __post_init__(self):
        if not self.error >= 0:
            if math.isnan(self.error):  # inf - inf or inf * 0 in the arithmetic
                raise IntervalDomainError("model arithmetic overflowed")
            raise ValueError("model error must be nonnegative")
        if not 0 <= self.max_degree <= 7:
            raise ValueError("degree cap must be between 0 and 7")

    # ------------------------------------------------------------------ build
    @staticmethod
    def constant(value: float, vars: tuple[VarInfo, ...], max_degree: int, error: float = 0.0) -> "PolynomialModel":
        terms = {0: float(value)} if value != 0.0 else {}
        return PolynomialModel(vars, terms, error, max_degree)

    @staticmethod
    def from_var(position: int, vars: tuple[VarInfo, ...], max_degree: int) -> "PolynomialModel":
        if not 0 <= position < len(vars):
            raise IndexError("variable position out of range")
        return PolynomialModel(vars, {1 << (4 * position): 1.0}, 0.0, max_degree)

    @property
    def arity(self) -> int:
        return len(self.vars)

    def _check_compat(self, other: "PolynomialModel") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise ArityMismatchError("models have different variable layouts")

    # ------------------------------------------------------------------ arithmetic
    def __neg__(self) -> "PolynomialModel":
        return PolynomialModel(self.vars, {k: -c for k, c in self.terms.items()}, self.error, self.max_degree)

    def __add__(self, other: "PolynomialModel") -> "PolynomialModel":
        self._check_compat(other)
        out = dict(self.terms)
        slack = 0.0
        for k, c in other.terms.items():
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
        e = _add_up(_add_up(self.error, other.error), _grown(slack))
        return PolynomialModel(self.vars, out, e, self.max_degree)

    def __sub__(self, other: "PolynomialModel") -> "PolynomialModel":
        # the loop of __add__ with other's coefficients negated: a - b and
        # a + (-b) round alike, so this is bit-identical to self + (-other)
        self._check_compat(other)
        out = dict(self.terms)
        slack = 0.0
        for k, c in other.terms.items():
            prev = out.get(k)
            if prev is None:
                out[k] = -c
            else:
                v = prev - c
                if v == 0.0:
                    del out[k]
                else:
                    out[k] = v
                slack += abs(v) * _EPS
        e = _add_up(_add_up(self.error, other.error), _grown(slack))
        return PolynomialModel(self.vars, out, e, self.max_degree)

    def __mul__(self, other: "PolynomialModel") -> "PolynomialModel":
        """Truncated product: only term pairs whose degree fits under the cap
        are multiplied.  When len(self.terms) * len(other.terms) reaches the
        kept pairs of two full models, dense._dense_product multiplies the
        whole pair table of the (arity, cap) layout with numpy; otherwise,
        or when it declines, _pair_product loops over the kept pairs of the
        terms.

        An exact constant operand (no error, no term but the constant one),
        such as the 0.3 of 0.3*sin(x3), is a scalar: the product is the
        other operand's scale by it, which skips the pair kernels and does not
        charge the constant's poly_magnitude inflation to the other's error.
        Terms of the other operand above the cap still drop into the error.
        """
        self._check_compat(other)
        s = self._scalar()
        if s is not None:
            return other.scale(s)
        s = other._scalar()
        if s is not None:
            return self.scale(s)
        cap = self.max_degree
        part = None
        if len(self.terms) * len(other.terms) >= _pair_count(self.arity, cap):
            part = dense._dense_product(self.terms, other.terms, dense._layout(self.arity, cap))
        if part is None:
            part = _pair_product(self.terms, other.terms, cap)
        out, dropped, n_dropped, slack, n_products = part
        pa = self.poly_magnitude()
        pb = other.poly_magnitude()
        e = _mul_up(pa, other.error)
        e = _add_up(e, _mul_up(pb, self.error))
        e = _add_up(e, _mul_up(self.error, other.error))
        e = _add_up(e, _grown(dropped, n_dropped))
        e = _add_up(e, _grown(slack, n_products))
        return PolynomialModel(self.vars, out, e, self.max_degree)

    def _scalar(self) -> float | None:
        """The value of an exact constant model (no error, no term but the
        constant one), else None."""
        if not self.error and self.terms.keys() <= {0}:
            return self.terms.get(0, 0.0)
        return None

    def scale(self, s: float) -> "PolynomialModel":
        """The model times the float s.  Terms above the degree cap (only a
        model built from explicit terms holds one) drop into the error
        before scaling: their magnitudes, bounded by _grown, join the error
        that is scaled."""
        if s == 0.0:
            return PolynomialModel.constant(0.0, self.vars, self.max_degree)
        cap = self.max_degree
        out = {}
        slack = 0.0
        dropped = 0.0
        for k, c in self.terms.items():
            if _degree_of(k) > cap:
                dropped += abs(c)
                continue
            v = c * s
            out[k] = v
            slack += abs(v) * _EPS
        e = _add_up(self.error, _grown(dropped)) if dropped else self.error
        e = _add_up(_mul_up(abs(s), e), _grown(slack, len(out)))
        return PolynomialModel(self.vars, out, e, cap)

    def add_scalar(self, v: float) -> "PolynomialModel":
        if v == 0.0:
            return self
        out = dict(self.terms)
        prev = out.get(0, 0.0)
        s = prev + v
        if s == 0.0:
            out.pop(0, None)
        else:
            out[0] = s
        e = _add_up(self.error, _grown(abs(s) * _EPS))
        return PolynomialModel(self.vars, out, e, self.max_degree)

    def add_error(self, extra: float) -> "PolynomialModel":
        if extra < 0:
            raise ValueError("error increment must be nonnegative")
        return replace(self, error=_add_up(self.error, extra))

    def poly_magnitude(self) -> float:
        """Upper bound of sup|p| over the unit box (term-magnitude sum)."""
        s = 0.0
        for c in self.terms.values():
            s += abs(c)
        return _grown(s)

    # ------------------------------------------------------------------ range
    def range(self) -> Interval:
        """Enclosure of {p(z)+d : z in unit box, |d| <= error}: monomials with
        any odd exponent span [-1,1], all-even ones [0,1]."""
        if self.error == math.inf:  # overflowed; its coefficients may be too
            return Interval(-math.inf, math.inf)
        terms = self.terms
        odd_mask = _odd_mask(self.arity)
        # plain-float sums of the non-constant terms' magnitudes: the odd
        # monomials count on both sides, the all-even ones on one
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
    def sweep(self, positions: Iterable[int], drop: bool = True) -> "PolynomialModel":
        """Replace dependence on the given variables by a uniform error."""
        pos = sorted(set(positions))
        if not pos:
            return self
        mask = 0
        for p in pos:
            if not 0 <= p < self.arity:
                raise IndexError("sweep position out of range")
            mask |= 0xF << (4 * p)
        out = {}
        swept = 0.0
        for k, c in self.terms.items():
            if k & mask:
                swept += abs(c)
            else:
                out[k] = c
        e = _add_up(self.error, _sum_bound(swept, len(self.terms) - len(out)))
        m = PolynomialModel(self.vars, out, e, self.max_degree)
        if drop:
            keep = [i for i in range(self.arity) if i not in set(pos)]
            m = m.reindex(keep)
        return m

    def reindex(self, keep: Sequence[int]) -> "PolynomialModel":
        """Keep only the listed variable positions (they must be inert in
        dropped positions); re-pack keys accordingly.  Positions below the
        first one that moves keep their nibbles and none of them is
        dropped, so only the nibbles above it are remapped; when no key
        reaches it (keep a prefix, as in sweep and substitute_unit), the
        terms are shared unchanged."""
        keep = list(keep)
        new_vars = tuple(self.vars[i] for i in keep)
        first = next((new for new, old in enumerate(keep) if new != old), len(keep))
        low_bits = 4 * first
        if not any(k >> low_bits for k in self.terms):
            return PolynomialModel(new_vars, self.terms, self.error, self.max_degree)
        low_mask = (1 << low_bits) - 1
        shift_of = {old: 4 * new for new, old in enumerate(keep)}
        dropped_mask = 0
        keep_set = set(keep)
        for i in range(self.arity):
            if i not in keep_set:
                dropped_mask |= 0xF << (4 * i)
        out = {}
        for k, c in self.terms.items():
            kk = k >> low_bits
            if kk:
                if k & dropped_mask:
                    raise ValueError("cannot drop a variable the model still depends on")
                nk = k & low_mask
                pos = first
                while kk:
                    e = kk & 0xF
                    if e:
                        nk |= e << shift_of[pos]
                    kk >>= 4
                    pos += 1
                k = nk
            out[k] = c
        return PolynomialModel(new_vars, out, self.error, self.max_degree)

    def extend(self, new_vars: Sequence[VarInfo]) -> "PolynomialModel":
        """Append fresh (independent) variables; keys are unchanged."""
        return replace(self, vars=self.vars + tuple(new_vars))

    def substitute_unit(self, position: int, value: float) -> "PolynomialModel":
        """Substitute z_position := value with value in {-1.0, 1.0} (exact).
        A model that fills half the slots of its layout, and has at least 32
        terms, takes the dense kernel; the dict loop serves the rest and
        what the kernel declines."""
        if value not in (-1.0, 1.0):
            raise ValueError("substitute_unit only supports the endpoints -1 and 1")
        cap = self.max_degree
        part = None
        if len(self.terms) >= max(32, _slot_count(self.arity, cap) / 2):
            part = dense._dense_substitute_unit(self.terms, dense._layout(self.arity, cap), position, value)
        if part is None:
            part = _substitute_unit_loop(self.terms, position, value)
        out, slack = part
        m = PolynomialModel(self.vars, out, _add_up(self.error, _grown(slack)), cap)
        keep = [i for i in range(self.arity) if i != position]
        return m.reindex(keep)

    def antiderivative(self, time_position: int) -> "PolynomialModel":
        """Integral from the interval start in the semantic time variable.

        The time variable has radius h/2; the result models
        t -> integral_{t_k}^{t} p(s) ds, and the error is multiplied by the
        full step length h.  A model that fills a quarter of the slots of
        its layout, and has at least 32 terms, takes the dense kernel; the
        dict loop serves the rest and what the kernel declines.
        """
        info = self.vars[time_position]
        if info.role is not Role.TIME:
            raise ValueError("antiderivative requires the time variable")
        r = info.radius
        cap = self.max_degree
        part = None
        if len(self.terms) >= max(32, _slot_count(self.arity, cap) / 4):
            part = dense._dense_antiderivative(self.terms, dense._layout(self.arity, cap), time_position, r)
        if part is None:
            part = _antiderivative_loop(self.terms, time_position, r, cap)
        out, dropped, slack = part
        h = 2.0 * r
        e_out = _mul_up(self.error, h)
        e_out = _add_up(e_out, _grown(dropped))
        # a product and a quotient per coefficient
        e_out = _add_up(e_out, _grown(slack, 2 * len(self.terms)))
        return PolynomialModel(self.vars, out, e_out, cap)

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
        return f"PolynomialModel(arity={self.arity}, terms={len(self.terms)}, error={self.error:.3g})"


@dataclass(frozen=True)
class VectorModel:
    components: tuple[PolynomialModel, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("vector model needs at least one component")
        v0 = self.components[0].vars
        for c in self.components[1:]:
            if c.vars != v0:
                raise ArityMismatchError("vector model components disagree on variables")

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
        return Box(tuple(c.range() for c in self.components))

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
        mig = rng.mig
        rem = (1.0 / mig) ** (d + 2) * _SLACK_INFLATE
        return coeffs, rem
    raise ValueError(kind)


class _PowerTable:
    """What the Taylor compositions about one inner model share: its range
    rng, the centre c = rng.mid, rho >= sup|inner - c|, sin(c) and cos(c)
    (computed on first use), the powers delta^0 .. delta^d of
    delta = inner - c (built on first use) and each power's range
    magnitude (computed on first use, that is, only when some series
    coefficient has a nonzero radius)."""

    __slots__ = ("inner", "rng", "c", "rho", "_sin_cos", "_powers", "_mags")

    def __init__(self, inner: PolynomialModel):
        self.inner = inner  # kept alive, so no other model takes its id
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

    def powers(self) -> list[PolynomialModel]:
        if self._powers is None:
            inner = self.inner
            delta = inner.add_scalar(-self.c)
            power = PolynomialModel.constant(1.0, inner.vars, inner.max_degree)
            self._powers = [power]
            for _ in range(inner.max_degree):
                power = power * delta
                self._powers.append(power)
            self._mags = [None] * len(self._powers)
        return self._powers

    def mag(self, k: int) -> float:
        m = self._mags[k]
        if m is None:
            m = self._mags[k] = self._powers[k].range().mag
        return m


def _compose_elementary(kind: str, table: _PowerTable) -> PolynomialModel:
    """kind (sin, cos, exp or recip) of table.inner: sum a_k delta^k over
    the table's powers plus a Lagrange remainder over the full range."""
    rng = table.rng
    if not rng.is_finite:
        raise IntervalDomainError(f"{kind} composition requires a finite range")
    d = table.inner.max_degree
    coeffs, rem_factor = _series_coefficients(kind, table, d)
    rem = _mul_up(rem_factor, _pow_up(table.rho, d + 1))
    return _series_sum(coeffs, table.powers(), table.mag).add_error(rem)


def _series_sum(
    coeffs: Sequence[Interval], powers: Sequence[PolynomialModel], mag: Callable[[int], float]
) -> PolynomialModel:
    """An enclosure of sum a_k powers[k] for a_k in coeffs, given
    mag(k) >= the range magnitude of powers[k].

    The sum is built in one pass into one dict, in the order that adding
    up the scaled powers would take, so its coefficients are those of
    sum_k powers[k].scale(mid a_k).  The error is one slack sum over every
    product and merge, sum_k |mid a_k| * err(powers[k]) rounded up, and the
    radius of each a_k times mag(k)."""
    out: dict[int, float] = {}
    slack = 0.0
    products = 0
    err = 0.0
    for k, a in enumerate(coeffs):
        m = a.mid
        if m:
            power = powers[k]
            for key, c in power.terms.items():
                v = c * m
                slack += abs(v) * _EPS
                prev = out.get(key)
                if prev is None:
                    out[key] = v
                else:
                    v = prev + v
                    if v == 0.0:
                        del out[key]
                    else:
                        out[key] = v
                    slack += abs(v) * _EPS
            products += len(power.terms)
            if power.error:
                err = _add_up(err, _mul_up(abs(m), power.error))
        if a.rad:
            err = _add_up(err, _mul_up(a.rad, mag(k)))
    err = _add_up(err, _grown(slack, products))
    return PolynomialModel(powers[0].vars, out, err, powers[0].max_degree)


def _pow_model(base: PolynomialModel, n: int, recip: Callable) -> PolynomialModel:
    if n == 0:
        return PolynomialModel.constant(1.0, base.vars, base.max_degree)
    if n < 0:
        return _pow_model(recip(base), -n, recip)
    result = None
    power = base
    while n:
        if n & 1:
            result = power if result is None else result * power
        n >>= 1
        if n:
            power = power * power
    return result


def _model_div(a: PolynomialModel, b: PolynomialModel, recip: Callable) -> PolynomialModel:
    v = b._scalar()
    if v is not None:  # an exact constant: scale
        if v == 0.0:
            raise IntervalDomainError("division by a zero model")
        return a.scale(1.0 / v).add_error(_grown(abs(1.0 / v) * _EPS))
    return a * recip(b)


_MODEL_OPS = {
    **symexpr.ARITH_OPS,
    symexpr.Const: lambda v, args: PolynomialModel.constant(v, args[0].vars, args[0].max_degree),
}
# the memo key of a memo's op table: no node id (an int) takes it
_OPS_KEY = "ops"


def _memo_ops(memo: dict) -> dict:
    """The fold's op table for one memo, built once and kept in it: its
    sin, cos, exp and reciprocal (of Div and negative Pow) of one inner
    model share one _PowerTable."""
    ops = memo.get(_OPS_KEY)
    if ops is None:
        tables: dict[int, _PowerTable] = {}

        def series(kind):
            def compose(inner):
                table = tables.get(id(inner))
                if table is None:
                    table = tables[id(inner)] = _PowerTable(inner)
                return _compose_elementary(kind, table)

            return compose

        recip = series("recip")
        ops = memo[_OPS_KEY] = {
            **_MODEL_OPS,
            symexpr.Div: lambda a, b: _model_div(a, b, recip),
            symexpr.Pow: lambda base, n: _pow_model(base, n, recip),
            symexpr.Sin: series("sin"),
            symexpr.Cos: series("cos"),
            symexpr.Exp: series("exp"),
        }
    return ops


def compose_expr(
    e: Expr,
    args: VectorModel | Sequence[PolynomialModel],
    memo: dict | None = None,
) -> PolynomialModel:
    """Evaluate an expression over polynomial-model arguments, producing an
    enclosure of the composition: symexpr.fold over models, where sums,
    products and integer powers are model arithmetic, sin/cos/exp and
    reciprocals are Taylor compositions with a Lagrange remainder, and a
    division by an exact constant model (such as a Const node's) is a
    scaling, as is a product with one (PolynomialModel.__mul__).

    Each distinct subexpression node is composed once, and its model is
    kept in memo (see symexpr.fold).  Calls over the same args that pass one
    memo share the subterms they hold as one object (as InputAffineSystem
    interns its fields): the fields of one Picard iterate compose sin(x3)
    once, however many of them contain it.  The memo also holds one power
    table per inner model that some composition expands (Makino & Berz,
    2003: f(inner) = sum a_k delta^k with delta = inner - c), so sin(x3)
    and cos(x3) share the range of x3, c, the powers of delta and their
    ranges.  Shared subterms and tables are reused as they are, so every
    result is bit-identical to composing its expression alone.
    """
    models = tuple(args) if not isinstance(args, VectorModel) else args.components
    if not models:
        raise ValueError("composition needs at least one argument model")
    if memo is None:
        memo = {}
    return symexpr.fold(e, models, _memo_ops(memo), memo)
