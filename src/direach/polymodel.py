"""Polynomial models: multivariate polynomials over the unit box plus a
uniform error bound, representing function enclosures.

A model (p, e) over [-1,1]^v stands for every function within e of p in the
sup norm.  All operations preserve that enclosure: coefficient arithmetic is
done in doubles and the rounding slack is pushed into e, degree-truncated
mass is pushed into e, and composition with elementary functions carries a
Lagrange remainder.

Exponent tuples are packed 4 bits per variable into a single int, so the
degree cap must stay <= 7 (monomial products then never overflow a nibble).

The product is truncated Taylor-model multiplication (Makino & Berz, 2003):
it multiplies only the term pairs whose total degree fits under the cap, so
its cost is the number of kept pairs (3,003 of 63,504 for two full
arity-5, cap-5 models).  The mass of the dropped pairs is bounded from
suffix sums of the right operand's coefficient magnitudes by degree, which
are built by addition only, so cancellation cannot under-count it.  A
product with an exact constant (no error, no term but the constant one) is
a scaling.

compose_expr expands sin, cos, exp and reciprocals about the midpoint c of
the argument's range as sum a_k (inner - c)^k plus a Lagrange remainder.
One power table per argument model and memo holds c, the powers of
inner - c and their ranges, so every function of one argument shares them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

from .interval import Interval, Box, IntervalDomainError, iv_cos, iv_exp, iv_sin, _add_up, _mul_up
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

_EPS = 2.220446049250313e-16
_TINY = 5e-324
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


def _grown(slack: float) -> float:
    """Sound upper bound for a plain-float accumulated slack sum."""
    if slack == 0.0:
        return 0.0
    return slack * _SLACK_INFLATE + _TINY


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
        return self + (-other)

    def __mul__(self, other: "PolynomialModel") -> "PolynomialModel":
        """Truncated product: only term pairs whose degree fits under the cap
        are multiplied, so the cost is the number of kept pairs, not
        len(self.terms) * len(other.terms).

        A left term of degree d1 pairs with the right terms of degree
        <= cap - d1 (in the right operand's term order, so the result is the
        same as expanding every pair); the rest of its row is dropped and
        bounded by |c1| times the mass of the right terms above cap - d1.
        Those masses are suffix sums over the right terms grouped by degree,
        built by addition only: "total minus kept" would cancel and could
        under-count the dropped mass.

        An exact constant operand (no error, no term but the constant one),
        such as the 0.3 of 0.3*sin(x3), is a scalar: the product is the
        other operand's scale by it, which skips the pair loop and does not
        charge the constant's poly_magnitude inflation to the other's error.
        Terms of the other operand above the cap still drop into the error.
        """
        self._check_compat(other)
        s = self._scalar()
        if s is not None:
            return other.truncate(other.max_degree).scale(s)
        s = other._scalar()
        if s is not None:
            return self.truncate(self.max_degree).scale(s)
        cap = self.max_degree
        out: dict[int, float] = {}
        slack = 0.0
        dropped = 0.0
        if self.terms:
            right = [(k2, c2, _degree_of(k2)) for k2, c2 in other.terms.items()]
            # above[r + 1]: |c| mass of the right terms of degree > r, r = -1..cap
            above = [0.0] * (cap + 2)
            for _, c2, d2 in right:
                above[d2 if d2 <= cap else cap + 1] += abs(c2)
            for r in range(cap, -1, -1):
                above[r] += above[r + 1]
            rows: dict[int, list[tuple[int, float]]] = {}
            for k1, c1 in self.terms.items():
                r = cap - _degree_of(k1)
                if r < 0:
                    dropped += abs(c1) * above[0]
                    continue
                if above[r + 1]:
                    dropped += abs(c1) * above[r + 1]
                row = rows.get(r)
                if row is None:
                    row = rows[r] = [(k2, c2) for k2, c2, d2 in right if d2 <= r]
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
        pa = self.poly_magnitude()
        pb = other.poly_magnitude()
        e = _mul_up(pa, other.error)
        e = _add_up(e, _mul_up(pb, self.error))
        e = _add_up(e, _mul_up(self.error, other.error))
        e = _add_up(e, _grown(dropped))
        e = _add_up(e, _grown(slack))
        return PolynomialModel(self.vars, out, e, self.max_degree)

    def _scalar(self) -> float | None:
        """The value of an exact constant model (no error, no term but the
        constant one), else None."""
        if not self.error and self.terms.keys() <= {0}:
            return self.terms.get(0, 0.0)
        return None

    def scale(self, s: float) -> "PolynomialModel":
        if s == 0.0:
            return PolynomialModel.constant(0.0, self.vars, self.max_degree)
        out = {}
        slack = 0.0
        for k, c in self.terms.items():
            v = c * s
            out[k] = v
            slack += abs(v) * _EPS
        e = _add_up(_mul_up(abs(s), self.error), _grown(slack))
        return PolynomialModel(self.vars, out, e, self.max_degree)

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
        return s * _SLACK_INFLATE + _TINY if s else 0.0

    # ------------------------------------------------------------------ range
    def range(self) -> Interval:
        """Enclosure of {p(z)+d : z in unit box, |d| <= error}: monomials with
        any odd exponent span [-1,1], all-even ones [0,1]."""
        if self.error == math.inf:  # overflowed; its coefficients may be too
            return Interval(-math.inf, math.inf)
        terms = self.terms
        lo = hi = terms.get(0, 0.0)
        odd = _odd_mask(self.arity)
        for k, c in terms.items():
            if k == 0:
                continue
            a = abs(c)
            if k & odd:
                lo = -_add_up(-lo, a)
                hi = _add_up(hi, a)
            elif c >= 0:
                hi = _add_up(hi, c)
            else:
                lo = -_add_up(-lo, a)
        r = Interval(lo, hi)
        return r.inflate(self.error) if self.error else r

    # ------------------------------------------------------------------ structure ops
    def truncate(self, cap: int) -> "PolynomialModel":
        """Reduce the degree cap, folding removed mass (the terms above the
        new cap) into the error.  At the model's own cap this is self unless
        a term lies above it (only a model built from explicit terms can
        hold one)."""
        if cap > self.max_degree:
            return replace(self, max_degree=cap)
        if cap == self.max_degree and all(_degree_of(k) <= cap for k in self.terms):
            return self
        out = {}
        dropped = 0.0
        for k, c in self.terms.items():
            if _degree_of(k) > cap:
                dropped += abs(c)
            else:
                out[k] = c
        return PolynomialModel(self.vars, out, _add_up(self.error, _grown(dropped)), cap)

    def compress(self, threshold: float) -> "PolynomialModel":
        """Fold coefficients with |c| <= threshold into the error."""
        if threshold <= 0.0:
            return self
        out = {}
        dropped = 0.0
        for k, c in self.terms.items():
            if k != 0 and abs(c) <= threshold:
                dropped += abs(c)
            else:
                out[k] = c
        if not dropped:
            return self
        return PolynomialModel(self.vars, out, _add_up(self.error, _grown(dropped)), self.max_degree)

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
                swept = _add_up(swept, abs(c))
            else:
                out[k] = c
        e = _add_up(self.error, swept)
        m = PolynomialModel(self.vars, out, e, self.max_degree)
        if drop:
            keep = [i for i in range(self.arity) if i not in set(pos)]
            m = m.reindex(keep)
        return m

    def reindex(self, keep: Sequence[int]) -> "PolynomialModel":
        """Keep only the listed variable positions (they must be inert in
        dropped positions); re-pack keys accordingly."""
        keep = list(keep)
        new_vars = tuple(self.vars[i] for i in keep)
        shift_of = {old: 4 * new for new, old in enumerate(keep)}
        dropped_mask = 0
        keep_set = set(keep)
        for i in range(self.arity):
            if i not in keep_set:
                dropped_mask |= 0xF << (4 * i)
        out = {}
        for k, c in self.terms.items():
            if k & dropped_mask:
                raise ValueError("cannot drop a variable the model still depends on")
            nk = 0
            kk = k
            pos = 0
            while kk:
                e = kk & 0xF
                if e:
                    nk |= e << shift_of[pos]
                kk >>= 4
                pos += 1
            out[nk] = c
        return PolynomialModel(new_vars, out, self.error, self.max_degree)

    def extend(self, new_vars: Sequence[VarInfo]) -> "PolynomialModel":
        """Append fresh (independent) variables; keys are unchanged."""
        return replace(self, vars=self.vars + tuple(new_vars))

    def substitute_unit(self, position: int, value: float) -> "PolynomialModel":
        """Substitute z_position := value with value in {-1.0, 1.0} (exact)."""
        if value not in (-1.0, 1.0):
            raise ValueError("substitute_unit only supports the endpoints -1 and 1")
        shift = 4 * position
        out: dict[int, float] = {}
        slack = 0.0
        for k, c in self.terms.items():
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
        m = PolynomialModel(self.vars, out, _add_up(self.error, _grown(slack)), self.max_degree)
        keep = [i for i in range(self.arity) if i != position]
        return m.reindex(keep)

    def affine_substitute(self, position: int, offset: float, scale: float) -> "PolynomialModel":
        """Substitute z_position := offset + scale * z_position."""
        shift = 4 * position
        out: dict[int, float] = {}
        slack = 0.0
        for k, c in self.terms.items():
            e = (k >> shift) & 0xF
            base = k & ~(0xF << shift)
            if e == 0:
                prev = out.get(k, 0.0)
                v = prev + c
                out[k] = v
                slack += abs(v) * _EPS
                continue
            for j in range(e + 1):
                coeff = c * math.comb(e, j) * (offset ** (e - j)) * (scale**j)
                if coeff == 0.0:
                    continue
                nk = base | (j << shift)
                prev = out.get(nk, 0.0)
                v = prev + coeff
                out[nk] = v
                slack += (abs(coeff) + abs(v)) * _EPS
        out = {k: c for k, c in out.items() if c != 0.0}
        return PolynomialModel(self.vars, out, _add_up(self.error, _grown(slack)), self.max_degree)

    def antiderivative(self, time_position: int) -> "PolynomialModel":
        """Integral from the interval start in the semantic time variable.

        The time variable has radius h/2; the result models
        t -> integral_{t_k}^{t} p(s) ds, and the error is multiplied by the
        full step length h.
        """
        info = self.vars[time_position]
        if info.role is not Role.TIME:
            raise ValueError("antiderivative requires the time variable")
        r = info.radius
        shift = 4 * time_position
        cap = self.max_degree
        out: dict[int, float] = {}
        slack = 0.0
        dropped = 0.0

        def acc(key: int, value: float):
            nonlocal slack
            if value == 0.0:
                return
            prev = out.get(key)
            if prev is None:
                out[key] = value
            else:
                v = prev + value
                if v == 0.0:
                    del out[key]
                else:
                    out[key] = v
                slack += abs(v) * _EPS

        for k, c in self.terms.items():
            e = (k >> shift) & 0xF
            coeff = c * r / (e + 1)
            slack += abs(coeff) * _EPS * 2
            # antiderivative term
            if _degree_of(k) + 1 > cap:
                dropped += abs(coeff)
            else:
                acc(k + (1 << shift), coeff)
            # subtract the value at tau = -1 (integral starts at t_k)
            acc(k & ~(0xF << shift), coeff if e % 2 == 0 else -coeff)

        h = 2.0 * r
        e_out = _mul_up(self.error, h)
        e_out = _add_up(e_out, _grown(dropped))
        e_out = _add_up(e_out, _grown(slack))
        return PolynomialModel(self.vars, out, e_out, self.max_degree)

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


def _factorial(k: int) -> float:
    return float(math.factorial(k))


def _series_coefficients(kind: str, c: float, rng: Interval, d: int) -> tuple[list[Interval], float]:
    """Taylor coefficients of the elementary function about c as intervals,
    plus an upper bound for the Lagrange remainder factor sup|f^(d+1)|/(d+1)!."""
    pt = Interval.point(c)
    if kind == "exp":
        base = iv_exp(pt)
        coeffs = [base / float(math.factorial(k)) for k in range(d + 1)]
        rem = iv_exp(rng).mag / _factorial(d + 1) * _SLACK_INFLATE
        return coeffs, rem
    if kind in ("sin", "cos"):
        s, co = iv_sin(pt), iv_cos(pt)
        cycle = [s, co, -s, -co] if kind == "sin" else [co, -s, -co, s]
        coeffs = [cycle[k % 4] / float(math.factorial(k)) for k in range(d + 1)]
        return coeffs, 1.0 / _factorial(d + 1) * _SLACK_INFLATE
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
    rng, the centre c = rng.mid, rho >= sup|inner - c|, the powers
    delta^0 .. delta^d of delta = inner - c (built on first use) and each
    power's range magnitude (computed on first use, that is, only when some
    series coefficient has a nonzero radius)."""

    __slots__ = ("inner", "rng", "c", "rho", "_powers", "_mags")

    def __init__(self, inner: PolynomialModel):
        self.inner = inner  # kept alive, so no other model takes its id
        self.rng = inner.range()
        self._powers = None
        if self.rng.is_finite:
            self.c = self.rng.mid
            rho = (self.rng - Interval.point(self.c)).mag
            self.rho = _add_up(rho, rho * 4 * _EPS)

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
    coeffs, rem_factor = _series_coefficients(kind, table.c, rng, d)
    powers = table.powers()
    result = PolynomialModel.constant(0.0, table.inner.vars, d)
    extra = 0.0
    for k, a in enumerate(coeffs):
        result = result + powers[k].scale(a.mid)
        half = a.rad
        if half:
            extra = _add_up(extra, _mul_up(half, table.mag(k)))
    rem = _mul_up(rem_factor, _pow_up_pos(table.rho, d + 1))
    return result.add_error(_add_up(extra, rem))


def _pow_up_pos(x: float, n: int) -> float:
    r = 1.0
    for _ in range(n):
        r = _mul_up(r, x)
    return r


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
