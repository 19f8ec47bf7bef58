"""Sound interval arithmetic with software outward rounding.

Endpoints are IEEE doubles.  Every operation returns an interval containing
the exact real result set; endpoints are nudged to the next representable
value only when a computation is inexact, so small-integer arithmetic stays
exact.  The sign of the rounding error is found with error-free
transformations: Knuth's two-sum for addition and Dekker's two-product for
multiplication, and for division the two-product of the quotient and the
divisor, whose residual gives the sign of a - q*b; an exact rational
comparison takes over where the two-product could overflow or underflow.

Only the upward roundings are written out.  Round-to-nearest is symmetric
under negation, fl(-x) = -fl(x), and an error-free residual flips its sign
with its operands, so each downward rounding is its upward twin negated:
down(a + b) = -up(-a - b), down(a*b) = -up(-a*b), down(a/b) = -up(-a/b).
It is computed as 0.0 - up(...), not -up(...), so that a zero bound is
+0.0, as fl gives for an exact cancellation.  The other modules round
through these functions (symexpr's exact constant folding too).

Interval and Box, like the library's other values (the expression nodes,
the variable and vector models, the step data), are immutable slotted
classes built on _Immutable, the lowest module's base for them, so that
building one costs little more than setting its slots.
"""
from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "Interval",
    "Box",
    "IntervalDomainError",
    "iv_exp",
    "iv_sin",
    "iv_cos",
]

_INF = math.inf
_MAX = sys.float_info.max
_TINY = 5e-324
_EPS = 2.220446049250313e-16
# Veltkamp's splitting constant 2**27 + 1, and the operand magnitudes for which
# Dekker's two-product is exact: the split cannot overflow and no partial
# product underflows
_SPLIT = 134217729.0
_TWO_PROD_LO = 2.0**-450
_TWO_PROD_HI = 2.0**450


class IntervalDomainError(ArithmeticError, ValueError):
    """Operation undefined on its operands: division by a 0-straddling
    interval, a non-finite argument where finite endpoints are needed, or
    polynomial-model arithmetic that overflowed."""


class _Immutable:
    """Base of the library's immutable values: slotted classes with value
    semantics that cost little more to build than setting their slots.

    A subclass names its fields in __slots__, in the order of its
    __init__'s parameters, and its __init__ sets them with
    object.__setattr__; a slot whose name starts with _ is a cache, set to
    None there, and not a field.  The base gives:
    - FrozenInstanceError on assigning or deleting an attribute;
    - equality with instances of the same class only, field by field, and a
      hash over the fields (TypeError when a field is unhashable);
    - the repr ClassName(field=value, ...);
    - a __reduce__ that rebuilds through __init__, for copy, deepcopy and
      pickle.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("_"))
        cls._fields = cls._fields + own

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


_set = object.__setattr__


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


_nextafter = math.nextafter
_isfinite = math.isfinite


def _add_up(a: float, b: float) -> float:
    s = a + b
    if _isfinite(s):
        # two-sum residual; a non-finite t leaves it NaN, which rounds up
        t = s - a
        return s if (a - (s - t)) + (b - t) <= 0.0 else _nextafter(s, _INF)
    if math.isinf(s) and not (math.isinf(a) or math.isinf(b)):
        return _INF if s > 0 else -_MAX
    return s


def _add_down(a: float, b: float) -> float:
    return 0.0 - _add_up(-a, -b)


def _mul_up(a: float, b: float) -> float:
    p = a * b
    if _TWO_PROD_LO < abs(a) < _TWO_PROD_HI and _TWO_PROD_LO < abs(b) < _TWO_PROD_HI:
        # Dekker's two-product: the exact residual a*b - p
        t = _SPLIT * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        return _nextafter(p, _INF) if al * bl - (((p - ah * bh) - al * bh) - ah * bl) > 0 else p
    if math.isnan(p):
        # a NaN operand stays NaN; 0 * inf endpoint candidates give 0
        return p if math.isnan(a) or math.isnan(b) else 0.0
    if math.isinf(p):
        if math.isinf(a) or math.isinf(b):
            return p
        return _INF if p > 0 else -_MAX
    if a == 0.0 or b == 0.0:
        return 0.0
    if p == 0.0:
        # nonzero product underflowed
        return _TINY if (a > 0.0) == (b > 0.0) else 0.0
    if math.isinf(a) or math.isinf(b):
        return p
    # outside the two-product's range: an exact rational residual
    if Fraction(a) * Fraction(b) > Fraction(p):
        return _up(p)
    return p


def _mul_down(a: float, b: float) -> float:
    return 0.0 - _mul_up(-a, b)


def _div_up(a: float, b: float) -> float:
    # caller guarantees b != 0
    q = a / b
    if (
        _TWO_PROD_LO < abs(a) < _TWO_PROD_HI
        and _TWO_PROD_LO < abs(b) < _TWO_PROD_HI
        and _TWO_PROD_LO < abs(q) < _TWO_PROD_HI
    ):
        # r has the sign of a - q*b (the quotient is above q when r and b
        # share it): p = fl(q*b) is within a factor 2 of a, so a - p is
        # exact (Sterbenz), less the exact two-product residual
        p = q * b
        t = _SPLIT * q
        qh = t - (t - q)
        ql = q - qh
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        r = (a - p) - (ql * bl - (((p - qh * bh) - ql * bh) - qh * bl))
        return _nextafter(q, _INF) if r != 0 and (r > 0) == (b > 0.0) else q
    if math.isnan(q):
        return _INF
    if math.isinf(q):
        if math.isinf(a):
            return q
        return _INF if q > 0 else -_MAX
    if a == 0.0:
        return 0.0
    if math.isinf(b):
        return 0.0 if (a > 0.0) != (b > 0.0) else _TINY
    if q == 0.0:
        return _TINY if (a > 0.0) == (b > 0.0) else 0.0
    r = Fraction(a) - Fraction(q) * Fraction(b)
    if r != 0 and (r > 0) == (b > 0.0):
        return _up(q)
    return q


def _div_down(a: float, b: float) -> float:
    return 0.0 - _div_up(-a, b)


def _pow(x: float, n: int, mul) -> float:
    # x >= 0, n >= 0; x**n by binary exponentiation with the rounded product mul
    r = 1.0
    base = x
    while n:
        if n & 1:
            r = mul(r, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return r


def _pow_up(x: float, n: int) -> float:
    return _pow(x, n, _mul_up)


def _pow_down(x: float, n: int) -> float:
    return _pow(x, n, _mul_down)


def _exp_up(x: float) -> float:
    if x == 0.0:
        return 1.0
    try:
        v = math.exp(x)
    except OverflowError:
        return _INF
    if math.isinf(v):
        return _INF
    return _up(_up(v))


def _exp_down(x: float) -> float:
    if x == 0.0:
        return 1.0
    try:
        v = math.exp(x)
    except OverflowError:
        return _MAX
    return max(0.0, _down(_down(v)))


class Interval(_Immutable):
    """Closed interval [lo, hi]; endpoints may be +-inf but never NaN.
    An immutable slotted value (see _Immutable)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        # lo <= hi is false when either is NaN, so one chain accepts every
        # valid pair
        if not _INF > lo <= hi > -_INF:
            if math.isnan(lo) or math.isnan(hi) or lo > hi:
                raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
            raise ValueError("interval may not be a point at infinity")
        # the slot descriptors' setters: the fastest way past __setattr__
        _set_lo(self, lo)
        _set_hi(self, hi)

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def width(self) -> float:
        return _add_up(self.hi, -self.lo)

    @property
    def mid(self) -> float:
        if not self.is_finite:
            return 0.0
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    @property
    def rad(self) -> float:
        # upper bound of max distance from mid to an endpoint
        m = self.mid
        return max(_add_up(m, -self.lo), _add_up(self.hi, -m))

    @property
    def mag(self) -> float:
        """sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """inf |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def inflate(self, r: float) -> "Interval":
        if r < 0:
            raise ValueError("inflation radius must be nonnegative")
        return Interval(_add_down(self.lo, -r), _add_up(self.hi, r))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(float(other))

    def __add__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        return Interval(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        return Interval(_add_down(self.lo, -o.hi), _add_up(self.hi, -o.lo))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        al, ah, bl, bh = self.lo, self.hi, o.lo, o.hi
        if al >= 0.0:
            if bl >= 0.0:
                return Interval(_mul_down(al, bl), _mul_up(ah, bh))
            if bh <= 0.0:
                return Interval(_mul_down(ah, bl), _mul_up(al, bh))
            return Interval(_mul_down(ah, bl), _mul_up(ah, bh))
        if ah <= 0.0:
            if bl >= 0.0:
                return Interval(_mul_down(al, bh), _mul_up(ah, bl))
            if bh <= 0.0:
                return Interval(_mul_down(ah, bh), _mul_up(al, bl))
            return Interval(_mul_down(al, bh), _mul_up(al, bl))
        if bl >= 0.0:
            return Interval(_mul_down(al, bh), _mul_up(ah, bh))
        if bh <= 0.0:
            return Interval(_mul_down(ah, bl), _mul_up(al, bl))
        return Interval(
            min(_mul_down(al, bh), _mul_down(ah, bl)),
            max(_mul_up(al, bl), _mul_up(ah, bh)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise IntervalDomainError(f"division by interval containing zero: {o}")
        if o.lo > 0.0:
            al, ah, bl, bh = self.lo, self.hi, o.lo, o.hi
            lo = _div_down(al, bh if al >= 0.0 else bl)
            hi = _div_up(ah, bl if ah >= 0.0 else bh)
            return Interval(lo, hi)
        return -(self / (-o))

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            raise TypeError("interval powers take integer exponents")
        if n < 0:
            return Interval.point(1.0) / (self ** (-n))
        if n == 0:
            return Interval.point(1.0)
        if n == 1:
            return self
        al, ah = self.lo, self.hi
        if n % 2 == 0:
            if al >= 0.0:
                return Interval(_pow_down(al, n), _pow_up(ah, n))
            if ah <= 0.0:
                return Interval(_pow_down(-ah, n), _pow_up(-al, n))
            return Interval(0.0, _pow_up(max(-al, ah), n))
        if al >= 0.0:
            return Interval(_pow_down(al, n), _pow_up(ah, n))
        if ah <= 0.0:
            return Interval(-_pow_up(-al, n), -_pow_down(-ah, n))
        return Interval(-_pow_up(-al, n), _pow_up(ah, n))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def iv_exp(a: Interval) -> Interval:
    if not a.is_finite:
        raise IntervalDomainError("iv_exp requires finite endpoints")
    return Interval(_exp_down(a.lo), _exp_up(a.hi))


_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def _trig_endpoint(fn, x: float, exact0: float) -> Interval:
    if x == 0.0:
        return Interval.point(exact0)
    v = fn(x)
    return Interval(_down(_down(v)), _up(_up(v)))


def _trig(a: Interval, fn, exact0: float, max_offset: float, min_offset: float) -> Interval:
    if not a.is_finite:
        raise IntervalDomainError("trigonometric range requires finite endpoints")
    if a.hi - a.lo >= 6.3:
        return Interval(-1.0, 1.0)
    r = _trig_endpoint(fn, a.lo, exact0)
    if a.hi != a.lo:
        r = r.hull(_trig_endpoint(fn, a.hi, exact0))
    tol = 32.0 * _EPS * max(1.0, abs(a.lo), abs(a.hi))
    for offset, extreme in ((max_offset, 1.0), (min_offset, -1.0)):
        k0 = math.floor((a.lo - offset) / _TWO_PI) - 1
        k1 = math.ceil((a.hi - offset) / _TWO_PI) + 1
        for k in range(int(k0), int(k1) + 1):
            x = offset + _TWO_PI * k
            if a.lo - tol <= x <= a.hi + tol:
                r = r.hull(Interval.point(extreme))
    return Interval(max(-1.0, r.lo), min(1.0, r.hi))


def iv_sin(a: Interval) -> Interval:
    return _trig(a, math.sin, 0.0, _HALF_PI, -_HALF_PI)


def iv_cos(a: Interval) -> Interval:
    return _trig(a, math.cos, 1.0, 0.0, math.pi)


class Box(_Immutable):
    """Cartesian product of intervals."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[Interval, ...]):
        if len(components) < 1:
            raise ValueError("box must have dimension >= 1")
        _set(self, "components", components)

    @staticmethod
    def from_bounds(bounds: Sequence[Sequence[float]]) -> "Box":
        return Box(tuple(Interval(float(lo), float(hi)) for lo, hi in bounds))

    @property
    def n(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    def __getitem__(self, i: int) -> Interval:
        return self.components[i]

    def __len__(self) -> int:
        return len(self.components)

    def contains_box(self, other: "Box") -> bool:
        return all(c.contains_interval(o) for c, o in zip(self.components, other.components, strict=True))

    def hull(self, other: "Box") -> "Box":
        return Box(tuple(c.hull(o) for c, o in zip(self.components, other.components, strict=True)))

    def inflate(self, radii: Sequence[float]) -> "Box":
        return Box(tuple(c.inflate(float(r)) for c, r in zip(self.components, radii, strict=True)))

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(c.width for c in self.components)

    def __repr__(self) -> str:
        return "x".join(repr(c) for c in self.components)
