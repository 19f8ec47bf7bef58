import math
import operator
import random
import struct
import sys
from fractions import Fraction

import mpmath
import pytest

from direach.interval import (
    _add_down,
    _add_up,
    _div_down,
    _div_up,
    _mul_down,
    _mul_up,
    Box,
    Interval,
    IntervalDomainError,
    iv_cos,
    iv_exp,
    iv_sin,
)
from norm_reference import lognorm_inf, mat_inf_norm

ULP = 2.220446049250313e-16


def test_add_exact_endpoints():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)


def test_mul_sign_cases():
    assert Interval(-1, 2) * Interval(-1, 2) == Interval(-2, 4)
    assert Interval(2, 3) * Interval(-5, -4) == Interval(-15, -8)
    assert Interval(-3, -2) * Interval(-5, -4) == Interval(8, 15)


def test_div_encloses_exact_rational():
    r = Interval(1, 1) / Interval(3, 3)
    third = Fraction(1, 3)
    assert Fraction(r.lo) < third < Fraction(r.hi)
    assert r.hi - r.lo <= 2 * ULP


def test_div_by_zero_straddler_raises():
    with pytest.raises(IntervalDomainError):
        Interval(1, 2) / Interval(-1, 1)


def test_exp_examples():
    r = iv_exp(Interval(0, 0))
    assert r.contains(1.0) and r.width <= 2 * ULP

    r = iv_exp(Interval(0.027, 0.027))
    v = mpmath.exp(mpmath.mpf(0.027))
    assert mpmath.mpf(r.lo) <= v <= mpmath.mpf(r.hi)
    assert abs(r.mid - 1.0273678) < 1e-7

    r = iv_exp(Interval(-1, 1))
    assert mpmath.mpf(r.lo) <= mpmath.exp(-1) and mpmath.exp(1) <= mpmath.mpf(r.hi)


def test_exp_rejects_infinite():
    with pytest.raises(ValueError):
        iv_exp(Interval(0, math.inf))


def test_exp_overflow_gives_infinite_bounds():
    """math.exp overflows above about 709.7827; the upper bound is then
    infinite and the lower bound the largest double, never an
    OverflowError.  Just below the threshold both bounds are finite."""
    r = iv_exp(Interval(0, 709.9))
    assert r.lo == 1.0 and r.hi == math.inf
    r = iv_exp(Interval(709.9, 710.5))
    assert r.lo == sys.float_info.max and r.hi == math.inf
    r = iv_exp(Interval(709.78, 709.78))
    assert math.isfinite(r.hi) and r.lo <= mpmath.exp(mpmath.mpf(709.78)) <= r.hi


def _point_matrix(values):
    return tuple(tuple(Interval.point(float(v)) for v in row) for row in values)


def test_mat_inf_norm_examples():
    m = _point_matrix([[0, 1], [-1, 0]])
    assert mat_inf_norm(m) == 1.0
    z = _point_matrix([[0, 0], [0, 0]])
    assert mat_inf_norm(z) == 0.0
    # Jacobian-style matrix with an interval entry of magnitude 25
    vdp = (
        (Interval.point(0.0), Interval.point(1.0)),
        (Interval(-25, 7), Interval(-6, 2)),
    )
    assert mat_inf_norm(vdp) == 31.0


def test_lognorm_examples():
    m = _point_matrix([[0, 1], [-1, 0]])
    assert lognorm_inf(m) == 1.0
    d = _point_matrix([[-2, 0], [0, -3]])
    assert lognorm_inf(d) == -2.0
    vdp = (
        (Interval.point(0.0), Interval.point(1.0)),
        (Interval(-25, 7), Interval(-6, 2)),
    )
    assert lognorm_inf(vdp) == 27.0


def test_even_power_rule():
    assert Interval(-1, 2) ** 2 == Interval(0, 4)
    assert (Interval(-3, -2) ** 2).lo == 4.0
    assert (Interval(-2, 3) ** 3).contains_interval(Interval(-8, 27))


def _rand_interval(rng, scale=1e3):
    a = rng.uniform(-scale, scale)
    b = rng.uniform(-scale, scale)
    return Interval(min(a, b), max(a, b))


def _rand_point_in(iv, rng):
    if iv.lo == iv.hi:
        return iv.lo
    return iv.lo + rng.random() * (iv.hi - iv.lo)


N_FUZZ = 100_000


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_soundness_fuzz(op):
    rng = random.Random(hash(op) & 0xFFFF)
    for _ in range(N_FUZZ):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        if op == "div" and b.lo <= 0.0 <= b.hi:
            b = Interval(b.lo + 2e3, b.hi + 2e3) if rng.random() < 0.5 else Interval(b.lo - 2e3, b.hi - 2e3)
            if b.lo <= 0.0 <= b.hi:
                continue
        x = _rand_point_in(a, rng)
        y = _rand_point_in(b, rng)
        if op == "add":
            r, v = a + b, x + y
        elif op == "sub":
            r, v = a - b, x - y
        elif op == "mul":
            r, v = a * b, x * y
        else:
            r, v = a / b, x / y
        assert r.lo <= v <= r.hi, (op, a, b, x, y, r, v)


def test_monotonicity_fuzz():
    rng = random.Random(7)
    for _ in range(10_000):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        aw = a.inflate(rng.random())
        bw = b.inflate(rng.random())
        assert aw.contains_interval(a) and bw.contains_interval(b)
        assert (aw + bw).contains_interval(a + b)
        assert (aw - bw).contains_interval(a - b)
        assert (aw * bw).contains_interval(a * b)


def test_lognorm_below_norm_fuzz():
    rng = random.Random(11)
    for _ in range(2_000):
        n = rng.randint(1, 4)
        rows = tuple(
            tuple(_rand_interval(rng, 10.0) for _ in range(n)) for _ in range(n)
        )
        assert lognorm_inf(rows) <= mat_inf_norm(rows)


def test_trig_soundness_fuzz():
    rng = random.Random(13)
    for _ in range(10_000):
        a = _rand_interval(rng, 8.0)
        x = _rand_point_in(a, rng)
        s = iv_sin(a)
        c = iv_cos(a)
        assert s.lo <= math.sin(x) <= s.hi
        assert c.lo <= math.cos(x) <= c.hi
        assert -1.0 <= s.lo and s.hi <= 1.0


def test_exp_soundness_fuzz():
    rng = random.Random(17)
    for _ in range(10_000):
        a = _rand_interval(rng, 30.0)
        x = _rand_point_in(a, rng)
        r = iv_exp(a)
        assert r.lo <= math.exp(x) <= r.hi


def test_pow_soundness_fuzz():
    rng = random.Random(19)
    for _ in range(10_000):
        a = _rand_interval(rng, 20.0)
        n = rng.randint(0, 6)
        x = _rand_point_in(a, rng)
        r = a**n
        assert r.lo <= x**n <= r.hi


def test_box_basics():
    b = Box.from_bounds([(0, 1), (0, 3)])
    assert b.widths == (1.0, 3.0)
    assert all(c.contains(v) for c, v in zip(b, (0.5, 2.9)))
    assert not all(c.contains(v) for c, v in zip(b, (1.1, 0.0)))
    assert b.hull(Box.from_bounds([(2, 2.5), (-1, 0)])) == Box.from_bounds([(0, 2.5), (-1, 3)])


def test_norm_rejects_infinite_entries():
    m = ((Interval(0, math.inf),),)
    with pytest.raises(ValueError):
        mat_inf_norm(m)
    with pytest.raises(ValueError):
        lognorm_inf(m)


_MAX = sys.float_info.max


def _reference(op, a, b, up):
    """Nearest float at or above (up) or at or below the exact op(a, b), from
    an exact rational comparison with the float op(a, b); a result beyond
    the largest float goes to +-inf outward and to +-max inward.  With an
    infinite operand the float op(a, b), when not NaN, is the exact result."""
    p = op(a, b)
    if not (math.isfinite(a) and math.isfinite(b)):
        return p  # an infinite operand: the float result is exact
    exact = op(Fraction(a), Fraction(b))
    if math.isinf(p):
        if up:
            return math.inf if exact > 0 else -_MAX
        return _MAX if exact > 0 else -math.inf
    if up:
        return p if Fraction(p) >= exact else math.nextafter(p, math.inf)
    return p if Fraction(p) <= exact else math.nextafter(p, -math.inf)


def _rounding_outcomes(op, rounded_up, rounded_down, operands):
    """(kind, rounded) for every operand kind, after checking both rounded
    kernels against the rational reference."""
    seen = set()
    for kind, a, b in operands:
        up, down = rounded_up(a, b), rounded_down(a, b)
        assert up == _reference(op, a, b, True), (kind, a, b, up)
        assert down == _reference(op, a, b, False), (kind, a, b, down)
        seen.add((kind, up != down))
    return seen


# the operands at and next to the edges of the rounding kernels' fast paths
# (2**+-450) and of the float range: zeros, subnormals, the smallest normal,
# the largest float and infinities, at both signs
_EDGES = [
    s * x
    for m in (
        [math.nextafter(math.ldexp(1.0, e), d) for e in (-450, 450) for d in (0.0, math.inf)]
        + [math.ldexp(1.0, -450), math.ldexp(1.0, 450), 0.0, 5e-324, 2.5e-323, 2.0**-1022, _MAX, math.inf, 1.0, 3.0]
    )
    for s, x in ((1.0, m), (-1.0, m))
]


def _special_operands(op):
    """Every pair of edge operands whose op is defined: no NaN result, and
    for the quotient a finite nonzero divisor."""
    for a in _EDGES:
        for b in _EDGES:
            if op is operator.truediv and not (b and math.isfinite(b)):
                continue
            if not math.isnan(op(a, b)):
                yield "special", a, b


def _signed(rng, x):
    return x if rng.random() < 0.5 else -x


def _add_fuzz_operands(rng):
    """Operand pairs for the rounded sum, by kind."""
    for _ in range(3_000):
        # 26 significant bits each, at most 26 binades apart: the sum fits in 53 bits
        e = rng.randint(-1000, 900)
        a = math.ldexp(rng.randint(1, 2**26 - 1), e)
        b = math.ldexp(rng.randint(1, 2**26 - 1), e + rng.randint(-26, 26))
        yield "exact", _signed(rng, a), _signed(rng, b)
    for _ in range(2_000):
        # opposite signs within a factor 2 (Sterbenz), often equal: exact, often zero
        a = math.ldexp(rng.uniform(1, 2), rng.randint(-1074, 1023))
        b = a if rng.random() < 0.3 else min(_MAX, a * rng.uniform(0.5, 2.0))
        a = _signed(rng, a)
        yield "cancel", a, -math.copysign(b, a)
    for _ in range(2_000):
        # two subnormals share one exponent: the sum is exact
        a, b = (rng.randint(1, 2**52 - 1) * 5e-324 for _ in range(2))
        yield "subnormal-pair", _signed(rng, a), _signed(rng, b)
    for _ in range(2_000):
        # a subnormal plus a normal a few binades up: the subnormal's low bits round
        a = rng.randint(1, 2**52 - 1) * 5e-324
        b = math.ldexp(rng.uniform(1, 2), rng.randint(-1022, -960))
        yield "subnormal", _signed(rng, a), _signed(rng, b)
    for _ in range(2_000):
        # the same sign, the sum within an ulp or two of the largest float:
        # rounds to +-max or overflows
        a = _MAX
        for _ in range(rng.randint(0, 2)):
            a = math.nextafter(a, 0.0)
        b = math.ldexp(rng.uniform(0.0, 4.0), 970)
        sign = rng.choice((1.0, -1.0))
        yield "near-max", sign * a, sign * b
    for _ in range(10_000):
        # random bit patterns over the whole finite range
        a, b = (struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(2))
        if math.isfinite(a) and math.isfinite(b):
            yield "random", a, b


def test_add_rounding_matches_rational_reference():
    operands = list(_add_fuzz_operands(random.Random(19)))
    seen = _rounding_outcomes(operator.add, _add_up, _add_down, operands + list(_special_operands(operator.add)))
    kinds = {k for k, _ in seen}
    exact_kinds = {"exact", "cancel", "subnormal-pair"}
    assert kinds == exact_kinds | {"subnormal", "near-max", "random", "special"}
    # the exact kinds never round; every other kind did
    assert all((k, True) not in seen for k in exact_kinds)
    assert all((k, True) in seen for k in kinds - exact_kinds)
    # the near-max sums both stay finite and overflow, at both signs
    near_max = [a + b for k, a, b in operands if k == "near-max"]
    assert {math.copysign(1.0, s) for s in near_max if math.isinf(s)} == {1.0, -1.0}
    assert {math.copysign(1.0, s) for s in near_max if math.isfinite(s)} == {1.0, -1.0}
    assert any(a + b == 0.0 for k, a, b in operands if k == "cancel")


def _mul_fuzz_operands(rng):
    """Operand pairs for the rounded product, by kind."""
    edges = []
    for e in (-450, 450):
        p = math.ldexp(1.0, e)
        edges += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    for _ in range(3_000):
        # one operand just inside or outside 2**+-450, the other anywhere
        a = rng.choice(edges) if rng.random() < 0.3 else math.ldexp(rng.uniform(1, 2), rng.choice((-451, -450, 449, 450)))
        b = math.ldexp(rng.uniform(1, 2), rng.randint(-600, 560))
        yield "edge-450", _signed(rng, a), _signed(rng, b)
    for _ in range(3_000):
        # subnormal times anything: subnormal, tiny or normal products
        a = rng.randint(1, 2**52 - 1) * 5e-324
        b = math.ldexp(rng.uniform(1, 2), rng.randint(-60, 1023)) if rng.random() < 0.8 else rng.randint(1, 2**20) * 5e-324
        yield "subnormal", _signed(rng, a), _signed(rng, b)
    for _ in range(1_000):
        # a power of two times anything is exact unless it leaves the normal range
        a = math.ldexp(1.0, rng.randint(-1074, 1023))
        b = math.ldexp(rng.uniform(1, 2), rng.randint(-1022, 1023))
        yield "power-of-two", _signed(rng, a), _signed(rng, b)
    for _ in range(3_000):
        # at most 26 significant bits each: the product is exact
        a = math.ldexp(rng.randint(1, 2**26 - 1), rng.randint(-500, 470))
        b = math.ldexp(rng.randint(1, 2**26 - 1), rng.randint(-500, 470))
        yield "exact", _signed(rng, a), _signed(rng, b)
    for _ in range(3_000):
        # products within an ulp or two of the largest float
        a = math.ldexp(rng.uniform(1, 2), rng.randint(0, 1022))
        b = _MAX / a
        for _ in range(rng.randint(0, 2)):
            b = math.nextafter(b, rng.choice((0.0, math.inf)))
        yield "near-max", _signed(rng, a), _signed(rng, b)
    for _ in range(10_000):
        # random bit patterns over the whole finite range
        a, b = (struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(2))
        if math.isfinite(a) and math.isfinite(b):
            yield "random", a, b


def test_mul_rounding_matches_rational_reference():
    operands = [*_mul_fuzz_operands(random.Random(23)), *_special_operands(operator.mul)]
    seen = _rounding_outcomes(operator.mul, _mul_up, _mul_down, operands)
    # the exact kind never rounds; the kinds that can round did
    kinds = {k for k, _ in seen}
    assert kinds == {"edge-450", "subnormal", "power-of-two", "exact", "near-max", "random", "special"}
    assert ("exact", True) not in seen
    assert all((k, True) in seen for k in kinds - {"exact", "power-of-two"})


def test_mul_rounding_nan_and_zero_times_inf():
    # a NaN operand gives NaN in either direction, as the rounded sum does
    for a, b in ((math.nan, 2.0), (2.0, math.nan), (math.nan, 0.0), (math.inf, math.nan), (math.nan, math.nan)):
        assert math.isnan(_mul_up(a, b)) and math.isnan(_mul_down(a, b))
    assert math.isnan(_add_up(math.nan, 1.0))
    # 0 * inf endpoint candidates bound the product by 0
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-0.0, math.inf)):
        assert _mul_up(a, b) == 0.0 and _mul_down(a, b) == 0.0


def _div_fuzz_operands(rng):
    """Dividend/divisor pairs for the rounded quotient, by kind."""
    edges = []
    for e in (-450, 450):
        p = math.ldexp(1.0, e)
        edges += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]

    def near_edge():
        return rng.choice(edges) if rng.random() < 0.3 else math.ldexp(rng.uniform(1, 2), rng.choice((-451, -450, 449, 450)))

    for _ in range(3_000):
        # dividend, divisor or quotient just inside or outside 2**+-450
        x = math.ldexp(rng.uniform(1, 2), rng.randint(-600, 560))
        which = rng.randrange(3)
        if which == 0:
            a, b = near_edge(), x
        elif which == 1:
            a, b = x, near_edge()
        else:
            a, b = near_edge() * x, x
            if a == 0.0 or math.isinf(a):
                continue
        yield "edge-450", _signed(rng, a), _signed(rng, b)
    for _ in range(3_000):
        # a subnormal dividend or divisor: subnormal, tiny, normal or huge quotients
        s = rng.randint(1, 2**52 - 1) * 5e-324
        x = math.ldexp(rng.uniform(1, 2), rng.randint(-60, 1023)) if rng.random() < 0.8 else rng.randint(1, 2**20) * 5e-324
        a, b = (s, x) if rng.random() < 0.5 else (x, s)
        yield "subnormal", _signed(rng, a), _signed(rng, b)
    for _ in range(3_000):
        # a dividend below 2**-450 over a divisor that puts the quotient in range
        a = math.ldexp(rng.uniform(1, 2), rng.randint(-1022, -451))
        e = math.frexp(a)[1]
        b = math.ldexp(rng.uniform(1, 2), e - rng.randint(-440, min(440, e + 1021)))
        yield "tiny-a", _signed(rng, a), _signed(rng, b)
    for _ in range(3_000):
        # quotient and divisor of at most 26 significant bits: the quotient is exact
        q = math.ldexp(rng.randint(1, 2**26 - 1), rng.randint(-500, 470))
        b = math.ldexp(rng.randint(1, 2**26 - 1), rng.randint(-500, 470))
        yield "exact", _signed(rng, q * b), _signed(rng, b)
    for _ in range(10_000):
        # random bit patterns over the whole finite range
        a, b = (struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(2))
        if math.isfinite(a) and math.isfinite(b) and b != 0.0:
            yield "random", a, b


def test_div_rounding_matches_rational_reference():
    operands = [*_div_fuzz_operands(random.Random(29)), *_special_operands(operator.truediv)]
    seen = _rounding_outcomes(operator.truediv, _div_up, _div_down, operands)
    # the exact kind never rounds; every other kind did
    kinds = {k for k, _ in seen}
    assert kinds == {"edge-450", "subnormal", "tiny-a", "exact", "random", "special"}
    assert ("exact", True) not in seen
    assert all((k, True) in seen for k in kinds - {"exact"})
