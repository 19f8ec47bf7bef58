import json
import math
import operator
import random
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from direach import symexpr
from direach.flow import local_rates
from direach.interval import Box, Interval, IntervalDomainError
from direach.localerr import _additive
from direach.mc import compile_field
from direach.symexpr import (
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    ExprSyntaxError,
    InputAffineSystem,
    Mul,
    Neg,
    Pow,
    Sin,
    Sub,
    Var,
    compute_bounds,
    diff,
    eval_interval,
    eval_point,
    parse,
)

VDP_D = Box.from_bounds([(0, 2), (-1, 3)])


def vdp_system(v=0.08):
    return InputAffineSystem(2, ["x2", "-x1 + 2*(1 - x1^2)*x2"], [["0", "1"]], [v])


def harmonic_system(a1=0.1, a2=0.1):
    return InputAffineSystem(2, ["x2", "-x1"], [["1", "0"], ["0", "1"]], [a1, a2])


def test_parse_variable():
    assert parse("x2") == Var(2)


def test_parse_vdp_component():
    e = parse("-x1 + 2*(1 - x1^2)*x2")
    for x1, x2 in [(0.0, 0.0), (1.5, -0.3), (-2.0, 1.0)]:
        assert eval_point(e, (x1, x2)) == pytest.approx(-x1 + 2 * (1 - x1**2) * x2, rel=1e-14)


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 *")
    assert "token 3" in str(exc.value)


def test_parse_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x1 + foo")
    assert "foo" in str(exc.value)


def test_parse_roundtrip_structural():
    texts = [
        "x2",
        "-x1 + 2*(1 - x1^2)*x2",
        "sin(x1)*cos(x2) + exp(x1/4)",
        "0.2 + x3*(x1 - 5.7)",
        "x1^3 - x2^2/(1 + x1^2)",
    ]
    for t in texts:
        e = parse(t)
        assert parse(str(e)) == e


def test_diff_product():
    assert diff(parse("x1*x2"), 1) == Var(2)


def test_diff_vdp_linear_in_x2():
    e = parse("-x1 + 2*(1 - x1^2)*x2")
    d = diff(e, 2)
    for x1 in [-1.0, 0.0, 0.5, 2.0]:
        assert eval_point(d, (x1, 123.0)) == pytest.approx(2 * (1 - x1**2), rel=1e-14)


def test_second_derivative_finite_difference():
    e = parse("-x1 + 2*(1 - x1^2)*x2")
    d2 = diff(diff(e, 1), 1)
    rng = random.Random(3)
    for _ in range(10):
        x1 = rng.uniform(-2, 2)
        x2 = rng.uniform(-2, 2)
        h = 1e-4
        fd = (
            eval_point(e, (x1 + h, x2)) - 2 * eval_point(e, (x1, x2)) + eval_point(e, (x1 - h, x2))
        ) / h**2
        assert eval_point(d2, (x1, x2)) == pytest.approx(fd, abs=1e-6)
        assert eval_point(d2, (x1, x2)) == pytest.approx(-4 * x2, rel=1e-12, abs=1e-12)


def _random_expr(rng, depth=0):
    choice = rng.random()
    if depth > 3 or choice < 0.25:
        if rng.random() < 0.5:
            return Var(rng.randint(1, 2))
        return Const(round(rng.uniform(-2, 2), 3))
    if choice < 0.4:
        return Add(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if choice < 0.5:
        return Sub(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if choice < 0.64:
        return Mul(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if choice < 0.72:
        return Div(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if choice < 0.78:
        return Neg(_random_expr(rng, depth + 1))
    if choice < 0.9:
        return Pow(_random_expr(rng, depth + 1), rng.choice((-3, -2, -1, 1, 2, 3)))
    kind = rng.choice([Sin, Cos, Exp])
    return kind(_random_expr(rng, depth + 1))


def _has(e, types):
    return isinstance(e, types) or any(_has(c, types) for c in e._values() if isinstance(c, Expr))


# a tree's value is undefined (or overflows) at some sample points
UNDEFINED = (OverflowError, ZeroDivisionError, IntervalDomainError)


def test_derivative_matches_finite_difference_fuzz():
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        e = _random_expr(rng)
        j = rng.randint(1, 2)
        d = diff(e, j)
        x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        h = 1e-6
        xp = list(x)
        xm = list(x)
        xp[j - 1] += h
        xm[j - 1] -= h
        try:
            fp, fm = eval_point(e, xp), eval_point(e, xm)
            fd = (fp - fm) / (2 * h)
            dv = eval_point(d, x)
        except UNDEFINED:
            continue
        # skip ill-conditioned samples where the central difference cancels
        if max(abs(fp), abs(fm), abs(dv)) > 1e3:
            continue
        assert dv == pytest.approx(fd, rel=1e-5, abs=1e-4)
        checked += 1


_MAX = math.nextafter(math.inf, 0.0)
# signed zeros, subnormals, the edge of exact integers, the largest float,
# an overflowed literal and NaN
FOLD_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, 2.0**-1023, 2.0**-1022,
    2.0**53, 2.0**53 + 2, 2.0**53 - 2, -(2.0**53), 1.0, -1.0, 0.5, 3.0, 0.1,
    _MAX, -_MAX, float("1e999"), float("-1e999"), math.nan,
]


def _fold_operand(rng):
    r = rng.random()
    if r < 0.2:
        return rng.choice(FOLD_SPECIALS)
    if r < 0.4:
        return rng.choice((1, -1)) * rng.randint(1, 2**52 - 1) * 5e-324
    if r < 0.8:
        # few significant bits: sums and products are often exact
        return math.ldexp(rng.randint(-(2**26), 2**26), rng.randint(-1100, 996))
    return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]


def _exact_float(op, x, y):
    """op(x, y) when its exact value is a finite float, else None."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    exact = op(Fraction(x), Fraction(y))
    try:
        v = float(exact)
    except OverflowError:
        return None
    return v if math.isfinite(v) and Fraction(v) == exact else None


def _expected_fold(name, a, b):
    """What diff's constant folding should make of two Consts: the identity
    shortcuts for 0 and 1, then a Const iff the exact result is a finite float."""
    x, y = a.value, b.value
    if name == "add":
        if x == 0.0:
            return b
        if y == 0.0:
            return a
        node, op = Add, operator.add
    elif name == "sub":
        if y == 0.0:
            return a
        if x == 0.0:
            return Const(-y)
        node, op = Sub, operator.sub
    else:
        if x == 0.0:
            return Const(0.0)
        if x == 1.0:
            return b
        if y == 0.0:
            return Const(0.0)
        if y == 1.0:
            return a
        node, op = Mul, operator.mul
    v = _exact_float(op, x, y)
    return node(a, b) if v is None else Const(v)


def test_constant_folding_matches_rational_oracle():
    rng = random.Random(41)
    pairs = [(x, y) for x in FOLD_SPECIALS for y in FOLD_SPECIALS]
    pairs += [(_fold_operand(rng), _fold_operand(rng)) for _ in range(20_000)]
    fold = {"add": symexpr._add, "sub": symexpr._sub, "mul": symexpr._mul}
    outcomes = set()
    for x, y in pairs:
        a, b = Const(x), Const(y)
        for name, fn in fold.items():
            got, want = fn(a, b), _expected_fold(name, a, b)
            # repr tells -0.0 from 0.0 and shows NaN
            assert repr(got) == repr(want), (name, x, y)
            outcomes.add((name, type(got).__name__))
    # every operation both folded and kept its node
    assert outcomes >= {(n, t) for n, t in (("add", "Add"), ("sub", "Sub"), ("mul", "Mul"))}
    assert {n for n, t in outcomes if t == "Const"} == set(fold)


# the fields of the benchmark workloads
BENCH_SYSTEMS = {
    "vdp-affine": (2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05]),
    "dosc-additive": (2, ["-x1 + 0.5*x2", "-0.5*x1 - x2"], [["0", "1"]], [0.05]),
    "trig3-step": (
        3,
        ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"],
        [["0", "0", "1"], ["cos(x3)", "sin(x3)", "0"]],
        [0.05, 0.05],
    ),
}
DERIVATIVE_GOLDEN = Path(__file__).with_name("derivative_repr_golden.json")


@pytest.mark.parametrize("name", sorted(BENCH_SYSTEMS))
def test_benchmark_derivative_trees_pinned(name):
    """The derivative trees of the benchmark fields, as recorded in
    derivative_repr_golden.json: constant folding changes none of them."""
    golden = json.loads(DERIVATIVE_GOLDEN.read_text())
    system = InputAffineSystem(*BENCH_SYSTEMS[name])
    for attr in ("df", "dg", "d2f", "d2g"):
        assert repr(getattr(system, attr)) == golden[f"{name}|{attr}"], attr


def test_eval_interval_even_power():
    assert eval_interval(parse("x1^2"), Box.from_bounds([(-1, 2)])) == Interval(0, 4)


def test_eval_interval_sin_monotone():
    r = eval_interval(parse("sin(x1)"), Box.from_bounds([(0, 0.1)]))
    assert 0.0 <= r.lo and r.hi <= 0.1


def test_eval_interval_vdp_component():
    r = eval_interval(parse("-x1 + 2*(1 - x1^2)*x2"), VDP_D)
    assert Interval(-20, 6).contains_interval(r) or r == Interval(-20, 6)
    assert r.mag == 20.0


def test_eval_interval_soundness_fuzz():
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        e = _random_expr(rng)
        box = Box.from_bounds([sorted((rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(2)])
        try:
            r = eval_interval(e, box)
        except UNDEFINED:
            continue
        for _ in range(20):
            p = tuple(c.lo + rng.random() * (c.hi - c.lo) for c in box)
            v = eval_point(e, p)
            assert r.lo <= v <= r.hi, (e, box, p)
        checked += 1


def test_eval_interval_inclusion_monotone():
    rng = random.Random(29)
    for _ in range(300):
        e = _random_expr(rng)
        inner = Box.from_bounds([sorted((rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(2)])
        outer = Box(tuple(c.inflate(rng.random() * 0.5) for c in inner))
        try:
            ri = eval_interval(e, inner)
            ro = eval_interval(e, outer)
        except UNDEFINED:
            continue
        assert ro.contains_interval(ri)


def test_compute_bounds_vdp_constants():
    b = compute_bounds(vdp_system(), VDP_D)
    assert b.K == 20.0
    assert b.L == 31.0
    assert b.Lam == 27.0
    assert b.H == 12.0
    assert b.Kp == 0.08
    assert b.Lp == 0.0 and b.Hp == 0.0


def test_compute_bounds_harmonic():
    b = compute_bounds(harmonic_system(0.05, 0.1), Box.from_bounds([(-3, 3), (-3, 3)]))
    assert b.L == 1.0
    assert b.Lam == 1.0
    assert b.H == 0.0
    assert b.Kp == 0.1  # componentwise: noise is diagonal
    assert b.Lp == 0.0


def test_compute_bounds_zero_field():
    sys0 = InputAffineSystem(2, ["0", "0"])
    b = compute_bounds(sys0, Box.from_bounds([(-1, 1), (-1, 1)]))
    assert (b.K, b.Kp, b.L, b.Lp, b.H, b.Hp) == (0, 0, 0, 0, 0, 0)
    assert b.Lam == 0.0


def test_compute_bounds_rejects_overflowing_input_jacobian():
    # g is finite on the box, but 307*x1^306 overflows in Dg
    sys = InputAffineSystem(1, ["-x1"], [["1e-300*x1^307"]], [0.1])
    box = Box.from_bounds([(9.99, 10.0)])
    assert math.isfinite(eval_interval(sys.g[0][0], box).mag)
    with pytest.raises(IntervalDomainError):
        compute_bounds(sys, box)


def test_additive_iff_input_derivatives_vanish_fuzz():
    """The additive-noise predicate L' == H' == 0 of the error formulas
    holds exactly when every first and second derivative of every input
    field has magnitude 0 on the box, also for magnitudes V as small as
    1e-300.  A cube of a variable pinned at 0 vanishes there without being
    the zero expression."""
    rng = random.Random(47)

    def field():
        return Pow(Var(rng.randint(1, 2)), 3) if rng.random() < 0.3 else _random_expr(rng)

    def component():
        return (0.0, 0.0) if rng.random() < 0.5 else sorted((rng.uniform(-1, 1), rng.uniform(-1, 1)))

    seen = {True: 0, False: 0}
    for _ in range(200):
        m = rng.randint(1, 2)
        fields = [[field() for _ in range(2)] for _ in range(m)]
        V = [rng.choice((1e-300, rng.uniform(0.01, 2.0))) for _ in range(m)]
        sys = InputAffineSystem(2, ["x2", "-x1"], fields, V)
        box = Box.from_bounds([component() for _ in range(2)])
        try:
            b = compute_bounds(sys, box)
        except UNDEFINED:
            continue
        entries = [e for dgi in sys.dg for row in dgi for e in row]
        entries += [e for d2gi in sys.d2g for plane in d2gi for row in plane for e in row]
        vanish = all(eval_interval(e, box).mag == 0.0 for e in entries)
        assert _additive(b) == vanish, (fields, box)
        seen[vanish] += 1
    assert min(seen.values()) >= 10, seen


def test_system_rejects_magnitudes_that_are_not_positive_and_finite():
    for v in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="^input magnitudes must be positive$"):
            InputAffineSystem(1, ["-x1"], [["1"]], [v])


def test_system_validation():
    with pytest.raises(ValueError):
        InputAffineSystem(2, ["x3", "x1"])
    with pytest.raises(ValueError):
        InputAffineSystem(2, ["x1", "x2"], [["1", "0"]], [0.0])
    with pytest.raises(ValueError):
        InputAffineSystem(2, ["x1"])


def test_system_interns_equal_subtrees():
    texts = ["sin(x3)*x1 + sin(x3)", "2*sin(x3) - x1", "cos(x3)"]
    sys = InputAffineSystem(3, texts, [["cos(x3)", "sin(x3)", "0"]], [0.1])
    a, b, c = sys.f
    assert list(sys.f) == [parse(t) for t in texts]
    assert a.a.a is a.b is b.a.b is sys.g[0][1]
    assert b.b is a.a.b
    assert c is sys.g[0][0]
    # constants are told apart by their bits
    sys = InputAffineSystem(2, [Mul(Const(0.0), Var(1)), Mul(Const(-0.0), Var(1))])
    assert sys.f[0] is not sys.f[1]
    assert math.copysign(1.0, sys.f[1].a.value) == -1.0


def trig3_system():
    return InputAffineSystem(
        3,
        ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"],
        [["0", "0", "1"], ["cos(x3)", "sin(x3)", "0"]],
        [0.05, 0.05],
    )


def test_system_interns_derivatives_with_fields():
    sys = trig3_system()
    cos3, sin3 = sys.g[1][0], sys.g[1][1]
    # d/dx3 of 0.3*sin(x3) is 0.3*cos(x3), whose cos(x3) is the input field's
    assert sys.df[0][2].b is cos3
    assert sys.dg[1][1][2] is cos3
    assert sys.dg[1][0][2].a is sin3  # -sin(x3)
    assert sys.d2g[1][0][2][2].a is cos3  # -cos(x3)
    # 0.3*(-sin(x3)) shares the field's Const(0.3) and sin(x3)
    assert sys.d2f[0][2][2].a is sys.f[0].b.a
    assert sys.d2f[0][2][2].b.a is sin3


def _unmemoized(monkeypatch):
    """Route every eval_interval call through a copy that drops the memo, so
    each expression is evaluated on its own."""
    plain = symexpr.eval_interval
    monkeypatch.setattr(symexpr, "eval_interval", lambda e, x, memo=None: plain(e, x))


# the systems of the select_error golden grid, and trig3
MEMO_CASES = [
    (InputAffineSystem(2, ["x2", "-x1 - 0.2*x2"], [["0", "1"]], [0.1]), Box.from_bounds([(0.5, 1.5), (-0.5, 0.5)])),
    (
        InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05]),
        Box.from_bounds([(0.5, 1.5), (-0.5, 0.5)]),
    ),
    (
        InputAffineSystem(
            2, ["x2", "-x1 + 0.5*sin(x2)"], [["0.2*x1^2", "1"], ["0", "x1*x2"]], [0.05, 0.1]
        ),
        Box.from_bounds([(0.5, 1.5), (-0.5, 0.5)]),
    ),
    (trig3_system(), Box.from_bounds([(0.9, 1.1), (-0.2, 0.1), (0.3, 0.7)])),
]


@pytest.mark.parametrize("sys, box", MEMO_CASES)
def test_compute_bounds_memo_matches_unmemoized(sys, box, monkeypatch):
    memoized = compute_bounds(sys, box)
    rates = local_rates(sys, box, [0.1] * sys.m)
    rhs = sys.rhs_interval(box, [Interval(-0.1, 0.1)] * sys.m)
    _unmemoized(monkeypatch)
    assert compute_bounds(sys, box) == memoized
    assert local_rates(sys, box, [0.1] * sys.m) == rates
    assert sys.rhs_interval(box, [Interval(-0.1, 0.1)] * sys.m) == rhs


def test_compile_field_matches_eval_point():
    """mc's numpy fold gives eval_point's value on every row: bit for bit on
    trees of +, -, *, / and negation, which IEEE 754 fixes; on the others,
    where numpy's x**n and exp may differ from libm's pow and exp in the
    last bit, within 1e-12 relative or 1e-9 absolute (for values that cancel
    to about zero)."""
    rng = random.Random(31)
    X = np.random.default_rng(31).uniform(-1.5, 1.5, size=(64, 2))
    V = np.random.default_rng(32).uniform(-1.0, 1.0, size=(64, 1))
    inexact = (Pow, Sin, Cos, Exp)
    seen = {Div: 0, Neg: 0, Pow: 0, Const: 0}
    compared = {True: 0, False: 0}
    for _ in range(300):
        f, g = _random_expr(rng), _random_expr(rng)
        exact = not (_has(f, inexact) or _has(g, inexact))
        for t in seen:
            seen[t] += _has(f, t) or _has(g, t)
        # without inputs a constant component must still be one column
        with np.errstate(all="ignore"):
            drift = compile_field(InputAffineSystem(2, [f, g]))(X, V[:, :0])
            full = compile_field(InputAffineSystem(2, [f, g], [[g, f]], [1.0]))(X, V)
        assert drift.shape == full.shape == (64, 2)
        for row, v, d, o in zip(X, V, drift, full):
            try:
                fv, gv = eval_point(f, row), eval_point(g, row)
            except UNDEFINED:
                continue
            for got, want in zip((*d, *o), (fv, gv, fv + gv * v[0], gv + fv * v[0])):
                if exact:
                    assert got == want, (f, g, row)
                else:
                    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-9), (f, g, row)
            compared[exact] += 1
    assert min(seen.values()) >= 30 and min(compared.values()) >= 2000, (seen, compared)
