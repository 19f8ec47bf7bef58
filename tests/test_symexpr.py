import json
import math
import operator
import pickle
import random
import re
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from direach import mc, polymodel, symexpr
from direach.flow import local_rates
from direach.interval import (
    Box,
    Interval,
    IntervalDomainError,
    _add_up,
    _mul_up,
    iv_sin,
)
from direach.localerr import _additive
from direach.mc import compile_field
from direach.polymodel import PolynomialModel, Role, VarInfo, compose_expr
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
    Program,
    Sin,
    StepErrorBounds,
    Sub,
    Var,
    compute_bounds,
    diff,
    eval_interval,
    eval_point,
    parse,
)
from norm_reference import lognorm_inf, mat_inf_norm, row_abs_sums

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


def test_parse_rejects_nesting_past_a_fixed_depth():
    """Signs, calls and parentheses nested past the parser's fixed depth are
    a syntax error at the token that opens the level past it, before the
    stack runs out; up to that depth they parse.  A leading sign opens no
    level."""
    depth = symexpr._MAX_DEPTH
    assert parse("(" * depth + "x1" + ")" * depth) == Var(1)
    assert parse("sin(" * depth + "x1" + ")" * depth) is not None
    e = parse("-" * (depth + 1) + "x1")
    for _ in range(depth + 1):
        e = e.a
    assert e == Var(1)
    for text, token in [("(" * 1500 + "x1" + ")" * 1500, depth + 1), ("-" * 1500 + "x1", depth + 2)]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.token_index == token
        assert f"nested more than {depth} levels deep" in str(exc.value)


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


def test_parse_minus_after_operator_binds_looser_than_power():
    # -a^n means -(a^n) after an operator as at the start of an expression
    assert parse("x1 + -x1^2") == Add(Var(1), Neg(Pow(Var(1), 2)))
    assert eval_point(parse("x1 + -x1^2"), (3.0,)) == -6.0
    assert eval_point(parse("2*-x1^2"), (3.0,)) == -18.0
    e = Add(Var(1), Neg(Pow(Var(1), 2)))
    assert parse(str(e)) == e


def test_parse_str_value_round_trip_fuzz():
    """str prints a tree that parses to the same value wherever the tree is
    finite: sums and products associate as printed, a power of a power
    keeps its parentheses and a minus after an operator keeps its reach."""
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng)
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            v = eval_point(e, p)
        except UNDEFINED:
            continue
        if math.isfinite(v):
            assert eval_point(parse(str(e)), p) == v, str(e)
            checked += 1


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


def _rejected(drift, name):
    """drift, and drift as an input field, are each rejected at
    construction with name in the message."""
    with pytest.raises(ValueError, match=re.escape(name)):
        InputAffineSystem(2, drift)
    with pytest.raises(ValueError, match=re.escape(name)):
        InputAffineSystem(2, ["x1", "x2"], [drift], [0.1])


def test_system_rejects_variables_other_than_x1_to_xn():
    # x0 would be args[-1], the last state, in every domain alike
    for drift, name in [([Var(0), Var(1)], "x0"), ([Var(1.0), Var(2)], "x1.0"), ([Var(True), Var(2)], "xTrue")]:
        _rejected(drift, name)
    _rejected(["x1", "x3"], "x3")


def test_system_rejects_constants_that_are_not_finite_floats():
    _rejected(["1e999*x1", "x2"], "inf")
    _rejected([Mul(Const(math.nan), Var(1)), "x2"], "nan")
    _rejected([Add(Var(1), Const(2)), "x2"], "constant 2 ")


def test_system_rejects_powers_that_are_not_integer():
    _rejected([Pow(Var(1), 2.5), "x2"], "2.5")
    _rejected([Pow(Var(1), True), "x2"], "True")


@pytest.mark.parametrize(
    "field, name",
    [
        (Mul(Var(1), 2.0), "2.0"),
        (1.0, "1.0"),
        (Pow(Var(1), "2"), "'2'"),
        (Const([1.0]), "[1.0]"),
        ("x1^" + "9" * 400, "9" * 400),
        (Pow(Var(1), 2**53 + 1), str(2**53 + 1)),
    ],
    ids=["float-operand", "float-field", "str-exponent", "list-constant", "400-digit-exponent", "inexact-exponent"],
)
def test_system_names_a_malformed_field_before_differentiating(field, name):
    """A field that is not a well-formed tree raises ValueError naming the
    value, as a drift and as an input field, before diff sees it: a float
    where an Expr belongs, an exponent that is not an int or whose factor
    float(n) in the derivative would be inexact, an unhashable constant."""
    with pytest.raises(ValueError, match=re.escape(name)):
        InputAffineSystem(1, [field])
    with pytest.raises(ValueError, match=re.escape(name)):
        InputAffineSystem(1, ["x1"], [[field]], [0.1])


def _slot(code, s, path):
    """The slot reached from slot s by following operands: a is the first
    (a Pow's base), b the second."""
    for name in path:
        s = code[s]["ab".index(name) + 2]
    return s


def _structures(code):
    """The program's instructions without their slot numbers (nor a Const's
    flag), floats as bits."""
    return [tuple(p.hex() if isinstance(p, float) else p for p in ins[1 : 3 if ins[1] is Const else 4]) for ins in code]


def test_system_shares_equal_subtrees():
    texts = ["sin(x3)*x1 + sin(x3)", "2*sin(x3) - x1", "cos(x3)"]
    sys = InputAffineSystem(3, texts, [["cos(x3)", "sin(x3)", "0"]], [0.1])
    a, b, c = sys.f
    assert list(sys.f) == [parse(t) for t in texts]
    assert a.a.a is not a.b  # parsed apart: equal, but two objects
    code = sys.program.code
    ra, rb, rc, g0, g1, _ = sys.program.roots[:6]
    assert _slot(code, ra, "aa") == _slot(code, ra, "b") == _slot(code, rb, "ab") == g1
    assert _slot(code, rb, "b") == _slot(code, ra, "ab")
    assert rc == g0
    # no two slots hold the same structure
    assert len(set(_structures(code))) == len(code)
    # constants are told apart by their bits
    sys = InputAffineSystem(2, [Mul(Const(0.0), Var(1)), Mul(Const(-0.0), Var(1))])
    code = sys.program.code
    r0, r1 = sys.program.roots[:2]
    assert r0 != r1 and _slot(code, r0, "a") != _slot(code, r1, "a")
    assert math.copysign(1.0, code[_slot(code, r1, "a")][2]) == -1.0
    assert _slot(code, r0, "b") == _slot(code, r1, "b")


def trig3_system():
    return InputAffineSystem(
        3,
        ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"],
        [["0", "0", "1"], ["cos(x3)", "sin(x3)", "0"]],
        [0.05, 0.05],
    )


def test_system_shares_derivative_slots_with_fields():
    sys = trig3_system()
    code = sys.program.code
    f, g, df, dg, d2f, d2g = sys._slots
    cos3, sin3 = g[1][0], g[1][1]
    assert sys.df[0][2].b is not sys.g[1][0]  # diff builds its own cos(x3)
    # d/dx3 of 0.3*sin(x3) is 0.3*cos(x3), whose cos(x3) is the input field's
    assert _slot(code, df[0][2], "b") == cos3
    assert dg[1][1][2] == cos3
    assert _slot(code, dg[1][0][2], "a") == sin3  # -sin(x3)
    assert _slot(code, d2g[1][0 * 3 + 2][2], "a") == cos3  # -cos(x3)
    # 0.3*(-sin(x3)) shares the field's Const(0.3) and sin(x3)
    assert _slot(code, d2f[0 * 3 + 2][2], "a") == _slot(code, f[0], "ba")
    assert _slot(code, d2f[0 * 3 + 2][2], "ba") == sin3


def _fold(e, args, ops):
    """The recursive evaluator that Program replaced, kept as the reference:
    the value of e over one domain, each node's from its children's."""
    t = type(e)
    if t is Var:
        return args[e.index - 1]
    if t is Const:
        return ops[Const](e.value, args)
    if t is Pow:
        return ops[Pow](_fold(e.base, args, ops), e.exponent)
    if t in (Add, Sub, Mul, Div):
        return ops[t](_fold(e.a, args, ops), _fold(e.b, args, ops))
    return ops[t](_fold(e.a, args, ops))


def _is_zero(e):
    return isinstance(e, Const) and e.value == 0.0


def _reference_field(sys, value, inputs):
    """f + sum g_k u_k per component from value(e) of each expression."""
    out = []
    for c in range(sys.n):
        acc = value(sys.f[c])
        for k, u in enumerate(inputs):
            if not _is_zero(sys.g[k][c]):
                acc = acc + value(sys.g[k][c]) * u
        out.append(acc)
    return out


def _weighted_max(V, per_input):
    """Max over slots of the upward sum of V_i * x_i, where per_input[i]
    lists input i's nonnegative value x_i for every slot."""
    best = 0.0
    for xs in zip(*per_input):
        s = 0.0
        for v, x in zip(V, xs):
            s = _add_up(s, _mul_up(v, x))
        best = max(best, s)
    return best


def _reference_bounds(sys, value, w_sups):
    """(compute_bounds, local_rates) from value(e), the interval of each
    expression alone; a zero entry is the point 0."""

    def entry(e):
        return Interval.point(0.0) if _is_zero(e) else value(e)

    def matrix(rows):
        return tuple(tuple(entry(e) for e in row) for row in rows)

    dfm, dgm = matrix(sys.df), [matrix(dgi) for dgi in sys.dg]
    b = StepErrorBounds(
        K=max(entry(e).mag for e in sys.f),
        Kp=_weighted_max(sys.V, [[entry(e).mag for e in gi] for gi in sys.g]),
        L=mat_inf_norm(dfm),
        Lp=_weighted_max(sys.V, [row_abs_sums(d) for d in dgm]),
        H=max(entry(e).mag for plane in sys.d2f for row in plane for e in row),
        Hp=_weighted_max(
            sys.V, [[entry(e).mag for plane in d2gi for row in plane for e in row] for d2gi in sys.d2g]
        ),
        Lam=lognorm_inf(dfm),
    )
    lam, lip = lognorm_inf(dfm), mat_inf_norm(dfm)
    for ws, d in zip(w_sups, dgm):
        nk = mat_inf_norm(d)
        lam, lip = _add_up(lam, _mul_up(ws, nk)), _add_up(lip, _mul_up(ws, nk))
    return b, (lam, lip)


def _iv_bits(ivs):
    return [(x.lo.hex(), x.hi.hex()) for x in ivs]


def _bound_bits(b):
    return [v.hex() for v in b._values()]


def dosc_system():
    return InputAffineSystem(2, ["-x1 + 0.5*x2", "-0.5*x1 - x2"], [["0", "1"]], [0.05])


# the systems of the select_error golden grid, trig3 and dosc-additive's
SHARED_CASES = [
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
    (dosc_system(), Box.from_bounds([(0.5, 1.5), (-0.5, 0.5)])),
]


@pytest.mark.parametrize("sys, box", SHARED_CASES)
def test_compute_bounds_memo_matches_unmemoized(sys, box):
    """compute_bounds, local_rates and rhs_interval, one program run each
    that shares every node as the per-box memo before it did, give bit for
    bit what eval_interval of each expression alone gives, with fewer
    nodes than the expressions have alone.  A fresh system meets two
    different boxes, each twice, so a box-dependent value kept from the
    first box would show on the second."""
    sys = InputAffineSystem(sys.n, sys.f, sys.g, sys.V)
    w_sups = [0.1] * sys.m
    inputs = [Interval(-0.1, 0.1)] * sys.m
    other = Box(tuple(Interval(c.lo - 0.25, c.mid) for c in box))
    for b in (box, other, box, other):  # the later runs reuse the kept values
        bounds, rates = _reference_bounds(sys, lambda e: eval_interval(e, b), w_sups)
        assert _bound_bits(compute_bounds(sys, b)) == _bound_bits(bounds)
        assert [v.hex() for v in local_rates(sys, b, w_sups)] == [v.hex() for v in rates]
        want = _reference_field(sys, lambda e: eval_interval(e, b), inputs)
        assert _iv_bits(sys.rhs_interval(b, inputs)) == _iv_bits(want)
        # a pickled system is its definition: loading builds the plan again,
        # and the kept values are computed again, bit for bit, on first use
        assert _bound_bits(compute_bounds(pickle.loads(pickle.dumps(sys)), b)) == _bound_bits(bounds)
    exprs = [*sys.f, *(e for gi in sys.g for e in gi)]
    for d in (sys.df, sys.dg, sys.d2f, sys.d2g):
        exprs += [e for e in np.ravel(np.array(d, dtype=object))]
    assert len(sys.program.code) < sum(len(Program(((e,),)).code) for e in exprs)


def test_kept_norms_leave_no_program_to_run(monkeypatch):
    """Every derivative norm of dosc-additive's system is box-independent,
    so after the first box local_rates runs no program and compute_bounds
    one, over the drift's slots alone.  A box-independent Jacobian entry
    that is not finite is never kept: compute_bounds and local_rates raise
    on every call, each with its own message."""
    calls = []
    real = symexpr.eval_interval
    monkeypatch.setattr(symexpr, "eval_interval", lambda *args: calls.append(args[2:]) or real(*args))
    sys, first = SHARED_CASES[-1]
    sys = InputAffineSystem(sys.n, sys.f, sys.g, sys.V)
    w_sups = [0.1]
    local_rates(sys, first, w_sups)
    compute_bounds(sys, first)
    assert len(calls) == 2
    for box in (Box.from_bounds([(-1.0, 0.25), (0.0, 2.0)]), Box.from_bounds([(3.0, 3.5), (-2.0, -1.0)])):
        bounds, rates = _reference_bounds(sys, lambda e: eval_interval(e, box), w_sups)
        del calls[:]
        assert [v.hex() for v in local_rates(sys, box, w_sups)] == [v.hex() for v in rates]
        assert calls == []
        assert _bound_bits(compute_bounds(sys, box)) == _bound_bits(bounds)
        assert calls == [(tuple(sorted(set(sys._slots[0]))),)]
    # d/dx1 of 1e300*1e300*x1 is the constant 1e300*1e300, which overflows
    checks = [(compute_bounds, (), "matrix norm"), (local_rates, (w_sups,), "logarithmic norm")]
    for order in (checks, checks[::-1]):
        sys = InputAffineSystem(2, ["1e300*1e300*x1", "x2"], [["0", "1"]], [0.1])
        for box in (first, Box.from_bounds([(-1.0, 1.0), (0.0, 1.0)])) * 2:
            for fn, extra, message in order:
                with pytest.raises(IntervalDomainError, match=f"^{message} requires finite entries$"):
                    fn(sys, box, *extra)


def _random_system(rng):
    """A random 2-state system whose fields share subterms (drawn from one
    pool) and hold constant subtrees, zero and constant entries, Div, Pow
    and Exp."""
    pool = [_random_expr(rng, 2) for _ in range(3)]
    pool += [parse("sin(0.3)*x1"), parse("2^3*x2"), parse("x1/4"), parse("exp(-x2)"), parse("(x1 - x2)^-2")]

    def component():
        r = rng.random()
        if r < 0.15:
            return Const(0.0)
        if r < 0.3:
            return Const(rng.choice((1.0, -0.5, 3.0)))
        a, b = rng.sample(pool, 2)
        return rng.choice((Add, Sub, Mul, Div))(a, b)

    m = rng.randint(0, 2)
    return InputAffineSystem(
        2,
        [component() for _ in range(2)],
        [[component() for _ in range(2)] for _ in range(m)],
        [rng.uniform(0.01, 1.0) for _ in range(m)],
    )


def _outcome(fn, *args):
    """fn(*args), or "undefined" when it raises as an undefined value does."""
    try:
        return fn(*args)
    except UNDEFINED:
        return "undefined"


def test_program_matches_reference_fold_fuzz():
    """On random systems and boxes, every consumer of the program gives
    bit for bit what the recursive fold gives per expression: the bounds,
    the rates, the interval field, mc's numpy field and one model run of
    the fields (the compositions and the field assembled from them)."""
    rng = random.Random(53)
    vars2 = tuple(VarInfo(Role.STATE, axis=i) for i in range(2)) + (VarInfo(Role.INPUT),)
    X = np.random.default_rng(53).uniform(-1.5, 1.5, size=(16, 2))
    seen = {"bounds": 0, "rates": 0, "rhs": 0, "model": 0, "undefined": 0}
    for _ in range(150):
        sys = _random_system(rng)
        w_sups = [rng.uniform(0.0, 1.0) for _ in range(sys.m)]
        inputs = [Interval(-w, w) for w in w_sups]
        for _ in range(2):
            box = Box.from_bounds([sorted((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(2)])

            def value(e):
                return _fold(e, box.components, symexpr._INTERVAL_OPS)

            ref = _outcome(_reference_bounds, sys, value, w_sups)
            got = _outcome(compute_bounds, sys, box)
            if ref == "undefined" or got == "undefined":
                assert ref == got
                seen["undefined"] += 1
            else:
                assert _bound_bits(got) == _bound_bits(ref[0])
                seen["bounds"] += 1
            field = _outcome(_reference_field, sys, value, inputs)
            assert field == "undefined" or _iv_bits(sys.rhs_interval(box, inputs)) == _iv_bits(field)
            seen["rhs"] += field != "undefined"
            if field != "undefined" and ref != "undefined":
                # local_rates runs the program through the fields too
                assert [v.hex() for v in local_rates(sys, box, w_sups)] == [v.hex() for v in ref[1]]
                seen["rates"] += 1
        V = np.random.default_rng(rng.randrange(2**32)).uniform(-1.0, 1.0, size=(16, sys.m))
        with np.errstate(all="ignore"):
            want = np.stack(_reference_field(sys, lambda e: _fold(e, X.T, mc._NUMPY_OPS), V.T), axis=1)
            np.testing.assert_array_equal(compile_field(sys)(X, V), want)
        args = [
            PolynomialModel(vars2, {0: 0.3 * (i + 1), 1 << (4 * i): 0.2, 1 << 8: 0.05}, 1e-9, 3) for i in range(2)
        ]
        w = [PolynomialModel(vars2, {1 << 8: w_sups[k]}, 0.0, 3) for k in range(sys.m)]
        want = _outcome(_reference_field, sys, lambda e: _fold(e, args, polymodel._MODEL_OPS), w)
        vals = _outcome(compose_expr, sys.program, args, 0)
        assert (want == "undefined") == (vals == "undefined")
        if want != "undefined":
            assert [_model_bits(m) for m in sys.field(vals, w)] == [_model_bits(m) for m in want]
            seen["model"] += 1
    assert min(seen.values()) >= 20, seen


def _model_bits(model):
    return [(k, c.hex()) for k, c in model.terms.items()], model.error.hex()


def _counting(ops):
    """(a copy of the op table ops that records each call, the list of
    the node types called)."""
    calls = []

    def counted(t, op):
        return lambda *args: calls.append(t) or op(*args)

    out = {t: counted(t, op) for t, op in ops.items()}
    return out, calls


def test_program_evaluates_each_node_once():
    """Each interval run evaluates each distinct node of the fields and
    their derivatives once, on every box alike: a program keeps no values
    between runs.  The Jacobians' block evaluates only what its roots need,
    and for a linear field none of it reads a variable, which is what lets
    the bounds plan keep the field's Jacobian norms."""
    linear = InputAffineSystem(2, ["-x1 + 0.5*x2", "-0.5*x1 - x2 + sin(0.3)*2^3"], [["0", "1"]], [0.05])
    for sys, box in [*SHARED_CASES, (linear, VDP_D)]:

        def distinct(blocks):  # the structures of the nodes other than Vars, floats as bits
            keys = set()

            def walk(e):
                parts = e._values()
                key = (type(e), *(walk(c) if isinstance(c, Expr) else c.hex() if isinstance(c, float) else c for c in parts))
                if not isinstance(e, Var):
                    keys.add(key)
                return key

            for block in blocks:
                for e in np.ravel(np.array(block, dtype=object)):
                    # a zero derivative entry is compiled as +0.0
                    walk(Const(0.0) if _is_zero(e) and block not in (sys.f, sys.g) else e)
            return keys

        ops, calls = _counting(symexpr._INTERVAL_OPS)
        every = len(distinct((sys.f, sys.g, sys.df, sys.dg, sys.d2f, sys.d2g)))
        half = Box(tuple(Interval(c.lo, c.mid) for c in box))
        for b in (box, half):
            del calls[:]
            vals = sys.program.run(b.components, ops)
            assert len(calls) == every
            assert vals == sys.program.run(b.components, symexpr._INTERVAL_OPS)
        # the Jacobians' block evaluates only the nodes its roots need
        del calls[:]
        sys.program.run(half.components, ops, 1)
        assert len(calls) == len(distinct((sys.df, sys.dg))) < every
    # no variable is read (there is none to read), so every Jacobian norm is box-independent
    assert linear.program.run((), symexpr._INTERVAL_OPS, 1)
    assert all(constant for *_, constant in linear._plan[2 : 3 + linear.m])


def test_equal_subtrees_apart_are_evaluated_once(monkeypatch):
    """sin(x1) + sin(x1) from two separate objects evaluates sin once."""
    ops, calls = _counting(symexpr._INTERVAL_OPS)
    monkeypatch.setattr(symexpr, "_INTERVAL_OPS", ops)
    box = Box.from_bounds([(0.1, 0.4)])
    got = eval_interval(Add(Sin(Var(1)), Sin(Var(1))), box)
    assert calls.count(Sin) == 1
    x1 = box.components[0]
    assert got == iv_sin(x1) + iv_sin(x1)


def test_shared_dag_compiles_linearly():
    """A 40-level DAG that reuses each level twice is 41 slots, compiled
    by a walk over its 41 objects and not over its 2^41 - 1 tree nodes."""
    e = Var(1)
    for _ in range(40):
        e = Add(e, e)
    program = Program(((e,),))
    assert len(program.code) == 41 and program.roots == (40,)
    assert eval_interval(e, Box.from_bounds([(1.0, 2.0)])) == Interval(2.0**40, 2.0**41)


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


def test_system_builds_fields_of_any_depth():
    """A left-deep chain of 1,499 sums or of 1,499 products is compiled and
    differentiated from a stack rather than by recursion, so the system
    builds, and its field and derivatives are exact at x1 = 1."""
    one = Box.from_bounds([(1.0, 1.0)])
    sums = InputAffineSystem(1, ["+".join(["x1"] * 1500)])
    assert sums.df == ((Const(1500.0),),)
    assert sums.rhs_interval(one, []) == (Interval(1500.0, 1500.0),)
    b = compute_bounds(InputAffineSystem(1, ["*".join(["x1"] * 1500)]), one)
    assert (b.K, b.L, b.H) == (1.0, 1500.0, 1500.0 * 1499.0)


def vdp_workload_system():
    return InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05])


@pytest.mark.parametrize("make", [dosc_system, vdp_workload_system])
def test_compute_bounds_keeps_lp_once_every_input_jacobian_is_kept(monkeypatch, make):
    """On a system whose input Jacobians do not depend on the box, L' is
    combined from their row sums on the first compute_bounds call only,
    and every call's L' is bit for bit the one combined from the full
    matrices: two boxes, each twice.  The combinations counted are the
    _weighted_max calls outside _weighted_mags, which K' and H' make."""
    builds, inner = [], [False]
    weighted_max, weighted_mags = symexpr._weighted_max, symexpr._weighted_mags

    def counted_max(entries):
        builds[-1] += not inner[0]
        return weighted_max(entries)

    def counted_mags(vals, entries):
        inner[0] = True
        try:
            return weighted_mags(vals, entries)
        finally:
            inner[0] = False

    monkeypatch.setattr(symexpr, "_weighted_max", counted_max)
    monkeypatch.setattr(symexpr, "_weighted_mags", counted_mags)
    sys = make()  # built after the patch, so that its plan holds counted_mags
    box = Box.from_bounds([(0.5, 1.5), (-0.5, 0.5)])
    other = Box(tuple(Interval(c.lo - 0.25, c.mid) for c in box))
    for b in (box, other, box, other):
        builds.append(0)
        Lp = compute_bounds(sys, b).Lp
        want = _reference_bounds(sys, lambda e: eval_interval(e, b), [0.0] * sys.m)[0].Lp
        assert Lp.hex() == want.hex()
    assert builds == [1, 0, 0, 0]


@pytest.mark.parametrize("make", [vdp_workload_system, dosc_system, trig3_system])
def test_system_pickles_as_its_definition(make):
    """A benchmark workload's system pickles as (n, f, g, V) alone, in under
    600 bytes, and loads with a program of the same length: its shared
    derivative subtrees are built again, not copied once per root."""
    sys = make()
    data = pickle.dumps(sys)
    copy = pickle.loads(data)
    assert len(data) < 600
    assert (copy.n, copy.f, copy.g, copy.V) == (sys.n, sys.f, sys.g, sys.V)
    assert len(copy.program.code) == len(sys.program.code)


@pytest.mark.parametrize("op", ["+", "*"])
def test_fields_of_any_depth_compare_print_and_pickle(op):
    """The 1,500-deep chains above compare, hash, print and pickle from a
    stack rather than by recursion: a field equals a second parse of its
    text and has its hash, its str is that text and parses back to it, and
    the system pickles with bit-identical fields and bounds."""
    text = op.join(["x1"] * 1500)
    sys = InputAffineSystem(1, [text])
    e, again = sys.f[0], parse(text)
    assert e is not again and e == again and hash(e) == hash(again)
    assert e != parse(text + op + "x1") and e != parse(text.replace("x1", "x2", 1))
    assert str(e) == text.replace("+", " + ") and parse(str(e)) == e
    assert repr(e).count("Var(index=1)") == 1500
    copy = pickle.loads(pickle.dumps(sys))
    assert (copy.f, copy.df, copy.d2f) == (sys.f, sys.df, sys.d2f)
    one = Box.from_bounds([(1.0, 1.0)])
    assert _bound_bits(compute_bounds(copy, one)) == _bound_bits(compute_bounds(sys, one))


def test_shared_subtrees_are_walked_once():
    """A DAG of 1,501 nodes whose tree has 2**1501 - 1 hashes, compares
    and pickles in time linear in its nodes, and its copy shares as it
    does."""
    e, f = Var(1), Var(1)
    for _ in range(1500):
        e, f = Add(e, e), Add(f, f)
    assert e == f and hash(e) == hash(f) and e != Add(f, Var(1))
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and copy.a is copy.b
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
