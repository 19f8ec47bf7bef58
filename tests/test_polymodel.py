import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from direach import polymodel
from direach.interval import Interval, IntervalDomainError
from direach.polymodel import (
    ArityMismatchError,
    PolynomialModel,
    Role,
    VarInfo,
    VectorModel,
    compose_expr,
)
from direach.symexpr import InputAffineSystem, parse

V2 = (VarInfo(Role.STATE, axis=0), VarInfo(Role.STATE, axis=1))


def pm(terms, error=0.0, vars=V2, cap=5):
    packed = {}
    for exps, c in terms.items():
        key = 0
        for i, e in enumerate(exps):
            key |= e << (4 * i)
        packed[key] = float(c)
    return PolynomialModel(vars, packed, error, cap)


def unpack(model):
    out = {}
    for k, c in model.terms.items():
        exps = []
        for i in range(model.arity):
            exps.append((k >> (4 * i)) & 0xF)
        out[tuple(exps)] = c
    return out


def test_mul_exact_expansion_oracle():
    a = pm({(0, 0): 0.5, (1, 0): 0.5})
    b = pm({(0, 0): 0.5, (1, 0): -0.5})
    r = a * b
    # exact oracle over rationals
    expect = {(0, 0): Fraction(1, 4), (2, 0): Fraction(-1, 4)}
    got = unpack(r)
    assert set(got) == set((k for k in expect))
    for k, v in expect.items():
        assert Fraction(got[k]) == v
    assert r.error < 1e-15


def test_add_zero_identity():
    a = pm({(1, 0): 1.0, (0, 2): -0.25}, error=0.125)
    z = PolynomialModel.constant(0.0, V2, 5)
    r = a + z
    assert unpack(r) == unpack(a)
    assert r.error == a.error


def test_add_errors_accumulate():
    a = pm({(1, 0): 1.0}, error=0.1)
    b = pm({(1, 0): 1.0}, error=0.2)
    r = a + b
    assert unpack(r)[(1, 0)] == 2.0
    assert 0.3 <= r.error <= 0.3 + 1e-12


def test_sub_is_add_of_negation_bit_identical():
    rng = random.Random(37)
    vars3 = tuple(VarInfo(Role.STATE, axis=i) for i in range(3))
    for _ in range(200):
        keys = []
        a = _random_model(rng, vars3, 4, keys)
        b = _random_model(rng, vars3, 4, keys)
        if rng.random() < 0.3:
            b = PolynomialModel(vars3, dict(a.terms), b.error, 4)  # every term cancels
        assert _bits(a - b) == _bits(a + (-b))


def test_arity_mismatch():
    a = pm({(1, 0): 1.0})
    b = PolynomialModel.from_var(0, (VarInfo(Role.STATE),), 5)
    with pytest.raises(ArityMismatchError):
        a + b


def test_range_identity():
    assert PolynomialModel.from_var(0, V2, 5).range() == Interval(-1, 1)


def test_range_even_term():
    r = pm({(0, 0): 0.25, (2, 0): -0.25}).range()
    assert r.lo <= 0.0 and r.hi >= 0.25
    assert r.hi <= 0.5 + 1e-12  # term-sum bound is allowed to be loose


def test_range_with_error():
    r = pm({(0, 0): 1.0, (0, 1): 0.1}, error=0.01).range()
    assert r.lo == pytest.approx(0.89, abs=1e-12)
    assert r.hi == pytest.approx(1.11, abs=1e-12)


def test_range_sound_fuzz():
    rng = random.Random(41)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exps] = rng.uniform(-2, 2)
        m = pm(terms, error=rng.random() * 0.1)
        r = m.range()
        for _ in range(30):
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = m.eval_point(z)
            assert r.lo <= v <= r.hi


def test_sweep_examples():
    m = pm({(0, 0): 1.0, (0, 1): 0.1}, error=0.01)
    r = m.sweep([1])
    assert r.arity == 1
    assert unpack(r) == {(0,): 1.0}
    assert r.error == pytest.approx(0.11, abs=1e-12)

    m2 = pm({(1, 0): 1.0, (1, 1): 0.2})
    r2 = m2.sweep([1])
    assert unpack(r2) == {(1,): 1.0}
    assert r2.error == pytest.approx(0.2, rel=1e-9)

    assert m.sweep([]) is m


def test_sweep_containment_grid():
    rng = random.Random(43)
    m = pm({(1, 0): 1.0, (1, 1): 0.2, (0, 2): -0.3}, error=0.05)
    s = m.sweep([1])
    for _ in range(1000):
        z1, z2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        v = m.eval_point((z1, z2))
        sv = s.eval_point((z1,))
        assert abs(v - sv) <= s.error - m.error + 1e-12 + (s.error - m.error) * 1e-9 + 1e-15 or abs(v - sv) <= s.error
        # every representative of m is a representative of s
        assert abs(v - sv) <= s.error + 1e-15


TIME2 = (VarInfo(Role.STATE), VarInfo(Role.TIME, center=0.05, radius=0.05))


def test_antiderivative_constant():
    one = PolynomialModel.constant(1.0, TIME2, 5)
    r = one.antiderivative(1)
    # models (t - t_k) = 0.05*tau + 0.05
    assert unpack(r) == {(0, 0): 0.05, (0, 1): 0.05}
    rr = r.range()
    assert rr.lo <= 0.0 <= rr.hi and rr.hi >= 0.1


def test_antiderivative_twice_symbolic_oracle():
    one = PolynomialModel.constant(1.0, TIME2, 5)
    r2 = one.antiderivative(1).antiderivative(1)
    # oracle: (t-t_k)^2/2 with t = 0.05*tau + 0.05 gives 0.00125*(tau+1)^2
    got = unpack(r2)
    assert got[(0, 2)] == pytest.approx(0.00125, rel=1e-12)
    assert got[(0, 1)] == pytest.approx(0.0025, rel=1e-12)
    assert got[(0, 0)] == pytest.approx(0.00125, rel=1e-12)
    assert r2.eval_point((0.0, 1.0)) == pytest.approx(0.1**2 / 2, rel=1e-12)


def test_antiderivative_error_scales_with_step():
    m = PolynomialModel.constant(0.0, TIME2, 5, error=0.1)
    r = m.antiderivative(1)
    assert r.error <= 0.01 * (1 + 1e-9)
    assert r.error >= 0.01 * (1 - 1e-9)


def test_compose_linear():
    z1 = PolynomialModel.from_var(0, V2, 5)
    z2 = PolynomialModel.from_var(1, V2, 5)
    r = compose_expr(parse("x1 + x2"), VectorModel((z1, z2)))
    assert unpack(r) == {(1, 0): 1.0, (0, 1): 1.0}
    assert r.error == 0.0


def test_compose_square():
    z1 = PolynomialModel.from_var(0, V2, 5)
    z2 = PolynomialModel.from_var(1, V2, 5)
    r = compose_expr(parse("x1^2"), VectorModel((z1, z2)))
    assert unpack(r) == {(2, 0): 1.0}
    assert r.error < 1e-15


def test_compose_division_by_exact_constant_scales():
    z1 = PolynomialModel.from_var(0, V2, 5)
    z2 = PolynomialModel.from_var(1, V2, 5)
    args = VectorModel((z1.scale(3.0).add_scalar(1.0), z2))
    by_const = compose_expr(parse("x1/3"), args)
    assert unpack(by_const) == {(0, 0): 1.0 / 3.0, (1, 0): 1.0}
    assert by_const.error < 1e-15
    # -3 parses as Neg(Const 3): its model is an exact constant too
    neg = compose_expr(parse("x1/(-3)"), args)
    assert unpack(neg) == {k: -c for k, c in unpack(by_const).items()}
    assert neg.error == by_const.error
    # a model that is exactly zero cannot divide
    for text in ("x1/0", "x1/(x2 - x2)"):
        with pytest.raises(IntervalDomainError):
            compose_expr(parse(text), args)


def test_compose_exp_remainder():
    inner = pm({(1, 0): 0.1}, cap=2)
    z2 = pm({(0, 1): 1.0}, cap=2)
    r = compose_expr(parse("exp(x1)"), VectorModel((inner, z2)))
    got = unpack(r)
    assert got[(0, 0)] == pytest.approx(1.0, rel=1e-12)
    assert got[(1, 0)] == pytest.approx(0.1, rel=1e-12)
    assert got[(2, 0)] == pytest.approx(0.005, rel=1e-12)
    # Lagrange oracle: remainder over [-0.1, 0.1] of the degree-2 expansion
    true_rem = float(mpmath.exp(mpmath.mpf("0.1")) * mpmath.mpf("0.1") ** 3 / 6)
    assert true_rem <= r.error <= 2e-4


def test_compose_containment_fuzz():
    rng = random.Random(47)
    cases = 0
    while cases < 10_000:
        ea, eb = rng.random() * 0.1, rng.random() * 0.1
        a = pm(
            {(rng.randint(0, 2), rng.randint(0, 2)): rng.uniform(-1, 1) for _ in range(3)},
            error=ea,
        )
        b = pm(
            {(rng.randint(0, 2), rng.randint(0, 2)): rng.uniform(-1, 1) for _ in range(3)},
            error=eb,
        )
        da = (2 * rng.random() - 1) * ea
        db = (2 * rng.random() - 1) * eb
        op = rng.choice(["add", "sub", "mul"])
        if op == "add":
            out, fn = a + b, lambda z: (a.eval_point(z) + da) + (b.eval_point(z) + db)
        elif op == "sub":
            out, fn = a - b, lambda z: (a.eval_point(z) + da) - (b.eval_point(z) + db)
        else:
            out, fn = a * b, lambda z: (a.eval_point(z) + da) * (b.eval_point(z) + db)
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(fn(z) - out.eval_point(z)) <= out.error * (1 + 1e-9) + 1e-14
        cases += 1


def test_compose_elementary_soundness_fuzz():
    rng = random.Random(53)
    for kind, math_fn in [("sin(x1)", math.sin), ("cos(x1)", math.cos), ("exp(x1)", math.exp)]:
        expr = parse(kind)
        for _ in range(300):
            inner = pm(
                {(1, 0): rng.uniform(-0.5, 0.5), (0, 1): rng.uniform(-0.5, 0.5), (0, 0): rng.uniform(-1, 1)},
            )
            out = compose_expr(expr, VectorModel((inner, inner)))
            for _ in range(10):
                z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
                v = math_fn(inner.eval_point(z))
                assert abs(v - out.eval_point(z)) <= out.error * (1 + 1e-9) + 1e-14


def test_compose_shared_memo_bit_identical():
    # sin(x3) and cos(x3) recur across the fields; InputAffineSystem interns
    # them into one object each, so one memo composes each of them once
    sys = InputAffineSystem(
        3,
        ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "sin(x3)*cos(x3) - sin(x3)^2"],
        [["cos(x3)", "sin(x3)", "0"], ["0", "0", "cos(x3)*x1"]],
        [0.05, 0.05],
    )
    exprs = list(sys.f) + [e for gi in sys.g for e in gi]
    vars3 = tuple(VarInfo(Role.STATE, axis=i) for i in range(3))
    args = VectorModel(
        tuple(
            PolynomialModel.constant(0.5 + i, vars3, 3, error=1e-9)
            + PolynomialModel.from_var(i, vars3, 3).scale(0.1)
            for i in range(3)
        )
    )
    memo = {}
    shared = [compose_expr(e, args, memo) for e in exprs]
    alone_memos = [{} for _ in exprs]
    alone = [compose_expr(e, args, m) for e, m in zip(exprs, alone_memos)]
    for s, a in zip(shared, alone):
        assert [(k, c.hex()) for k, c in s.terms.items()] == [(k, c.hex()) for k, c in a.terms.items()]
        assert s.error.hex() == a.error.hex()
    assert len(memo) < sum(len(m) for m in alone_memos)


def _bits(model):
    return [(k, c.hex()) for k, c in model.terms.items()], model.error.hex()


def test_compose_power_table_shared_bit_identical(monkeypatch):
    # sin, cos, exp and the reciprocals of one interned argument expand it
    # once per memo, and each result equals its composition alone
    arg = "(2 + 0.3*x1 - 0.2*x1*x2 + 0.05*x3^2)"
    texts = [f"sin{arg}", f"cos{arg}", f"exp{arg}", f"1/{arg}", f"{arg}^-2"]
    sys = InputAffineSystem(len(texts), texts)  # interns the argument: one node
    vars3 = tuple(VarInfo(Role.STATE, axis=i) for i in range(3))
    args = VectorModel(
        tuple(
            PolynomialModel.constant(0.2 * i, vars3, 4, error=1e-9)
            + PolynomialModel.from_var(i, vars3, 4).scale(0.5)
            for i in range(3)
        )
    )
    built = []

    class CountedTable(polymodel._PowerTable):
        __slots__ = ()

        def __init__(self, inner):
            built.append(inner)
            super().__init__(inner)

    monkeypatch.setattr(polymodel, "_PowerTable", CountedTable)
    memo = {}
    shared = [compose_expr(e, args, memo) for e in sys.f]
    assert len(built) == 1
    alone = [compose_expr(e, args) for e in sys.f]
    assert len(built) == 1 + len(texts)
    for s, a in zip(shared, alone):
        assert _bits(s) == _bits(a)
        assert s.error > 0.0


def test_compose_domain_errors_keep_messages():
    wild = pm({(1, 0): 1.0}, error=math.inf)
    args = VectorModel((wild, pm({(0, 1): 1.0})))
    memo = {}
    for kind in ("sin", "cos", "exp"):
        # each kind reports itself, also when a table for the argument exists
        with pytest.raises(IntervalDomainError, match=f"^{kind} composition requires a finite range$"):
            compose_expr(parse(f"{kind}(x1)"), args, memo)
    straddler = VectorModel((pm({(1, 0): 1.0, (0, 0): 0.5}), pm({(0, 1): 1.0})))
    memo = {}
    for text in ("1/x1", "x1^-2", "sin(x1)/x1"):
        with pytest.raises(IntervalDomainError, match="^reciprocal of a model whose range contains zero$"):
            compose_expr(parse(text), straddler, memo)


def test_mul_by_exact_constant_scales():
    # coefficients as in the truncated product; the error drops only the
    # constant's poly_magnitude inflation, so it is bit-identical on an
    # error-free operand and no larger on one with error
    m = pm({(1, 0): 0.3, (0, 2): -1.7, (2, 1): 0.1})
    for s in (0.5, -3.0, 0.1):
        c = pm({(0, 0): s})
        for r in (c * m, m * c):
            assert _bits(r) == _bits(m.scale(s))
    # a term above the cap drops into the error before scaling
    high = pm({(1, 0): 0.3, (3, 3): 0.7}, cap=4)
    low = pm({(1, 0): 0.3}, error=polymodel._grown(0.7), cap=4)
    assert _bits(pm({(0, 0): 0.1}, cap=4) * high) == _bits(low.scale(0.1))
    e = pm({(1, 0): 0.3, (0, 2): -1.7}, error=1e-3)
    r = pm({(0, 0): 0.1}) * e
    assert 0.1 * 1e-3 <= r.error < pm({(0, 0): 0.1}).poly_magnitude() * 1e-3
    # a constant with an error is no scalar
    assert (pm({(0, 0): 2.0}, error=1e-9) * m).error >= m.poly_magnitude() * 1e-9


def test_truncation_preserves_enclosure():
    # the same operands at cap 6 and at cap 3, where terms of degree 4 to 6
    # lie above the cap and drop into the error with the product's own
    rng = random.Random(59)
    for _ in range(500):
        ta = {(rng.randint(0, 3), rng.randint(0, 3)): rng.uniform(-1, 1) for _ in range(4)}
        tb = {(rng.randint(0, 3), rng.randint(0, 3)): rng.uniform(-1, 1) for _ in range(4)}
        a, b = pm(ta, cap=6), pm(tb, cap=6)
        full = a * b
        low = pm(ta, cap=3) * pm(tb, cap=3)
        for _ in range(10):
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = a.eval_point(z) * b.eval_point(z)
            assert abs(v - low.eval_point(z)) <= low.error * (1 + 1e-9) + 1e-13
            assert abs(v - full.eval_point(z)) <= full.error * (1 + 1e-9) + 1e-13


def test_substitute_unit_endpoint():
    m = pm({(2, 1): 0.5, (1, 1): 0.25, (0, 1): -1.0, (0, 0): 2.0})
    r = m.substitute_unit(0, 1.0)
    assert r.arity == 1
    assert unpack(r) == {(1,): -0.25, (0,): 2.0}
    r2 = m.substitute_unit(0, -1.0)
    assert unpack(r2) == {(1,): -0.75, (0,): 2.0}


def _random_key(rng, arity, degree):
    exps = [0] * arity
    for _ in range(degree):
        exps[rng.randrange(arity)] += 1
    return sum(e << (4 * i) for i, e in enumerate(exps))


def _random_model(rng, vars_, cap, keys):
    # dyadic coefficients make sums of products cancel exactly now and then
    terms = {}
    for _ in range(rng.randint(0, 30)):
        k = rng.choice(keys) if keys and rng.random() < 0.5 else _random_key(rng, len(vars_), rng.randint(0, cap + 2))
        keys.append(k)
        c = rng.choice([1.0, -1.0, 0.5, -0.25, 3.0]) if rng.random() < 0.4 else rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3)
        terms[k] = c
    error = rng.choice([0.0, 0.0, rng.random() * 1e-6])
    return PolynomialModel(vars_, terms, error, cap)


def _degree(key):
    return sum((key >> (4 * i)) & 0xF for i in range(16))


_SCALE = 1074  # 2**1074 times a finite double is an integer


def _scaled(x):
    """The double x times 2**1074, an exact integer."""
    n, d = x.as_integer_ratio()
    return n * ((1 << _SCALE) // d)


def _check_mul(a, b):
    """a * b against an all-pairs expansion over the rationals (integers
    scaled by 2**2148): the error covers the coefficient deviations, the
    exact dropped mass and the propagated operand errors."""
    cap = a.max_degree
    r = a * b
    right = [(k, _degree(k), _scaled(c)) for k, c in b.terms.items()]
    exact = {}
    dropped = 0
    for k1, c1 in a.terms.items():
        d1, c1 = _degree(k1), _scaled(c1)
        for k2, d2, c2 in right:
            if d1 + d2 > cap:
                dropped += abs(c1 * c2)
            else:
                exact[k1 + k2] = exact.get(k1 + k2, 0) + c1 * c2
    assert set(r.terms) <= set(exact)
    assert all(_degree(k) <= cap for k in r.terms)
    err = _scaled(r.error) << _SCALE
    deviation = 0
    for k, v in exact.items():
        d = abs((_scaled(r.terms.get(k, 0.0)) << _SCALE) - v)
        assert d <= err
        deviation += d
    assert err >= dropped
    mass_a = sum(abs(_scaled(c)) for c in a.terms.values())
    mass_b = sum(abs(_scaled(c)) for c in b.terms.values())
    ea, eb = _scaled(a.error), _scaled(b.error)
    assert err >= deviation + dropped + mass_a * eb + mass_b * ea + ea * eb


@pytest.fixture
def kernels(monkeypatch):
    """Counts of the products each kernel computed (a declined dense
    product does not count)."""
    used = {"dense": 0, "pairs": 0}

    def counted(name, kernel):
        def run(*args):
            part = kernel(*args)
            used[name] += part is not None
            return part

        monkeypatch.setattr(polymodel, kernel.__name__, run)

    counted("dense", polymodel._dense_product)
    counted("pairs", polymodel._pair_product)
    return used


def test_mul_exact_fuzz(kernels):
    """The truncated product encloses its exact rational answer.  Some
    operands are exact constants (0, +-1 or a random value), which the
    product scales by; the other operand often has terms above the cap.
    Operands without such terms and of low cap are large enough for the
    dense kernel."""
    rng = random.Random(83)
    scalars = 0
    for _ in range(400):
        arity, cap = rng.randint(3, 8), rng.randint(0, 7)
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        keys = []
        a = _random_model(rng, vars_, cap, keys)
        b = _random_model(rng, vars_, cap, keys)
        if rng.random() < 0.3:
            a, b = (
                PolynomialModel(vars_, {k: c for k, c in m.terms.items() if _degree(k) <= cap}, m.error, cap)
                for m in (a, b)
            )
        if rng.random() < 0.3:
            # a times a with some signs flipped: cross terms cancel exactly
            b = PolynomialModel(vars_, {k: rng.choice([c, -c]) for k, c in a.terms.items()}, b.error, cap)
        if rng.random() < 0.3:
            s = rng.choice([0.0, 1.0, -1.0, rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3)])
            const = PolynomialModel.constant(s, vars_, cap)
            a, b = (const, b) if rng.random() < 0.5 else (a, const)
            scalars += 1
        _check_mul(a, b)
    assert scalars >= 100
    assert kernels["dense"] >= 5 and kernels["pairs"] >= 100


def _dense_operands(rng, keys, fill, case):
    """Term dicts a and b over the monomials keys, each held with
    probability fill.  In case "ties" and "underflow" every product rounds
    the same way, which is what the slack must cover:

    - ties: a's constant is 2**53 times its other terms, and b's terms are
      all equal, so slot k first gets a_0 * b_k, a power of two, and every
      later product is half its ulp; each such addition rounds to even and
      loses it, n_k - 1 times in all;
    - underflow: 3 * 2**-1074 times 0.5, where each product rounds up by
      2**-1075.

    Otherwise each operand has one coefficient regime (huge times huge,
    which overflows, is left to the overflow test), and b is sometimes a
    with some signs flipped, so that cross terms cancel exactly."""
    held = [k for k in keys if k == 0 or rng.random() < fill]
    if case == "ties":
        s = 2.0 ** rng.randint(-400, 400)
        return {k: s * (2.0**53 if k == 0 else 1.0) for k in held}, {k: s for k in held}
    if case == "underflow":
        return {k: 3 * _SUBNORMAL for k in held}, {k: 0.5 for k in held}
    ra = rng.choice(_REGIMES)
    rb = rng.choice([r for r in _REGIMES if ra != "huge" or r != "huge"])
    a = {k: _fuzz_coefficient(rng, ra) for k in held}
    if ra != "huge" and rng.random() < 0.3:
        return a, {k: rng.choice([c, -c]) for k, c in a.items()}
    return a, {k: _fuzz_coefficient(rng, rb) for k in keys if rng.random() < fill}


def _dense_fuzz(seed, count, fill):
    """Products of models at (arity, cap) = (5, 5) and (8, 3) built by
    _dense_operands; every fifth case is ties and every fifth underflow,
    without operand errors, which would hide the rounding."""
    rng = random.Random(seed)
    for n in range(count):
        arity, cap = rng.choice([(5, 5), (8, 3)])
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        case = ("ties", "underflow", "regimes", "regimes", "regimes")[n % 5]
        a, b = _dense_operands(rng, polymodel._layout(arity, cap).keys, fill, case)
        errors = [0.0, 0.0, 0.0, rng.random() * 1e-6, _SUBNORMAL] if case == "regimes" else [0.0]
        _check_mul(
            PolynomialModel(vars_, a, rng.choice(errors), cap),
            PolynomialModel(vars_, b, rng.choice(errors), cap),
        )


def test_dense_mul_exact_fuzz(kernels):
    """Half-full models take the dense kernel and enclose the exact
    product: with ties and underflows that round one way, cancellations,
    coefficients near 2**+-1000 and subnormals."""
    _dense_fuzz(seed=89, count=80, fill=0.5)
    assert kernels["dense"] >= 60


@pytest.mark.slow
def test_dense_mul_exact_fuzz_full(kernels):
    _dense_fuzz(seed=97, count=100, fill=1.0)
    assert kernels["dense"] == 100


def _full_model(rng, arity, cap, coefficient):
    vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
    keys = polymodel._layout(arity, cap).keys
    return PolynomialModel(vars_, {k: coefficient(rng) for k in keys}, 0.0, cap)


def test_dense_overflow_raises_like_pair_loop(monkeypatch):
    """Squaring 252 terms of +-1e200 overflows: the dense kernel declines
    it without a numpy warning, and the pair loop raises, as it does when
    the dense kernel is never chosen."""
    a = _full_model(random.Random(5), 5, 5, lambda rng: rng.choice([1e200, -1e200]))
    layout = polymodel._layout(5, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polymodel._dense_product(a.terms, a.terms, layout) is None
        with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
            a * a
        monkeypatch.setattr(polymodel, "_pair_count", lambda arity, cap: math.inf)
        with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
            a * a


def test_dense_product_deterministic():
    """A dense product is bit-identical across repeats and across operands
    that hold the same terms in another insertion order (error-free, so the
    error is the kernel's own slack and dropped mass)."""
    rng = random.Random(7)
    a = _full_model(rng, 5, 5, lambda rng: rng.uniform(-1, 1))
    b = _full_model(rng, 5, 5, lambda rng: rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 3))
    first = a * b
    assert _bits(a * b) == _bits(first)
    for _ in range(3):
        shuffled = []
        for m in (a, b):
            items = list(m.terms.items())
            rng.shuffle(items)
            shuffled.append(PolynomialModel(m.vars, dict(items), m.error, m.max_degree))
        assert _bits(shuffled[0] * shuffled[1]) == _bits(first)


def test_layout_built_only_for_large_products(monkeypatch):
    """A product below the pair count of its (arity, cap), such as 30 x 30
    terms at (8, 7), whose layout would hold 245,157 pairs, builds no
    layout; a 252 x 252 product at (5, 5) builds one."""
    monkeypatch.setattr(polymodel, "_LAYOUTS", {})
    rng = random.Random(11)
    vars8 = tuple(VarInfo(Role.STATE, axis=i) for i in range(8))
    for _ in range(20):
        a, b = (
            PolynomialModel(vars8, {_random_key(rng, 8, rng.randint(0, 7)): rng.uniform(-1, 1) for _ in range(30)}, 0.0, 7)
            for _ in range(2)
        )
        a * b
    assert polymodel._LAYOUTS == {}
    vars5 = tuple(VarInfo(Role.STATE, axis=i) for i in range(5))
    full = PolynomialModel(vars5, {k: 0.5 for k in polymodel._DenseLayout(5, 5).keys}, 0.0, 5)
    full * full
    assert list(polymodel._LAYOUTS) == [(5, 5)]


# ---------------------------------------------------------------- exact soundness fuzz
# Each case checks an operation against its exact answer over the rationals,
# on models of arity 1-8 whose coefficients are +-1, random values, values
# near 2**1000 or 2**-1000, or subnormals: the result must enclose it.

_SUBNORMAL = 5e-324


def _fuzz_coefficient(rng, regime):
    if regime == "unit":
        return rng.choice([1.0, -1.0])
    if regime == "huge":
        return rng.uniform(-2, 2) * 2.0**1000
    if regime == "tiny":
        return rng.uniform(-2, 2) * 2.0**-1000
    if regime == "subnormal":
        return rng.choice([1, -1]) * rng.randint(1, 2**20) * _SUBNORMAL
    return rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3)


_REGIMES = ("unit", "huge", "tiny", "subnormal", "random")


def _fuzz_model(rng, vars_, cap, n_terms, regime=None):
    """A model with up to n_terms terms, some of them above the cap; one
    coefficient regime, or a mix of all of them."""
    terms = {}
    for _ in range(n_terms):
        key = _random_key(rng, len(vars_), rng.randint(0, cap + 1))
        terms[key] = _fuzz_coefficient(rng, regime or rng.choice(_REGIMES))
    error = rng.choice([0.0, 0.0, rng.random() * 1e-6, _SUBNORMAL])
    return PolynomialModel(vars_, terms, error, cap)


def _fuzz_cases(seed, count, max_arity, max_terms):
    rng = random.Random(seed)
    for i in range(count):
        arity = rng.randint(1, max_arity)
        n_terms = max_terms if i % 10 == 0 else rng.randint(1, max_terms)
        regime = rng.choice(_REGIMES + (None,))
        yield rng, arity, rng.randint(1, 7), n_terms, regime


def _check_range(rng, m):
    odd = polymodel._odd_mask(m.arity)
    lo = hi = Fraction(m.terms.get(0, 0.0))
    for k, c in m.terms.items():
        a = abs(Fraction(c))
        if k & odd:
            lo, hi = lo - a, hi + a
        elif k and c > 0:
            hi += a
        elif k:
            lo -= a
    r = m.range()
    assert Fraction(r.lo) <= lo - Fraction(m.error)
    assert Fraction(r.hi) >= hi + Fraction(m.error)


def _check_sweep(rng, m):
    positions = rng.sample(range(m.arity), rng.randint(1, m.arity))
    mask = sum(0xF << (4 * p) for p in positions)
    r = m.sweep(positions, drop=False)
    assert r.terms == {k: c for k, c in m.terms.items() if not k & mask}
    swept = sum((abs(Fraction(c)) for k, c in m.terms.items() if k & mask), Fraction(0))
    assert Fraction(r.error) >= Fraction(m.error) + swept


def _check_antiderivative(rng, m):
    # the time variable at a random position, with a radius that rounds
    # (0.05, 0.3), a power of two, or one that makes products underflow
    tpos = rng.randrange(m.arity)
    radius = rng.choice([0.05, 0.5, 0.3, 2.0**-40])
    vars_ = m.vars[:tpos] + (VarInfo(Role.TIME, center=radius, radius=radius),) + m.vars[tpos + 1 :]
    m = PolynomialModel(vars_, m.terms, m.error, m.max_degree)
    r = m.antiderivative(tpos)
    radius = Fraction(m.vars[tpos].radius)
    shift = 4 * tpos
    exact: dict[int, Fraction] = {}
    dropped = Fraction(0)
    for k, c in m.terms.items():
        e = (k >> shift) & 0xF
        coeff = Fraction(c) * radius / (e + 1)
        if _degree(k) + 1 > m.max_degree:
            dropped += abs(coeff)
        else:
            exact[k + (1 << shift)] = exact.get(k + (1 << shift), Fraction(0)) + coeff
        base = k & ~(0xF << shift)
        exact[base] = exact.get(base, Fraction(0)) + (coeff if e % 2 == 0 else -coeff)
    assert set(r.terms) <= set(exact)
    deviation = sum((abs(Fraction(r.terms.get(k, 0.0)) - v) for k, v in exact.items()), Fraction(0))
    assert Fraction(r.error) >= deviation + dropped + Fraction(m.error) * 2 * radius


def _check_substitute_unit(rng, m):
    position = rng.randrange(m.arity)
    value = rng.choice([-1.0, 1.0])
    r = m.substitute_unit(position, value)
    exact: dict[tuple, Fraction] = {}
    for exps, c in unpack(m).items():
        rest = exps[:position] + exps[position + 1 :]
        sign = -1 if value == -1.0 and exps[position] % 2 else 1
        exact[rest] = exact.get(rest, Fraction(0)) + sign * Fraction(c)
    got = unpack(r)
    assert set(got) <= set(exact)
    deviation = sum((abs(Fraction(got.get(k, 0.0)) - v) for k, v in exact.items()), Fraction(0))
    assert Fraction(r.error) >= Fraction(m.error) + deviation


_STRUCTURE_CHECKS = {
    "range": _check_range,
    "sweep": _check_sweep,
    "substitute_unit": _check_substitute_unit,
    "antiderivative": _check_antiderivative,
}


def _structure_fuzz(op, seed, count, max_arity, max_terms):
    check = _STRUCTURE_CHECKS[op]
    for rng, arity, cap, n_terms, regime in _fuzz_cases(seed, count, max_arity, max_terms):
        states = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        check(rng, _fuzz_model(rng, states, cap, n_terms, regime))


@pytest.mark.parametrize("op", sorted(_STRUCTURE_CHECKS))
def test_structure_ops_exact_fuzz(op):
    """range, sweep, substitute_unit and antiderivative enclose their exact
    rational answers."""
    _structure_fuzz(op, seed=101, count=300, max_arity=8, max_terms=40)


@pytest.mark.slow
@pytest.mark.parametrize("op", sorted(_STRUCTURE_CHECKS))
def test_structure_ops_exact_fuzz_large(op):
    _structure_fuzz(op, seed=103, count=200, max_arity=8, max_terms=800)


def _check_series_sum(rng, powers):
    coeffs = []
    for _ in powers:
        mid = rng.choice([0.0, 1.0, -0.5, rng.uniform(-2, 2), rng.uniform(-2, 2) * 2.0**-600])
        rad = rng.choice([0.0, 0.0, abs(mid) * 1e-16, 1e-300])
        coeffs.append(Interval(mid - rad, mid + rad))
    mags = [p.range().mag for p in powers]
    r = polymodel._series_sum(coeffs, powers, mags.__getitem__)
    exact: dict[int, Fraction] = {}
    needed = Fraction(0)
    for a, power, mag in zip(coeffs, powers, mags):
        m = Fraction(a.mid)
        for key, c in power.terms.items():
            exact[key] = exact.get(key, Fraction(0)) + m * Fraction(c)
        needed += abs(m) * Fraction(power.error) + Fraction(a.rad) * Fraction(mag)
    assert set(r.terms) <= set(exact)
    needed += sum((abs(Fraction(r.terms.get(k, 0.0)) - v) for k, v in exact.items()), Fraction(0))
    assert Fraction(r.error) >= needed


def _series_sum_fuzz(seed, count, max_arity, max_terms):
    for rng, arity, cap, n_terms, regime in _fuzz_cases(seed, count, max_arity, max_terms):
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        # powers of one argument share their keys now and then, so merges cancel
        keys = []
        powers = []
        for _ in range(rng.randint(1, 8)):
            m = _fuzz_model(rng, vars_, cap, rng.randint(0, n_terms), regime)
            if keys and rng.random() < 0.5:
                m = PolynomialModel(vars_, {rng.choice(keys): c for c in m.terms.values()}, m.error, cap)
            keys.extend(m.terms)
            powers.append(m)
        _check_series_sum(rng, powers)


def test_series_sum_exact_fuzz():
    """The one-pass Taylor sum of mid(a_k) * powers[k], with its error
    terms, encloses the exact sum over every a_k."""
    _series_sum_fuzz(seed=107, count=300, max_arity=8, max_terms=40)


@pytest.mark.slow
def test_series_sum_exact_fuzz_large():
    _series_sum_fuzz(seed=109, count=200, max_arity=8, max_terms=800)


def test_subnormal_products_keep_their_rounding_error():
    """A product that underflows can round by up to 2**-1075, which a
    relative slack of |v| * eps does not see: 3 * 2**-1074 times 0.5 rounds
    to 2 * 2**-1074."""
    v1 = (VarInfo(Role.STATE),)
    tiny = 3 * _SUBNORMAL
    exact = Fraction(tiny) / 2

    def off_by(model, key, value):
        return abs(Fraction(model.terms.get(key, 0.0)) - value)

    m = PolynomialModel(v1, {1: tiny}, 0.0, 3)
    r = m.scale(0.5)
    assert r.terms == {1: 2 * _SUBNORMAL}
    assert Fraction(r.error) >= off_by(r, 1, exact) > 0

    # not an exact constant, so the pair loop: six products that each round
    halves = PolynomialModel(v1, {j: 0.5 for j in range(6)}, 0.0, 7)
    r = PolynomialModel(v1, {1: tiny}, 0.0, 7) * halves
    assert Fraction(r.error) >= sum(off_by(r, j + 1, exact) for j in range(6)) > 2 * Fraction(_SUBNORMAL)

    time = (VarInfo(Role.TIME, center=0.5, radius=0.5),)
    r = PolynomialModel(time, {0: tiny}, 0.0, 3).antiderivative(0)
    assert Fraction(r.error) >= off_by(r, 0, exact) + off_by(r, 1, exact)
