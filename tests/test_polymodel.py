import math
import random
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
    e = pm({(1, 0): 0.3, (0, 2): -1.7}, error=1e-3)
    r = pm({(0, 0): 0.1}) * e
    assert 0.1 * 1e-3 <= r.error < pm({(0, 0): 0.1}).poly_magnitude() * 1e-3
    # a constant with an error is no scalar
    assert (pm({(0, 0): 2.0}, error=1e-9) * m).error >= m.poly_magnitude() * 1e-9


def test_truncation_preserves_enclosure():
    rng = random.Random(59)
    for _ in range(500):
        a = pm({(rng.randint(0, 3), rng.randint(0, 3)): rng.uniform(-1, 1) for _ in range(4)}, cap=6)
        b = pm({(rng.randint(0, 3), rng.randint(0, 3)): rng.uniform(-1, 1) for _ in range(4)}, cap=6)
        full = a * b  # cap 6 keeps everything
        low = a.truncate(3) * b.truncate(3)
        for _ in range(10):
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = a.eval_point(z) * b.eval_point(z)
            assert abs(v - low.eval_point(z)) <= low.error * (1 + 1e-9) + 1e-13
            assert abs(v - full.eval_point(z)) <= full.error * (1 + 1e-9) + 1e-13


def test_affine_substitute_halves():
    rng = random.Random(61)
    m = pm({(2, 1): 0.7, (1, 0): -0.4, (0, 3): 0.2}, error=0.01)
    lo = m.affine_substitute(0, -0.5, 0.5)
    hi = m.affine_substitute(0, 0.5, 0.5)
    for _ in range(500):
        z1, z2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        v_lo = m.eval_point((-0.5 + 0.5 * z1, z2))
        v_hi = m.eval_point((0.5 + 0.5 * z1, z2))
        assert lo.eval_point((z1, z2)) == pytest.approx(v_lo, abs=1e-12)
        assert hi.eval_point((z1, z2)) == pytest.approx(v_hi, abs=1e-12)


def test_substitute_unit_endpoint():
    m = pm({(2, 1): 0.5, (1, 1): 0.25, (0, 1): -1.0, (0, 0): 2.0})
    r = m.substitute_unit(0, 1.0)
    assert r.arity == 1
    assert unpack(r) == {(1,): -0.25, (0,): 2.0}
    r2 = m.substitute_unit(0, -1.0)
    assert unpack(r2) == {(1,): -0.75, (0,): 2.0}


def test_compress_moves_mass_to_error():
    m = pm({(1, 0): 1.0, (0, 1): 1e-16})
    c = m.compress(1e-15)
    assert unpack(c) == {(1, 0): 1.0}
    assert c.error >= 1e-16


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


def test_mul_exact_fuzz():
    """The truncated product against an all-pairs expansion over the
    rationals: the error covers the coefficient deviations, the exact
    dropped mass and the propagated operand errors.  Some operands are
    exact constants (0, +-1 or a random value), which the product scales
    by; the other operand often has terms above the cap."""
    rng = random.Random(83)
    scalars = 0
    for _ in range(400):
        arity, cap = rng.randint(3, 8), rng.randint(0, 7)
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        keys = []
        a = _random_model(rng, vars_, cap, keys)
        b = _random_model(rng, vars_, cap, keys)
        if rng.random() < 0.3:
            # a times a with some signs flipped: cross terms cancel exactly
            b = PolynomialModel(vars_, {k: rng.choice([c, -c]) for k, c in a.terms.items()}, b.error, cap)
        if rng.random() < 0.3:
            s = rng.choice([0.0, 1.0, -1.0, rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3)])
            const = PolynomialModel.constant(s, vars_, cap)
            a, b = (const, b) if rng.random() < 0.5 else (a, const)
            scalars += 1
        r = a * b
        exact = {}
        dropped = Fraction(0)
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                c = Fraction(c1) * Fraction(c2)
                if _degree(k1) + _degree(k2) > cap:
                    dropped += abs(c)
                else:
                    exact[k1 + k2] = exact.get(k1 + k2, Fraction(0)) + c
        assert set(r.terms) <= set(exact)
        assert all(_degree(k) <= cap for k in r.terms)
        err = Fraction(r.error)
        deviation = Fraction(0)
        for k, v in exact.items():
            d = abs(Fraction(r.terms.get(k, 0.0)) - v)
            assert d <= err
            deviation += d
        assert err >= dropped
        mass_a = sum(abs(Fraction(c)) for c in a.terms.values())
        mass_b = sum(abs(Fraction(c)) for c in b.terms.values())
        ea, eb = Fraction(a.error), Fraction(b.error)
        assert err >= deviation + dropped + mass_a * eb + mass_b * ea + ea * eb
    assert scalars >= 100
