import copy
import math
import pickle
import random
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from direach import dense, polymodel
from direach.interval import Box, Interval, IntervalDomainError, _add_up
from direach.polymodel import (
    FLOAT_OPS,
    ArityMismatchError,
    FloatPolynomial,
    PolynomialModel,
    Role,
    VarInfo,
    VectorModel,
    compose_expr,
)
from direach.symexpr import Add, Const, Cos, Div, Exp, InputAffineSystem, Mul, Pow, Program, Sin, Sub, Var, parse
from test_symexpr import UNDEFINED, _random_system

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


TIME2 = (VarInfo(Role.STATE), VarInfo(Role.TIME, radius=0.05))


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
    m = PolynomialModel.constant(0.0, TIME2, 5).add_error(0.1)
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
    # a Const built with an int value scales as its float does
    for e, text in ((Div(Var(1), Const(3)), "x1/3"), (Mul(Const(3), Var(1)), "3*x1")):
        assert _bits(compose_expr(e, args)) == _bits(compose_expr(parse(text), args))
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


def test_compose_program_bit_identical():
    # sin(x3) and cos(x3) recur across the fields; the system's program
    # gives each one slot, so one run of it composes each of them once
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
            PolynomialModel.constant(0.5 + i, vars3, 3).add_error(1e-9)
            + PolynomialModel.from_var(i, vars3, 3).scale(0.1)
            for i in range(3)
        )
    )
    vals = compose_expr(sys.program, args, 0)
    for e, slot in zip(exprs, sys.program.roots):
        alone = compose_expr(e, args)
        if isinstance(vals[slot], float):
            # an input field that is a Const comes as the float it scales by
            assert alone == PolynomialModel.constant(vals[slot], vars3, 3) and e.value == vals[slot]
        else:
            assert _bits(vals[slot]) == _bits(alone)
    # the fields' nodes, which come first, against the nodes of each alone
    assert max(sys.program.roots[: len(exprs)]) + 1 < sum(len(Program(((e,),)).code) for e in exprs)


def _bits(model):
    return [(k, c.hex()) for k, c in model.terms.items()], model.error.hex()


def test_compose_power_table_shared_bit_identical(monkeypatch):
    # sin, cos, exp and the reciprocals of one shared argument expand it
    # once per argument model, and each result equals its composition alone
    arg = "(2 + 0.3*x1 - 0.2*x1*x2 + 0.05*x3^2)"
    texts = [f"sin{arg}", f"cos{arg}", f"exp{arg}", f"1/{arg}", f"{arg}^-2"]
    sys = InputAffineSystem(len(texts), texts)  # the argument is one slot
    vars3 = tuple(VarInfo(Role.STATE, axis=i) for i in range(3))
    args = VectorModel(
        tuple(
            PolynomialModel.constant(0.2 * i, vars3, 4).add_error(1e-9)
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
    vals = compose_expr(sys.program, args, 0)
    shared = [vals[slot] for slot in sys.program.roots[: len(texts)]]
    assert len(built) == 1
    alone = [compose_expr(e, args) for e in sys.f]
    assert len(built) == 1 + len(texts)
    for s, a in zip(shared, alone):
        assert _bits(s) == _bits(a)
        assert s.error > 0.0
    # the table lives on its argument model, not in a run: sin and cos of
    # one model, composed in two runs, share it
    del built[:]
    inner = args[0] * args[1] + args[2]
    first = [compose_expr(parse(f"{f}(x1)"), [inner]) for f in ("sin", "cos")]
    assert built == [inner]
    fresh = inner.with_error(inner.error)  # the same model, no table yet
    # the table is a cache, not a field
    assert inner == fresh and repr(inner) == repr(fresh) and pickle.loads(pickle.dumps(inner))._table is None
    assert [_bits(compose_expr(parse(f"{f}(x1)"), [fresh])) for f in ("sin", "cos")] == [_bits(m) for m in first]


def test_poly_magnitude_is_kept_as_a_cache(monkeypatch):
    """A model computes its poly_magnitude once, also when a square reads
    it for both operands, and keeps it in a cache that equality, repr and
    pickles do not see."""
    calls = []
    magnitude = dense._magnitude
    monkeypatch.setattr(dense, "_magnitude", lambda v: calls.append(v) or magnitude(v))
    m = _carrying(pm({(0, 0): 0.5, (1, 0): -0.25, (1, 1): 0.125}, error=1e-9, cap=4))
    square = m * m
    assert len(calls) == 1
    assert m.poly_magnitude() == m.poly_magnitude() and len(calls) == 1
    fresh = m.with_error(m.error)  # the same model, nothing cached yet
    assert fresh == m and repr(fresh) == repr(m) and pickle.loads(pickle.dumps(m))._mag is None
    assert fresh.poly_magnitude().hex() == m.poly_magnitude().hex() and len(calls) == 2
    assert _bits(fresh * fresh) == _bits(square)


def test_power_table_takes_sin_cos_once(monkeypatch):
    """sin and cos of one argument share sin(c) and cos(c) through the
    power table: one iv_sin and one iv_cos per table, and each result
    equals its composition alone."""
    calls = []
    for name in ("iv_sin", "iv_cos"):
        fn = getattr(polymodel, name)
        monkeypatch.setattr(polymodel, name, lambda x, fn=fn, name=name: calls.append(name) or fn(x))
    sys = InputAffineSystem(2, ["0.3*sin(x1 + 0.1*x2^2)", "0.3*cos(x1 + 0.1*x2^2)"])
    args = VectorModel(tuple(pm({(1, 0): 0.5, (0, 0): 0.2 * i}, error=1e-9, cap=4) for i in range(2)))
    vals = compose_expr(sys.program, args, 0)
    shared = [vals[slot] for slot in sys.program.roots[:2]]
    assert sorted(calls) == ["iv_cos", "iv_sin"]
    for s, e in zip(shared, sys.f):
        assert _bits(s) == _bits(compose_expr(e, args))


def test_power_table_starts_from_delta(monkeypatch):
    """The first power is delta = inner - c itself, not 1 * delta: building
    the powers scales nothing (a scale by 1.0 copies every term and charges
    slack for an exact product), and every later power is the previous one
    times delta, over a dict and over a slot vector."""
    scales = []
    scale = PolynomialModel.scale
    monkeypatch.setattr(PolynomialModel, "scale", lambda self, s: scales.append(s) or scale(self, s))
    inner = pm({(0, 0): 0.3, (1, 0): 0.5, (0, 1): -0.25, (1, 1): 0.125}, error=1e-9, cap=4)
    for model in (inner, _carrying(inner), pm({(0, 0): 0.5}, cap=0)):
        table = polymodel._PowerTable(model)
        delta = model.add_scalar(-table.c)
        powers = table.powers(model)
        assert scales == []
        assert len(powers) == model.max_degree + 1
        assert _bits(powers[0]) == _bits(PolynomialModel.constant(1.0, model.vars, model.max_degree))
        if model.max_degree:
            assert _bits(powers[1]) == _bits(delta) and powers[1].error == delta.error
        for k in range(2, len(powers)):
            assert _bits(powers[k]) == _bits(powers[k - 1] * delta)


def test_compose_domain_errors_keep_messages():
    # finite coefficients whose magnitudes sum past the largest double
    wild = pm({(1, 0): 1.5e308, (3, 0): 1.5e308})
    args = VectorModel((wild, pm({(0, 1): 1.0})))
    for kind in ("sin", "cos", "exp"):
        # each kind reports itself, also when a table for the argument exists
        with pytest.raises(IntervalDomainError, match=f"^{kind} composition requires a finite range$"):
            compose_expr(parse(f"{kind}(x1)"), args)
    straddler = VectorModel((pm({(1, 0): 1.0, (0, 0): 0.5}), pm({(0, 1): 1.0})))
    for text in ("1/x1", "x1^-2", "sin(x1)/x1"):
        with pytest.raises(IntervalDomainError, match="^reciprocal of a model whose range contains zero$"):
            compose_expr(parse(text), straddler)


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


def _low_degree_terms(rng, degree):
    terms = {}
    for _ in range(4):
        i = rng.randint(0, degree)
        terms[i, rng.randint(0, degree - i)] = rng.uniform(-1, 1)
    return terms


def test_constructor_admits_only_finite_terms_within_the_cap():
    """The constructor decides what a model may hold: a key that is not a
    monomial of its variables of degree <= cap, a non-finite coefficient,
    or an error that is not finite and nonnegative raise ValueError, from
    constant and from_var too (cap 0 has no term of degree 1).  What an
    operation builds is not checked again; a result whose error overflows
    raises IntervalDomainError."""
    for key in (0x33, 0x6, 1 << 8, -1):  # degree 6 and 6 at cap 5, a third variable, no monomial
        with pytest.raises(ValueError, match="is not a monomial of 2 variables of degree <= 5$"):
            PolynomialModel(V2, {0: 1.0, key: 0.5}, 0.0, 5)
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^model coefficients must be finite$"):
            PolynomialModel(V2, {1: c}, 0.0, 5)
        with pytest.raises(ValueError, match="^model coefficients must be finite$"):
            PolynomialModel.constant(c, V2, 5)
    for e in (math.inf, math.nan, -1e-300):
        with pytest.raises(ValueError, match="^model error must be finite and nonnegative$"):
            PolynomialModel(V2, {1: 1.0}, e, 5)
    for cap in (-1, 8):
        with pytest.raises(ValueError, match="^degree cap must be between 0 and 7$"):
            PolynomialModel(V2, {}, 0.0, cap)
    with pytest.raises(ValueError, match="is not a monomial"):
        PolynomialModel.from_var(0, V2, 0)
    assert PolynomialModel.constant(2.0, V2, 0).terms == {0: 2.0}
    m = pm({(1, 1): 1.0, (5, 0): 2.0, (0, 0): -3.0}, error=1e-3)
    assert unpack(m) == {(1, 1): 1.0, (5, 0): 2.0, (0, 0): -3.0} and m.error == 1e-3
    # the model keeps its own copy of the checked terms
    terms = {0: 1.0}
    m = PolynomialModel(V2, terms, 0.0, 5)
    terms[0] = math.inf
    assert m.terms == {0: 1.0}
    with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
        pm({(1, 0): 1.0}, error=1.7e308) + pm({(0, 1): 1.0}, error=1.7e308)


_TIME = (VarInfo(Role.STATE, axis=0), VarInfo(Role.TIME, radius=0.5))


def _role_from_its_value():
    # the role's value is the role: antiderivative finds its time variable
    vars_ = (VarInfo(Role.STATE, axis=0), VarInfo("time", radius=0.5))
    assert vars_ == _TIME and vars_[1].role is Role.TIME
    r = PolynomialModel(vars_, {0: 1.0, 1: 0.5}, 0.0, 3).antiderivative(1)
    assert r == PolynomialModel(_TIME, {0: 1.0, 1: 0.5}, 0.0, 3).antiderivative(1)


def _components_copied():
    # the vector model keeps its own tuple, so its kept box cannot go stale
    components = [pm({(1, 0): 1.0})]
    vm = VectorModel(components)
    vm.box()
    components.append(pm({(0, 1): 2.0}))
    assert isinstance(vm.components, tuple) and vm.n == 1 and len(vm.box().components) == 1


def _refused(message, build):
    def check():
        with pytest.raises(ValueError, match=message):
            build()

    return check


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(_refused("^degree cap 2.5 is not an int$", lambda: PolynomialModel(V2, {0: 1.0}, 0.0, 2.5)), id="cap-2.5"),
        pytest.param(_refused("^degree cap 3.0 is not an int$", lambda: PolynomialModel(V2, {0: 1.0}, 0.0, 3.0)), id="cap-3.0"),
        *(
            pytest.param(_refused("^model variables must be a tuple of VarInfo$", lambda v=v: PolynomialModel(v, {}, 0.0, 3)), id=name)
            for name, v in (("vars-list", list(V2)), ("vars-str", ("x1",)))
        ),
        pytest.param(
            _refused("^unknown variable role 'bogus'; expected one of: state, input, time$", lambda: VarInfo("bogus")), id="role-bogus"
        ),
        *(
            pytest.param(
                _refused(f"^variable radius {r!r} is not positive and finite$", lambda r=r: VarInfo(Role.TIME, radius=r)),
                id=f"radius-{r}",
            )
            for r in (-0.5, 0.0, math.nan, math.inf)
        ),
        pytest.param(_role_from_its_value, id="role-value"),
        pytest.param(_components_copied, id="components-list"),
    ],
)
def test_constructors_reject_what_fails_later(check):
    """The public constructors refuse, with a ValueError that names it, or
    normalize what a later operation would trip on: a degree cap that is a
    float (the first product raised a bare TypeError), variables that are
    not a tuple of VarInfo (extend raised TypeError), a role that is not a
    Role (antiderivative did not find a time variable given "time"), a
    radius that is not positive and finite (-0.5 negated an integral, NaN
    raised "model arithmetic overflowed"), and a list of components (the
    vector model shared it with its caller)."""
    check()


def test_reciprocal_remainder_overflow_raises_domain_error():
    """The reciprocal's remainder factor (1/mig)**(d + 2) is rounded
    upward; past the largest double it is infinite, and the composition
    raises IntervalDomainError, not OverflowError."""
    v1 = (VarInfo(Role.STATE),)
    m = PolynomialModel(v1, {0: 1e-45, 1: 1e-47}, 0.0, 5)
    with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
        compose_expr(parse("1/x1"), [m])
    r = compose_expr(parse("1/x1"), [PolynomialModel(v1, {0: 2.0, 1: 0.25}, 0.0, 5)])
    for z in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert abs(1.0 / (2.0 + 0.25 * z) - r.eval_point((z,))) <= r.error


def test_truncation_preserves_enclosure():
    # the same operands of degree <= 3 at cap 6 and at cap 3, where the
    # product's terms of degree 4 to 6 drop into the error
    rng = random.Random(59)
    for _ in range(500):
        ta, tb = _low_degree_terms(rng, 3), _low_degree_terms(rng, 3)
        a, b = pm(ta, cap=6), pm(tb, cap=6)
        full = a * b
        low = pm(ta, cap=3) * pm(tb, cap=3)
        for _ in range(10):
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = a.eval_point(z) * b.eval_point(z)
            assert abs(v - low.eval_point(z)) <= low.error * (1 + 1e-9) + 1e-13
            assert abs(v - full.eval_point(z)) <= full.error * (1 + 1e-9) + 1e-13


@pytest.mark.parametrize("store", ["dict", "vector"])
def test_substitute_unit_rejects_positions_out_of_range(store):
    """substitute_unit raises IndexError for a position outside [0, arity)
    from either store, as sweep and from_var do."""
    m = pm({(2, 1): 0.5, (1, 1): 0.25, (0, 1): -1.0, (0, 0): 2.0})
    if store == "vector":
        m = _carrying(m)
    for position in (-1, m.arity, m.arity + 3):
        for value in (-1.0, 1.0):
            with pytest.raises(IndexError, match="^substitute position out of range$"):
                m.substitute_unit(position, value)


@pytest.mark.parametrize("store", ["dict", "vector", "float"])
def test_antiderivative_rejects_positions_out_of_range(store):
    """antiderivative raises IndexError for a position outside [0, arity)
    from the dict store, the vector store and the float domain, as
    substitute_unit does; -1 is refused although the last variable is the
    time variable."""
    m = pm({(2, 1): 0.5, (1, 1): 0.25, (0, 1): -1.0, (0, 0): 2.0}, vars=TIME2)
    if store == "float":
        integrate = lambda position: FloatPolynomial.of(m).antiderivative(position, 0.05)
    else:
        integrate = (_carrying(m) if store == "vector" else m).antiderivative
    for position in (-1, m.arity, m.arity + 3):
        with pytest.raises(IndexError, match="^antiderivative position out of range$"):
            integrate(position)


def test_substitute_unit_endpoint():
    m = pm({(2, 1): 0.5, (1, 1): 0.25, (0, 1): -1.0, (0, 0): 2.0})
    r = m.substitute_unit(0, 1.0)
    assert r.arity == 1
    assert unpack(r) == {(1,): -0.25, (0,): 2.0}
    r2 = m.substitute_unit(0, -1.0)
    assert unpack(r2) == {(1,): -0.75, (0,): 2.0}


def _nibble_remap(m, keep):
    # every nibble of every key moved to its new position
    out = {}
    for k, c in m.terms.items():
        nk = 0
        for new, old in enumerate(keep):
            nk |= ((k >> (4 * old)) & 0xF) << (4 * new)
        out[nk] = c
    return out


def _unreduced(m, op, positions, value):
    """The result of m.sweep(positions) or m.substitute_unit(positions[0],
    value) over all of m's variables, before the dropped ones leave the
    layout, as the operation's loop or kernel leaves it."""
    if op == "substitute_unit":
        if m._vec is not None:
            vec, slack = dense._dense_substitute_unit(m._vec, m._layout(), positions[0], value)
            terms = None
        else:
            terms, slack = polymodel._substitute_unit_loop(m._terms, positions[0], value)
            vec = None
        return PolynomialModel._of(m.vars, terms, vec, _add_up(m.error, polymodel._grown(slack)), m.max_degree)
    if m._vec is not None:
        dropped = m._layout().gather(tuple(i for i in range(m.arity) if i not in positions))[1]
        swept = np.abs(m._vec[dropped])
        kept = m._vec.copy()
        kept[dropped] = 0.0
        e = _add_up(m.error, polymodel._sum_bound(float(swept.sum()), dense._count(swept)))
        return PolynomialModel._of(m.vars, None, kept, e, m.max_degree)
    mask = sum(0xF << (4 * p) for p in positions)
    swept = [abs(c) for k, c in m._terms.items() if k & mask]
    s = 0.0
    for c in swept:
        s += c
    terms = {k: c for k, c in m._terms.items() if not k & mask}
    return PolynomialModel._of(m.vars, terms, None, _add_up(m.error, polymodel._sum_bound(s, len(swept))), m.max_degree)


@pytest.mark.parametrize("op", ["sweep", "substitute_unit"])
def test_trailing_drop_equals_general_route(op):
    """sweep of a trailing set of variables and substitute_unit of the last
    one build their result over the remaining variables directly; it equals,
    field for field, the operation over all variables followed by the
    per-nibble remap of the general route: vars, terms in order, error and
    store kind.  So does a drop that is not trailing, whose keys move."""
    rng = random.Random(173)
    trailing = total = 0
    for arity, cap in ((1, 3), (2, 5), (3, 3), (5, 5), (8, 3)):
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        for _ in range(30):
            m = _fuzz_model(rng, vars_, cap, rng.randint(0, 40), rng.choice(("unit", "random")))
            if op == "sweep":
                positions = sorted(rng.sample(range(arity), rng.randint(1, arity)))
                if rng.random() < 0.5:
                    positions = list(range(positions[0], arity))
            else:
                positions = [rng.choice((arity - 1, rng.randrange(arity)))]
            keep = [i for i in range(arity) if i not in positions]
            value = rng.choice((-1.0, 1.0))
            for x in _forms(m):
                total += 1
                full = _unreduced(x, op, positions, value)
                r = x.sweep(positions) if op == "sweep" else x.substitute_unit(positions[0], value)
                assert r.vars == tuple(vars_[i] for i in keep)
                assert [(k, c.hex()) for k, c in r.terms.items()] == [
                    (k, c.hex()) for k, c in _nibble_remap(full, keep).items()
                ]
                assert r.error.hex() == full.error.hex()
                assert (r._vec is None) == (x._vec is None)
                trailing += positions[0] == len(keep)
    assert 0 < trailing < total


def _random_key(rng, arity, degree):
    exps = [0] * arity
    for _ in range(degree):
        exps[rng.randrange(arity)] += 1
    return sum(e << (4 * i) for i, e in enumerate(exps))


def _random_model(rng, vars_, cap, keys):
    # dyadic coefficients make sums of products cancel exactly now and then
    terms = {}
    for _ in range(rng.randint(0, 30)):
        k = rng.choice(keys) if keys and rng.random() < 0.5 else _random_key(rng, len(vars_), rng.randint(0, cap))
        keys.append(k)
        c = rng.choice([1.0, -1.0, 0.5, -0.25, 3.0]) if rng.random() < 0.4 else rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3)
        terms[k] = c
    error = rng.choice([0.0, 0.0, rng.random() * 1e-6])
    return PolynomialModel(vars_, terms, error, cap)


def _degree(key):
    d = 0
    while key:
        d += key & 0xF
        key >>= 4
    return d


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
    """Counts of the calls of each kernel, by kernel name."""
    used = {}

    def counted(module, kernel):
        name = kernel.__name__
        used[name] = 0

        def run(*args):
            used[name] += 1
            return kernel(*args)

        monkeypatch.setattr(module, name, run)

    counted(polymodel, polymodel._pair_product)
    counted(dense, dense._dense_product)
    counted(dense, dense._dense_shift_product)
    counted(dense, dense._dense_antiderivative)
    counted(dense, dense._dense_substitute_unit)
    return used


def test_mul_exact_fuzz(kernels):
    """The truncated product encloses its exact rational answer.  Some
    operands are exact constants (0, +-1 or a random value), which the
    product scales by.  Operands of low cap are large enough for the dense
    kernel."""
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
        _check_mul(a, b)
    assert scalars >= 100
    assert kernels["_dense_product"] >= 5 and kernels["_pair_product"] >= 100


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
        a, b = _dense_operands(rng, dense._layout(arity, cap).keys, fill, case)
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
    assert kernels["_dense_product"] >= 60


@pytest.mark.slow
def test_dense_mul_exact_fuzz_full(kernels):
    _dense_fuzz(seed=97, count=100, fill=1.0)
    assert kernels["_dense_product"] == 100


def _full_model(rng, arity, cap, coefficient):
    vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
    keys = dense._layout(arity, cap).keys
    return PolynomialModel(vars_, {k: coefficient(rng) for k in keys}, 0.0, cap)


def _carrying(m):
    """m as a model that carries its slot vector, as a dense kernel's result
    does."""
    layout = dense._layout(m.arity, m.max_degree)
    return PolynomialModel._of(m.vars, None, layout.vector(m.terms), m.error, m.max_degree)


def test_dense_overflow_raises_like_pair_loop(monkeypatch):
    """Squaring 252 terms of +-1e200 overflows: the dense kernel raises
    without a numpy warning, as the pair loop does when the dense kernel is
    never chosen, and as the product does when the operand carries its slot
    vector."""
    a = _full_model(random.Random(5), 5, 5, lambda rng: rng.choice([1e200, -1e200]))
    layout = dense._layout(5, 5)
    v = layout.vector(a.terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
            dense._dense_product(v, v, layout)
        with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
            a * a
        carried = _carrying(a)
        with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
            carried * carried
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


def test_dense_square_scatters_once(monkeypatch):
    """A square (b is a) of a dict model scatters its operand into one slot
    vector, and one of a model that carries its vector scatters nothing;
    both are bit-identical to the product of two equal dict operands."""
    a = _full_model(random.Random(17), 5, 5, lambda rng: rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 3))
    carried = _carrying(a)
    scattered = []
    vector = dense._DenseLayout.vector
    monkeypatch.setattr(dense._DenseLayout, "vector", lambda layout, terms: scattered.append(terms) or vector(layout, terms))
    square = a * a
    assert len(scattered) == 1
    pair = a * PolynomialModel(a.vars, dict(a.terms), 0.0, 5)
    assert len(scattered) == 3
    assert _bits(square) == _bits(pair)
    assert _bits(carried * carried) == _bits(square)
    assert len(scattered) == 3


def test_layout_built_only_for_large_products(monkeypatch):
    """A product below the pair count of its (arity, cap), such as 30 x 30
    terms at (8, 7), whose layout would hold 245,157 pairs, builds no
    layout; a 252 x 252 product at (5, 5) builds one."""
    monkeypatch.setattr(dense, "_LAYOUTS", {})
    rng = random.Random(11)
    vars8 = tuple(VarInfo(Role.STATE, axis=i) for i in range(8))
    for _ in range(20):
        a, b = (
            PolynomialModel(vars8, {_random_key(rng, 8, rng.randint(0, 7)): rng.uniform(-1, 1) for _ in range(30)}, 0.0, 7)
            for _ in range(2)
        )
        a * b
    assert dense._LAYOUTS == {}
    vars5 = tuple(VarInfo(Role.STATE, axis=i) for i in range(5))
    full = PolynomialModel(vars5, {k: 0.5 for k in dense._DenseLayout(5, 5).keys}, 0.0, 5)
    full * full
    assert list(dense._LAYOUTS) == [(5, 5)]


# the layouts of the shift products' tests: those of the benchmark's
# vector models, (5, 5), (6, 3) and (8, 3), and a small one
SHIFT_LAYOUTS = [(2, 5), (5, 5), (6, 3), (8, 3)]


def _few_terms(rng, layout):
    """One or two random monomials of layout with random coefficients."""
    return {
        k: rng.choice([1.0, -1.0, 0.5]) if rng.random() < 0.3 else rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3)
        for k in rng.sample(layout.keys, rng.randint(1, 2))
    }


def test_float_shift_product_is_the_pair_tables_bit_for_bit(monkeypatch):
    """A float product by a dict model of one or two terms shifts the other
    operand's slots, in either order, and every slot's bits are those of
    the kept-pair table's product: a slot sums at most two nonzero
    products, and two numbers add to the same float in either order.  A
    vector model's float polynomial records no terms."""
    shifts = []
    shift = dense._float_shift_product
    monkeypatch.setattr(dense, "_float_shift_product", lambda *args: shifts.append(args) or shift(*args))
    rng = random.Random(101)
    for arity, cap in SHIFT_LAYOUTS:
        layout = dense._layout(arity, cap)
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        for _ in range(40):
            few = PolynomialModel(vars_, _few_terms(rng, layout), 0.0, cap)
            w = FloatPolynomial.of(few)
            assert w._monomials == tuple(few.terms.items())
            assert FloatPolynomial.of(_carrying(few))._monomials is None
            # some slots are zero, which a negative coefficient makes -0.0
            v = np.array([rng.uniform(-2, 2) * 10.0 ** rng.randint(-8, 3) if rng.random() < 0.7 else 0.0 for _ in range(layout.size)])
            p = FloatPolynomial(v, layout)
            want = dense._float_product(v, w.vec, layout).tobytes()
            assert dense._float_product(w.vec, v, layout).tobytes() == want
            assert (p * w).vec.tobytes() == want
            assert (w * p).vec.tobytes() == want
    assert len(shifts) == 2 * 40 * len(SHIFT_LAYOUTS)


def test_shift_product_encloses_the_exact_product(kernels):
    """A vector model times a dict model of one or two terms, in either
    order, takes the shift kernel and encloses the exact rational product
    (_check_mul: the coefficient deviations, the dropped mass and the
    propagated errors), with ties and underflows that round one way,
    cancellations, coefficients near 2**+-1000 and subnormals.  Its error
    is no bigger than the pair table's on the same operands, the few terms
    on the left: the dropped mass is summed as that route sums it, and
    its slack charges each product n_k times."""
    rng = random.Random(103)
    for n in range(120):
        arity, cap = SHIFT_LAYOUTS[n % len(SHIFT_LAYOUTS)]
        layout = dense._layout(arity, cap)
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        case = ("ties", "underflow", "regimes", "regimes", "regimes")[n // len(SHIFT_LAYOUTS) % 5]
        a, b = _dense_operands(rng, layout.keys, 0.7, case)
        # one or two nonconstant terms of b, so that the dict operand is no scalar
        few = dict(rng.sample(sorted((k, c) for k, c in b.items() if k), rng.randint(1, 2)))
        errors = [0.0, 0.0, 0.0, rng.random() * 1e-6, _SUBNORMAL] if case == "regimes" else [0.0]
        vector = _carrying(PolynomialModel(vars_, a, rng.choice(errors), cap))
        terms = PolynomialModel(vars_, few, rng.choice(errors), cap)
        _check_mul(vector, terms)
        _check_mul(terms, vector)
        r = vector * terms
        assert _bits(terms * vector) == _bits(r)
        assert r.error <= (_carrying(terms) * vector).error
    assert kernels["_dense_shift_product"] == 120 * 4 and kernels["_dense_product"] == 120


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
    """A model with up to n_terms terms; one coefficient regime, or a mix
    of all of them."""
    terms = {}
    for _ in range(n_terms):
        key = _random_key(rng, len(vars_), rng.randint(0, cap))
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
    keep = [i for i in range(m.arity) if i not in positions]
    r = m.sweep(positions)
    assert r.vars == tuple(m.vars[i] for i in keep)
    kept = {exps: c for exps, c in unpack(m).items() if not any(exps[p] for p in positions)}
    assert unpack(r) == {tuple(exps[i] for i in keep): c for exps, c in kept.items()}
    swept = sum((abs(Fraction(c)) for k, c in m.terms.items() if k & mask), Fraction(0))
    assert Fraction(r.error) >= Fraction(m.error) + swept


def _check_antiderivative(rng, m):
    # the time variable at a random position, with a radius that rounds
    # (0.05, 0.3), a power of two, or one that makes products underflow
    _check_antiderivative_at(m, rng.randrange(m.arity), rng.choice([0.05, 0.5, 0.3, 2.0**-40]))


def _check_antiderivative_at(m, tpos, radius):
    m = _with_time(m, tpos, radius)
    r = _admitted(m.antiderivative(tpos))
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
    return r


def _check_substitute_unit(rng, m):
    _check_substitute_unit_at(m, rng.randrange(m.arity), rng.choice([-1.0, 1.0]))


def _check_substitute_unit_at(m, position, value):
    r = _admitted(m.substitute_unit(position, value))
    exact: dict[tuple, Fraction] = {}
    for exps, c in unpack(m).items():
        rest = exps[:position] + exps[position + 1 :]
        sign = -1 if value == -1.0 and exps[position] % 2 else 1
        exact[rest] = exact.get(rest, Fraction(0)) + sign * Fraction(c)
    got = unpack(r)
    assert set(got) <= set(exact)
    deviation = sum((abs(Fraction(got.get(k, 0.0)) - v) for k, v in exact.items()), Fraction(0))
    assert Fraction(r.error) >= Fraction(m.error) + deviation
    return r


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


def _dense_structure_terms(rng, keys, position, factor, case):
    """Terms on every monomial of keys for an operation on the variable at
    position, under which the term c * factor(e), e its exponent of that
    variable, adds c (times the radius, for the antiderivative) to the sum
    of the key with that nibble cleared, after the terms of lower degree:

    - ties: c = 2**53 * s for e = 0 below degree cap and s elsewhere, so
      every later contribution to a sum is half its ulp, and each rounds
      to even and loses it (a term of degree cap with e = 0 sums nothing,
      and its antiderivative term drops: 2**53 * s there would make the
      dropped mass hide the rounding);
    - underflow: 3 * 2**-1074 everywhere, so that with radius 0.5 each
      product rounds up by 2**-1075;
    - cancel: each e >= 1 contributes +-c of its e = 0 term, so sums cancel
      exactly or nearly;
    - otherwise one coefficient regime per model, near 2**+-1000 included."""
    shift = 4 * position
    if case == "ties":
        s = 2.0 ** rng.randint(-400, 400)
        top = _degree(keys[-1])
        exponents = {k: (k >> shift) & 0xF for k in keys}
        return {k: s * (factor(e) if e else 2.0**53 if _degree(k) < top else 1.0) for k, e in exponents.items()}
    if case == "underflow":
        return {k: 3 * _SUBNORMAL for k in keys}
    regime = rng.choice(_REGIMES)
    terms = {k: _fuzz_coefficient(rng, regime) for k in keys}
    if case == "cancel":
        for k in keys:
            e = (k >> shift) & 0xF
            if e:
                terms[k] = rng.choice([1.0, -1.0]) * terms[k & ~(0xF << shift)] * factor(e)
    return terms


def _dense_structure_fuzz(op, seed, count):
    """antiderivative or substitute_unit of full models at (arity, cap) =
    (5, 5) and (8, 3) that carry their slot vectors, on a random variable,
    checked exactly; the cases cycle through ties, underflow, cancel and
    two of regimes, which alone have an operand error (it would hide the
    rounding)."""
    rng = random.Random(seed)
    for n in range(count):
        arity, cap = rng.choice([(5, 5), (8, 3)])
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        position = rng.randrange(arity)
        case = ("ties", "underflow", "cancel", "regimes", "regimes")[n % 5]
        value = rng.choice([-1.0, 1.0])
        if op == "antiderivative":
            radius = 0.5 if case in ("ties", "underflow") else rng.choice([0.05, 0.5, 0.3, 2.0**-40])
            factor = lambda e: (e + 1) * (-1) ** e  # noqa: E731
        else:
            factor = lambda e: value**e  # noqa: E731
        terms = _dense_structure_terms(rng, dense._layout(arity, cap).keys, position, factor, case)
        error = rng.choice([0.0, 0.0, rng.random() * 1e-6, _SUBNORMAL]) if case == "regimes" else 0.0
        m = _carrying(PolynomialModel(vars_, terms, error, cap))
        if op == "antiderivative":
            _check_antiderivative_at(m, position, radius)
        else:
            _check_substitute_unit_at(m, position, value)


@pytest.mark.parametrize("op", ["antiderivative", "substitute_unit"])
def test_dense_structure_ops_exact_fuzz(op, kernels):
    """The dense antiderivative and substitute_unit of full models enclose
    their exact answers: with ties and underflows that round one way,
    cancellations, coefficients near 2**+-1000 and subnormals."""
    _dense_structure_fuzz(op, seed=113, count=60)
    assert kernels[f"_dense_{op}"] == 60


@pytest.mark.parametrize("op", ["antiderivative", "substitute_unit"])
def test_dense_structure_ops_charge_every_rounded_sum(op, kernels):
    """One chain of ties: 2**53 * s and then x5^e (e = 1..5), each of which
    adds s (s * radius) to the constant term, half its ulp, so the five
    additions each round to even and lose it.  Their slack must cover 5
    half-ulps, more than the 2 * |c| * _EPS of the antiderivative's own
    roundings.  The model carries its slot vector, so the dense kernel
    runs."""
    vars5 = tuple(VarInfo(Role.STATE, axis=i) for i in range(5))
    s = 2.0**-30
    for value in (-1.0, 1.0):
        factor = (lambda e: (e + 1) * (-1) ** e) if op == "antiderivative" else (lambda e: value**e)
        terms = {0: 2.0**53 * s, **{e << 16: s * factor(e) for e in range(1, 6)}}
        m = _carrying(PolynomialModel(vars5, terms, 0.0, 5))
        if op == "antiderivative":
            _check_antiderivative_at(m, 4, 0.5)
        else:
            _check_substitute_unit_at(m, 4, value)
    assert kernels[f"_dense_{op}"] == 2


def _structure_op(m, op, position, value):
    if op == "antiderivative":
        return m.antiderivative(position)
    return m.substitute_unit(position, value)


def _with_time(m, position, radius=0.005):
    """m with the variable at position made the time variable of radius
    radius, in m's representation."""
    vars_ = m.vars[:position] + (VarInfo(Role.TIME, radius=radius),) + m.vars[position + 1 :]
    timed = PolynomialModel(vars_, m.terms, m.error, m.max_degree)
    return timed if m._vec is None else _carrying(timed)


@pytest.mark.parametrize("op", ["antiderivative", "substitute_unit"])
def test_dense_structure_ops_agree_with_dict_loop(op, kernels):
    """The dense kernel, which a model that carries its slot vector takes,
    and the dict loop, which the same model as a term dict takes, differ
    by no more than the sum of their errors (both enclose the exact
    answer), on models that fill 1/2 to all of their layout."""
    rng = random.Random(127)
    for _ in range(40):
        arity, cap = rng.choice([(5, 5), (8, 3)])
        keys = dense._layout(arity, cap).keys
        held = rng.sample(keys, rng.randint((len(keys) + 1) // 2, len(keys)))
        regime = rng.choice(_REGIMES)
        position = rng.randrange(arity)
        m = PolynomialModel(
            tuple(VarInfo(Role.STATE, axis=i) for i in range(arity)),
            {k: _fuzz_coefficient(rng, regime) for k in held},
            0.0,
            cap,
        )
        m = _with_time(m, position)
        value = rng.choice([-1.0, 1.0])
        r = _structure_op(_carrying(m), op, position, value)
        ref = _structure_op(m, op, position, value)
        assert r._vec is not None and ref._vec is None
        assert r.vars == ref.vars
        keys = r.terms | ref.terms
        gap = sum((abs(Fraction(r.terms.get(k, 0.0)) - Fraction(ref.terms.get(k, 0.0))) for k in keys), Fraction(0))
        assert gap <= Fraction(r.error) + Fraction(ref.error)
    assert kernels[f"_dense_{op}"] == 40


def test_dense_structure_ops_ignore_insertion_order():
    """The dense antiderivative and substitute_unit are bit-identical across
    repeats and across models that hold the same terms in another insertion
    order before they are scattered into their slot vectors."""
    rng = random.Random(131)
    for arity, cap in ((5, 5), (8, 3)):
        m = _full_model(rng, arity, cap, lambda rng: rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 3))
        for position in (0, arity // 2, arity - 1):
            timed = _carrying(_with_time(m, position))
            first = [_bits(timed.antiderivative(position))]
            first += [_bits(_carrying(m).substitute_unit(position, v)) for v in (-1.0, 1.0)]
            for _ in range(3):
                items = list(m.terms.items())
                rng.shuffle(items)
                shuffled = PolynomialModel(m.vars, dict(items), 0.0, cap)
                again = [_bits(_carrying(_with_time(shuffled, position)).antiderivative(position))]
                again += [_bits(_carrying(shuffled).substitute_unit(position, v)) for v in (-1.0, 1.0)]
                assert again == first


def _outcome(fn):
    try:
        return _bits(fn())
    except IntervalDomainError as exc:
        return str(exc)


def test_structure_ops_build_no_layout_for_sparse_models(monkeypatch, kernels):
    """A dict model takes the dict loop of antiderivative and
    substitute_unit and builds no layout: 40 terms at (8, 7), whose layout
    would hold 6,435 slots, and also 252 terms at (5, 5).  The same full
    model carrying its slot vector takes the dense kernels, and
    substitute_unit gathers its result into the layout of (4, 5)."""
    rng = random.Random(139)
    full = _with_time(_full_model(rng, 5, 5, lambda rng: rng.uniform(-1, 1)), 4)
    monkeypatch.setattr(dense, "_LAYOUTS", {})
    vars8 = tuple(VarInfo(Role.STATE, axis=i) for i in range(7)) + (VarInfo(Role.TIME, radius=0.01),)
    for _ in range(20):
        terms = {_random_key(rng, 8, rng.randint(0, 7)): rng.uniform(-1, 1) for _ in range(40)}
        m = PolynomialModel(vars8, terms, 0.0, 7)
        m.antiderivative(7)
        m.substitute_unit(7, 1.0)
    full.antiderivative(4).substitute_unit(4, 1.0)
    assert dense._LAYOUTS == {}
    assert kernels["_dense_antiderivative"] == kernels["_dense_substitute_unit"] == 0
    _carrying(full).antiderivative(4).substitute_unit(4, 1.0)
    assert list(dense._LAYOUTS) == [(5, 5), (4, 5)]
    assert kernels["_dense_antiderivative"] == kernels["_dense_substitute_unit"] == 1


def _series_coeffs(rng, powers):
    coeffs = []
    for _ in powers:
        mid = rng.choice([0.0, 1.0, -0.5, rng.uniform(-2, 2), rng.uniform(-2, 2) * 2.0**-600])
        rad = rng.choice([0.0, 0.0, abs(mid) * 1e-16, 1e-300])
        coeffs.append(Interval(mid - rad, mid + rad))
    return coeffs


def _check_series_sum(rng, powers):
    return _check_series_sum_at(_series_coeffs(rng, powers), powers)


def _check_series_sum_at(coeffs, powers):
    mags = [p.range().mag for p in powers]
    r = _admitted(polymodel._series_sum(coeffs, powers, mags.__getitem__))
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
    return r


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

    time = (VarInfo(Role.TIME, radius=0.5),)
    r = PolynomialModel(time, {0: tiny}, 0.0, 3).antiderivative(0)
    assert Fraction(r.error) >= off_by(r, 0, exact) + off_by(r, 1, exact)


# ---------------------------------------------------------------- slot-vector path
# A model that carries its slot vector keeps it through every operation, and
# a dict model stays a dict model, except in a product that reaches the
# pair count.  Each case runs an operation on both representations and
# checks it against its exact answer over the rationals and, where the
# vector form promises it, against the dict loop bit for bit; every result
# holds only what the constructor admits.


def _hex_terms(m):
    """The coefficients of m by key, each as its exact hex string."""
    return {k: c.hex() for k, c in m.terms.items()}


def _deviation(m, exact):
    """sum |coefficient of m - exact coefficient| over every key."""
    keys = set(m.terms) | set(exact)
    return sum((abs(Fraction(m.terms.get(k, 0.0)) - exact.get(k, 0)) for k in keys), Fraction(0))


def _admitted(m):
    """m, once checked to hold what the constructor admits: finite
    coefficients on monomials of its variables of degree <= its cap, and
    a finite, nonnegative error."""
    assert 0.0 <= m.error < math.inf
    for k, c in m.terms.items():
        assert math.isfinite(c) and _degree(k) <= m.max_degree and not k >> (4 * m.arity)
    return m


def _forms(m):
    """The dict model m and, up to 15 variables, m carrying its slot
    vector."""
    return (m, _carrying(m)) if m.arity <= 15 else (m,)


def _outcome(fn):
    """fn()'s terms and error as hex strings, or the message of the
    IntervalDomainError that it raises."""
    try:
        m = _admitted(fn())
    except IntervalDomainError as exc:
        return str(exc)
    return tuple(sorted(_hex_terms(m).items())), m.error.hex()


def _check_caps(a):
    """Models of different caps do not combine."""
    other = PolynomialModel(a.vars, {0: 2.0}, 0.0, a.max_degree - 1)
    for x in _forms(a):
        for fn in (lambda: x + other, lambda: other - x, lambda: x * other, lambda: other * x):
            with pytest.raises(ArityMismatchError, match="different degree caps"):
                fn()


def _slot_operands(rng, keys, fill, case):
    """Term dicts a and b over the monomials keys, each held with
    probability fill (the constant always):

    - ties: a holds 2**53 * s and b -s, s or 3 * s, so that every merge
      that rounds lies halfway between two doubles and rounds to even;
    - cancel: b holds +-a's coefficients, so that about half the merges
      cancel to zero under + and the others under -;
    - otherwise one coefficient regime per operand: +-1, near 2**1000 or
      2**-1000, subnormal or random."""
    held = [k for k in keys if k == 0 or rng.random() < fill]
    if case == "ties":
        s = 2.0 ** rng.randint(-400, 400)
        return {k: 2.0**53 * s for k in held}, {k: rng.choice([-1.0, 1.0, 3.0]) * s for k in held}
    a = {k: _fuzz_coefficient(rng, rng.choice(_REGIMES)) for k in held}
    if case == "cancel":
        return a, {k: rng.choice([c, -c]) for k, c in a.items()}
    regime = rng.choice(_REGIMES)
    return a, {k: _fuzz_coefficient(rng, regime) for k in keys if rng.random() < fill}


def _check_slot_sum(rng, a, b):
    for sign in (1, -1):
        ref = a + b if sign > 0 else a - b
        exact = {k: Fraction(c) for k, c in a.terms.items()}
        for k, c in b.terms.items():
            exact[k] = exact.get(k, Fraction(0)) + sign * Fraction(c)
        # both dicts, both vectors, or one scattered into the other's layout
        for x in _forms(a):
            for y in _forms(b):
                r = _admitted(x + y if sign > 0 else x - y)
                assert (r._vec is None) == (x._vec is None and y._vec is None)
                assert _hex_terms(r) == _hex_terms(ref)
                assert Fraction(r.error) >= Fraction(a.error) + Fraction(b.error) + _deviation(r, exact)
    for x in _forms(a):
        r = _admitted(-x)
        assert (r._vec is None) == (x._vec is None) and r.error == a.error
        assert _hex_terms(r) == {k: (-c).hex() for k, c in a.terms.items()}
    _check_caps(a)


def _check_slot_scale(rng, a, b):
    s = rng.choice([0.3, -0.5, 3.0, 2.0**-600, -(2.0**-1000)])
    scaled = {k: Fraction(s) * Fraction(c) for k, c in a.terms.items()}
    # a constant that cancels the constant term, or one that rounds away
    v = rng.choice([-a.terms.get(0, 1.0), 1.0, _SUBNORMAL, 2.0**1000])
    shifted = {k: Fraction(c) for k, c in a.terms.items()}
    shifted[0] = shifted.get(0, Fraction(0)) + Fraction(v)
    extra = rng.choice([0.0, _SUBNORMAL, 1e-3])
    for m in _forms(a):
        r = _admitted(m.scale(s))
        assert (r._vec is None) == (m._vec is None) and _hex_terms(r) == _hex_terms(a.scale(s))
        assert Fraction(r.error) >= abs(Fraction(s)) * Fraction(a.error) + _deviation(r, scaled)
        r = _admitted(m.add_scalar(v))
        assert (r._vec is None) == (m._vec is None) and _hex_terms(r) == _hex_terms(a.add_scalar(v))
        assert Fraction(r.error) >= Fraction(a.error) + _deviation(r, shifted)
        r = _admitted(m.add_error(extra))
        assert (r._vec is None) == (m._vec is None) and _hex_terms(r) == _hex_terms(a)
        assert Fraction(r.error) >= Fraction(a.error) + Fraction(extra)
        for bad in (-1e-3, math.nan):
            with pytest.raises(ValueError, match="^error increment must be nonnegative$"):
                m.add_error(bad)


def _check_slot_product(rng, a, b):
    # one dense answer for every pair in which an operand carries its
    # vector (their errors differ with the summation order of
    # poly_magnitude); it overflows exactly when the dict models' product
    # does
    def terms(x, y):
        o = _outcome(lambda: x * y)
        return o if isinstance(o, str) else o[0]

    dense_answers = {terms(x, y) for x in _forms(a) for y in _forms(b) if x._vec is not None or y._vec is not None}
    ref = terms(a, b)
    assert len(dense_answers) == (a.arity <= 15)
    assert {isinstance(o, str) for o in dense_answers | {ref}} == {isinstance(ref, str)}
    if len(a.terms) * len(b.terms) >= polymodel._pair_count(a.arity, a.max_degree):
        assert dense_answers <= {ref}
    if not isinstance(ref, str):
        _check_mul(a, b)
        if a.arity <= 15:
            _check_mul(_carrying(a), b)
    _check_caps(a)


def _check_slot_antiderivative(rng, a, b):
    position, radius = rng.randrange(a.arity), rng.choice([0.05, 0.5, 0.3, 2.0**-40])
    for m in _forms(a):
        r = _check_antiderivative_at(m, position, radius)
        assert (r._vec is None) == (m._vec is None)


def _check_slot_substitute_unit(rng, a, b):
    position, value = rng.randrange(a.arity), rng.choice([-1.0, 1.0])
    for m in _forms(a):
        r = _check_substitute_unit_at(m, position, value)
        assert (r._vec is None) == (m._vec is None)


def _check_slot_range(rng, a, b):
    for m in _forms(a) + _forms(b):
        _check_range(rng, m)
        assert Fraction(m.poly_magnitude()) >= sum((abs(Fraction(c)) for c in m.terms.values()), Fraction(0))


def _check_slot_sweep(rng, a, b):
    positions = rng.sample(range(a.arity), rng.randint(1, a.arity))
    ref = a.sweep(positions)
    for m in _forms(a):
        r = _admitted(m.sweep(positions))
        assert (r._vec is None) == (m._vec is None) and r.vars == ref.vars and _hex_terms(r) == _hex_terms(ref)
        _check_sweep(rng, m)


def _check_slot_extend(rng, a, b):
    extra = tuple(VarInfo(Role.INPUT, born=j) for j in range(rng.randint(1, 3)))
    for m in _forms(a):
        r = _admitted(m.extend(extra))
        assert r.vars == a.vars + extra and r.error == a.error and _hex_terms(r) == _hex_terms(a)
        assert (r._vec is None) == (m._vec is None or r.arity > 15)
        back = r.sweep(range(a.arity, r.arity))
        assert (back._vec is None) == (r._vec is None) and _hex_terms(back) == _hex_terms(a)
    if a.arity <= 15:
        # no layout above 15 variables: the dict model
        wide = _carrying(a).extend(VarInfo(Role.INPUT) for _ in range(16 - a.arity))
        assert wide._vec is None and _hex_terms(wide) == _hex_terms(a)


def _check_slot_series_sum(rng, a, b):
    powers = [PolynomialModel.constant(1.0, a.vars, a.max_degree), a, b, b.scale(0.5), -a]
    coeffs = _series_coeffs(rng, powers)
    ref = _check_series_sum_at(coeffs, powers)
    assert ref._vec is None
    if a.arity <= 15:
        carried = [p if rng.random() < 0.3 else _carrying(p) for p in powers]
        carried[1] = _carrying(a)
        r = _check_series_sum_at(coeffs, carried)
        assert (r._vec is not None) == any(c.mid and p._vec is not None for c, p in zip(coeffs, carried))
        assert _hex_terms(r) == _hex_terms(ref)


_SLOT_CHECKS = {
    "sum": _check_slot_sum,
    "scale": _check_slot_scale,
    "product": _check_slot_product,
    "antiderivative": _check_slot_antiderivative,
    "substitute_unit": _check_slot_substitute_unit,
    "range": _check_slot_range,
    "sweep": _check_slot_sweep,
    "extend": _check_slot_extend,
    "series_sum": _check_slot_series_sum,
}


def _huge_model(sign):
    """The full model at (5, 5) with the coefficient 1.5e308 * sign(k) on
    each key k: two of them sum past the largest double."""
    vars5 = tuple(VarInfo(Role.STATE, axis=i) for i in range(5))
    return PolynomialModel(vars5, {k: 1.5e308 * sign(k) for k in dense._layout(5, 5).keys}, 0.0, 5)


def _positive(k):
    return 1.0


def _alternating(k):
    # (-1)**e with e the exponent of x5, the top nibble of a key at (5, 5)
    return (-1.0) ** (k >> 16)


# per check, (sign, operation) pairs whose result overflows on _huge_model(sign)
_SLOT_OVERFLOWS = {
    "sum": ((_positive, lambda m: m + m), (_positive, lambda m: m - (-m))),
    "scale": (
        (_positive, lambda m: m.scale(4.0)),
        (_positive, lambda m: m.add_scalar(1.7e308)),
        (_positive, lambda m: m.add_error(1.7e308).add_error(1.7e308)),
    ),
    # the square's products overflow; with a small factor only the sum of
    # the huge operand's magnitudes does
    "product": ((_positive, lambda m: m * m), (_positive, lambda m: m * m.scale(2.0**-1070))),
    # 1.5e308 * 2**40 overflows in the products
    "antiderivative": ((_positive, lambda m: _with_time(m, 4, 2.0**40).antiderivative(4)),),
    # every term keeps its sign at z5 = value, so the sums overflow
    "substitute_unit": ((_positive, lambda m: m.substitute_unit(4, 1.0)), (_alternating, lambda m: m.substitute_unit(4, -1.0))),
    "sweep": ((_positive, lambda m: m.sweep([4])),),
    "series_sum": ((_positive, lambda m: polymodel._series_sum([Interval.point(4.0)], [m], lambda k: 0.0)),),
}


@pytest.mark.parametrize("op", sorted(_SLOT_CHECKS))
def test_slot_vector_ops_exact_fuzz(op):
    """Each operation on term dicts and on slot vectors encloses its exact
    answer, keeps the representation of its operands, builds only what the
    constructor admits and, for all but the product, antiderivative,
    substitute_unit, range and poly_magnitude, gives the dict loop's
    coefficients bit for bit: on full and sparse models at (5, 5), (8, 3)
    and (5, 3) and on one of 16 variables, which has no layout, with ties,
    cancellation to zero, subnormals and coefficients near 2**+-1000.  An
    overflow raises IntervalDomainError in both representations, and no
    case warns."""
    check = _SLOT_CHECKS[op]
    rng = random.Random(149)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(40):
            arity, cap = rng.choice([(5, 5), (8, 3), (5, 3)])
            vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
            fill = 1.0 if n // 4 % 2 == 0 else rng.choice([0.1, 0.3])
            case = ("ties", "cancel", "regimes", "regimes")[n % 4]
            a, b = _slot_operands(rng, dense._layout(arity, cap).keys, fill, case)
            errors = [0.0, 0.0, rng.random() * 1e-6, _SUBNORMAL] if case == "regimes" else [0.0]
            check(rng, PolynomialModel(vars_, a, rng.choice(errors), cap), PolynomialModel(vars_, b, rng.choice(errors), cap))
        vars16 = tuple(VarInfo(Role.STATE, axis=i) for i in range(16))
        keys16 = [0] + sorted({_random_key(rng, 16, rng.randint(1, 3)) for _ in range(60)})
        a, b = _slot_operands(rng, keys16, 1.0, "regimes")
        check(rng, PolynomialModel(vars16, a, 0.0, 3), PolynomialModel(vars16, b, 1e-9, 3))
        for sign, operation in _SLOT_OVERFLOWS.get(op, ()):
            for m in _forms(_huge_model(sign)):
                with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
                    operation(m)


def test_scale_by_one_returns_the_model_and_by_minus_one_its_negation():
    """Both products are exact: scale(1.0) is the model itself and
    scale(-1.0) its negation, with the error unchanged, for a dict model
    and for one that carries its slot vector."""
    a = pm({(1, 0): 0.3, (0, 2): -1.7, (2, 1): 0.1, (0, 0): 2.5}, error=1e-3)
    for m in _forms(a):
        assert m.scale(1.0) is m
        r = m.scale(-1.0)
        assert r == -m and r.error == m.error and (r._vec is None) == (m._vec is None)


def test_vector_scale_overflow_raises_without_warning():
    """A model that carries its slot vector, doubled until its magnitude
    sum passes the largest double (at 2**1023 the coefficients are still
    finite, their sum 2 * 2**1023 is not), raises IntervalDomainError, and
    numpy warns of no overflow on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = _carrying(pm({(1, 0): 0.3, (0, 2): -1.7}))
        with pytest.raises(IntervalDomainError, match="^model arithmetic overflowed$"):
            for _ in range(1100):
                m = m.scale(2.0)
        assert m._vec is not None


def test_vector_models_keep_value_semantics():
    """A model that carries its slot vector equals the dict model with the
    same terms, builds its terms in slot order whatever the insertion
    order, and cannot be changed: its attributes and its vector are read
    only, as a frozen dataclass's fields were.  Copies and pickles keep
    the vector."""
    rng = random.Random(157)
    for arity, cap in ((5, 5), (8, 3)):
        layout = dense._layout(arity, cap)
        full = _full_model(rng, arity, cap, lambda rng: rng.uniform(-1, 1))
        for held in (layout.keys, rng.sample(layout.keys, len(layout.keys) // 5)):
            items = [(k, full.terms[k]) for k in held]
            rng.shuffle(items)
            m = PolynomialModel(full.vars, dict(items), 0.25, cap)
            carried = _carrying(m)
            assert carried._terms is None
            assert carried == m and m == carried
            assert list(carried.terms) == [k for k in layout.keys if k in m.terms]
            assert carried != m.add_error(1.0) and carried.add_error(1.0) != m
        r = _carrying(_with_time(full, arity - 1)).antiderivative(arity - 1)
        assert r._vec is not None and list(r.terms) == [k for k in layout.keys if k in r.terms]
        for model in (m, carried):
            for name, value in (("error", 1.0), ("terms", {}), ("vars", ()), ("max_degree", 3), ("_vec", None)):
                with pytest.raises(FrozenInstanceError):
                    setattr(model, name, value)
            with pytest.raises(FrozenInstanceError):
                del model.error
            with pytest.raises(TypeError):
                hash(model)
            # terms is a read-only view: the constructor's checks hold for
            # the model and for every model that shares its store
            held = dict(model.terms)
            sibling = model.with_error(0.5)
            prefix = model.extend((VarInfo(Role.INPUT),)).sweep([model.arity])
            with pytest.raises(TypeError):
                model.terms[0] = math.inf
            with pytest.raises(TypeError):
                del model.terms[next(iter(held))]
            assert model.terms == held and sibling.terms == held and prefix.terms == held
            assert model.range().is_finite
        with pytest.raises(ValueError):
            carried._vec[0] = 1.0
        for copied in (copy.copy(carried), copy.deepcopy(carried), pickle.loads(pickle.dumps(carried))):
            assert copied == carried and copied._vec is not None


def test_vector_model_box_is_computed_once(monkeypatch):
    """VectorModel.box() ranges each component once and keeps the box; the
    kept box is not a field, so it takes no part in equality, repr, copies
    or pickles."""
    ranged = []
    rng = PolynomialModel.range
    monkeypatch.setattr(PolynomialModel, "range", lambda self: ranged.append(self) or rng(self))
    full = _full_model(random.Random(3), 5, 5, lambda r: r.uniform(-1, 1))
    for components in ((pm({(0, 0): 0.5, (1, 0): 0.25}, error=1e-3), pm({(0, 1): -2.0})), (full, _carrying(full))):
        X = VectorModel(components)
        fresh = VectorModel(components)
        uncached = Box(tuple(rng(c) for c in components))
        del ranged[:]
        boxes = [X.box() for _ in range(3)]
        assert len(ranged) == len(components)
        assert all(b is boxes[0] and b == uncached for b in boxes)
        assert X == fresh and repr(X) == repr(fresh) and fresh._box is None
        for copied in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert copied == X and copied._box is None and copied.box() == uncached


def test_slot_series_sum_charges_every_merge():
    """Five merges of s into 2**53 * s each lie halfway between two doubles
    and round to even, losing s each time; 5 * s per slot is more than the
    2 * s of the products' own slack, so every merge must be charged."""
    s = 2.0**-30
    for arity, cap in ((5, 5), (8, 3)):
        vars_ = tuple(VarInfo(Role.STATE, axis=i) for i in range(arity))
        keys = dense._layout(arity, cap).keys
        big = PolynomialModel(vars_, {k: 2.0**53 * s for k in keys}, 0.0, cap)
        small = PolynomialModel(vars_, {k: s for k in keys}, 0.0, cap)
        coeffs = [Interval.point(1.0)] * 6
        r = _check_series_sum_at(coeffs, [_carrying(big)] + [_carrying(small)] * 5)
        assert r._vec is not None
        assert _hex_terms(r) == _hex_terms(big)


def test_from_floats_is_an_exact_model():
    """A finite float polynomial becomes an error-free model that carries
    its vector; a non-finite one, or one of another arity, is refused."""
    vars3 = V2 + (VarInfo(Role.TIME, radius=0.1),)
    layout = dense._layout(3, 3)
    vec = np.linspace(-1.0, 1.0, layout.size)
    m = PolynomialModel.from_floats(vars3, FloatPolynomial(vec, layout))
    assert m.error == 0.0 and m._vec is vec and m == PolynomialModel(vars3, layout.terms(vec), 0.0, 3)
    for bad in (math.inf, math.nan):
        vec = np.zeros(layout.size)
        vec[4] = bad
        with pytest.raises(ValueError, match="finite"):
            PolynomialModel.from_floats(vars3, FloatPolynomial(vec, layout))
    with pytest.raises(ValueError, match="variables"):
        PolynomialModel.from_floats(V2, FloatPolynomial(np.zeros(layout.size), layout))


def test_float_domain_within_model_error_fuzz():
    """On the random systems of test_program_matches_reference_fold_fuzz,
    a run over random vector models in the float domain gives, at every
    slot and every assembled field component, a polynomial within the
    validated run's error of that run's polynomial, measured as a
    coefficient magnitude sum: the float domain computes the polynomial
    part that the validated run encloses.  Each system runs its program's
    fields and a program of its fields alone, where constants that only
    scale or divide reach both domains as floats."""
    rng = random.Random(61)
    vrng = np.random.default_rng(61)
    vars3 = V2 + (VarInfo(Role.INPUT),)
    layout = dense._layout(3, 3)
    seen = {t: 0 for t in (Add, Sub, Mul, Div, Pow, Sin, Cos, Exp, float)}
    undefined = 0
    for _ in range(300):
        sys = _random_system(rng)
        args = []
        for i in range(2):
            vec = vrng.uniform(-0.05, 0.05, layout.size)
            vec[0] = vrng.uniform(-1.5, 1.5)
            args.append(PolynomialModel.from_floats(vars3, FloatPolynomial(vec, layout)))
        floats = [FloatPolynomial.of(a) for a in args]
        w = [PolynomialModel(vars3, {1 << 8: rng.uniform(0.01, 1.0)}, 0.0, 3) for _ in range(sys.m)]
        fields = Program(([e for gi in (sys.f, *sys.g) for e in gi],))
        try:
            runs = [(q, compose_expr(q, args, 0), q.run(floats, FLOAT_OPS, 0, scalars=True)) for q in (sys.program, fields)]
            model_field = sys.field(runs[0][1], w)
        except UNDEFINED:
            undefined += 1
            continue
        pairs = list(zip(model_field, sys.field(runs[0][2], [FloatPolynomial.of(u) for u in w])))
        for q, vals, float_vals in runs:
            pairs += zip(vals, float_vals)
            for i, t, _, b in q.code:
                key = float if t is Const and b is True else t
                if vals[i] is not None and key in seen:
                    seen[key] += 1
        for m, f in pairs:
            if m is None or m.__class__ is float:
                assert f is m or f == m
                continue
            assert f.layout is layout
            assert dense._magnitude(f.vec - FloatPolynomial.of(m).vec) <= m.error, (m, f.vec)
    assert undefined < 150 and min(seen.values()) >= 10, (undefined, seen)
