import math
import random
from fractions import Fraction

import mpmath
import pytest

from direach.inputs import InputScheme, SchemeKind
from direach.localerr import (
    ErrorOrder,
    InapplicableError,
    err_o1,
    err_o2_affine,
    err_o2_constant,
    err_o2_constant_c2,
    err_o3_additive,
    err_o3_single,
    growth_factor,
    param_requirements,
    select_error,
)
from direach.symexpr import InputAffineSystem, StepErrorBounds

AFFINE = InputScheme(SchemeKind.AFFINE)
CONSTANT = InputScheme(SchemeKind.CONSTANT)
ZERO = InputScheme(SchemeKind.ZERO)


def mk(K=0.0, Kp=0.0, L=0.0, Lp=0.0, H=0.0, Hp=0.0, Lam=0.0):
    return StepErrorBounds(
        K=K, Kp=Kp, L=L, Lp=Lp, H=H, Hp=Hp, Lam=Lam,
        Ki=(Kp,), Li=(Lp,), Hi=(Hp,),
    )


VDP = mk(K=20.0, Kp=0.08, L=31.0, Lp=0.0, H=12.0, Hp=0.0, Lam=27.0)


def mp_phi(u):
    u = mpmath.mpf(u)
    return (mpmath.e**u - 1) / u if u != 0 else mpmath.mpf(1)


def test_growth_factor():
    assert growth_factor(0.0).contains(1.0)
    r = growth_factor(-2.0)
    assert r.hi < 1.0
    assert r.contains(float((mpmath.e ** mpmath.mpf(-2) - 1) / -2))


def test_err_o1_lambda_zero_branch():
    b = mk(K=1e6, Kp=1.0, L=0.0, Lam=0.0)
    assert err_o1(b, 0.1) == pytest.approx(0.1, rel=1e-12)


def test_err_o1_vdp():
    assert err_o1(VDP, 0.001) == pytest.approx(8.109e-5, rel=1e-4)
    exact = mpmath.mpf("0.001") * mpmath.mpf("0.08") * mp_phi(mpmath.mpf("0.027"))
    assert err_o1(VDP, 0.001) >= float(exact)


def test_err_o1_no_disturbance():
    assert err_o1(mk(K=5.0, Kp=0.0, L=2.0, Lam=1.0), 0.1) == 0.0


def test_err_o2_constant_additive_collapse():
    b = mk(K=3.0, Kp=0.5, L=2.0, Lp=0.0, Lam=0.5)
    got = err_o2_constant(b, 0.1)
    exact = mpmath.mpf("0.01") * 2 * mpmath.mpf("0.5") * 2 * mp_phi(mpmath.mpf("0.05"))
    assert got == pytest.approx(float(exact), rel=1e-12)
    assert got >= float(exact)


def test_err_o2_constant_all_ones():
    b = mk(K=1.0, Kp=1.0, L=1.0, Lp=1.0, Lam=0.0)
    assert err_o2_constant(b, 0.1) == pytest.approx(float(Fraction(7, 150)), rel=1e-12)


def test_err_o2_constant_zero_noise():
    assert err_o2_constant(mk(K=1.0, L=1.0), 0.1) == 0.0


def test_err_o2_constant_c2_example():
    b = mk(K=0.0, Kp=1.0, L=1.0, Lp=0.0, H=0.0, Lam=0.0)
    assert err_o2_constant_c2(b, 0.1) == pytest.approx(0.00025 / 0.95, rel=1e-12)


def test_err_o2_constant_c2_inapplicable():
    with pytest.raises(InapplicableError):
        err_o2_constant_c2(mk(Kp=1.0, L=25.0), 0.1)


def test_err_o2_affine_all_ones():
    b = mk(K=1.0, Kp=1.0, L=1.0, Lp=1.0, H=1.0, Hp=1.0, Lam=0.0)
    assert err_o2_affine(b, 0.1) == pytest.approx(float(Fraction(49, 300)), rel=1e-12)


def test_err_o2_affine_zero_noise():
    assert err_o2_affine(mk(K=1.0, L=1.0), 0.1) == 0.0


def test_err_o3_additive_harmonic_closed_form():
    for h in (0.25, 0.1, 0.01, 0.001):
        for a in (0.1, 0.2, 0.05):
            b = mk(K=1.0 + a, Kp=a, L=1.0, H=0.0, Lam=1.0)
            got = err_o3_additive(b, h)
            ref = 7 * mpmath.mpf(h) ** 3 / (4 * (2 - mpmath.mpf(h))) * mp_phi(mpmath.mpf(h)) * a
            assert got == pytest.approx(float(ref), rel=1e-12)


def test_err_o3_additive_frozen_value():
    b = mk(K=1.1, Kp=0.1, L=1.0, H=0.0, Lam=1.0)
    assert err_o3_additive(b, 0.25) == pytest.approx(1.775159e-3, rel=1e-5)


def test_err_o3_additive_vdp_direct_substitution():
    got = err_o3_additive(VDP, 0.001)
    # 2.81h^3 + 84.2h^3*phi coefficient structure, about half the published value
    h, k, kp, l, hs, lam = (mpmath.mpf(x) for x in ("0.001", "20", "0.08", "31", "12", "27"))
    ref = (
        mpmath.mpf(7) / 48 * h**3 * kp * hs * (k + kp)
        + mpmath.mpf(7) / 8 * h**3 * kp * (l**2 + hs * (k + kp * mpmath.mpf("2.5"))) * mp_phi(lam * h)
    ) / (1 - h * l / 2)
    assert got == pytest.approx(float(ref), rel=1e-12)
    assert got == pytest.approx(8.958e-8, rel=1e-3)


def test_err_o3_additive_rejects_state_dependent_inputs():
    b = StepErrorBounds(
        K=1, Kp=1, L=1, Lp=1, H=0, Hp=0, Lam=0,
        Ki=(1.0,), Li=(1.0,), Hi=(0.0,),
    )
    with pytest.raises(InapplicableError):
        err_o3_additive(b, 0.01)


def test_err_o3_single_frozen_value():
    b = mk(K=1.0, Kp=1.0, L=1.0, Lp=1.0, H=1.0, Hp=1.0, Lam=0.0)
    num = Fraction(7, 8) * Fraction(1, 10**6) * (Fraction(11) * Fraction(7, 2) + 1 + Fraction(25, 2) + 25)
    num += Fraction(1, 48 * 10**6) * 2 * (7 * 2 + 28 * 2 + 29 * 2)
    ref = num / (1 - Fraction(15, 1000))
    assert err_o3_single(b, 0.01) == pytest.approx(float(ref), rel=1e-9)


def test_err_o3_single_collapse_to_additive():
    rng = random.Random(31)
    for _ in range(200):
        b = mk(
            K=rng.uniform(0, 5),
            Kp=rng.uniform(0, 2),
            L=rng.uniform(0, 3),
            Lp=0.0,
            H=rng.uniform(0, 4),
            Hp=0.0,
            Lam=rng.uniform(-2, 3),
        )
        h = 10 ** rng.uniform(-4, -1)
        if h * b.L >= 2:
            continue
        assert err_o3_single(b, h) == pytest.approx(err_o3_additive(b, h), rel=1e-12)


def test_err_o3_single_zero_field():
    assert err_o3_single(mk(), 0.01) == 0.0


def test_err_o3_single_needs_one_input():
    with pytest.raises(InapplicableError):
        err_o3_single(mk(Kp=1.0), 0.01, m=2)


def test_param_requirements_table():
    expected = {
        1: (2, 1, 2),
        2: (5, 2, 6),
        3: (9, 2, 9),
        4: (14, 3, 16),
        5: (20, 3, 20),
        6: (27, 4, 30),
        10: (65, 6, 70),
    }
    for m, row in expected.items():
        assert param_requirements(m) == row
    with pytest.raises(ValueError):
        param_requirements(0)


def harmonic():
    return InputAffineSystem(2, ["x2", "-x1"], [["1", "0"], ["0", "1"]], [0.1, 0.1])


def test_select_harmonic_affine_picks_additive():
    sys = harmonic()
    b = mk(K=1.2, Kp=0.1, L=1.0, H=0.0, Lam=1.0)
    b = StepErrorBounds(
        K=1.2, Kp=0.1, L=1.0, Lp=0.0, H=0.0, Hp=0.0, Lam=1.0,
        Ki=(1.0, 1.0), Li=(0.0, 0.0), Hi=(0.0, 0.0),
    )
    order, eps = select_error(sys, AFFINE, b, 0.0628)
    assert order is ErrorOrder.O3_ADDITIVE
    assert eps > 0


def test_select_two_state_dependent_inputs_picks_affine_o2():
    sys = InputAffineSystem(
        2, ["x2", "x1"], [["1", "x1"], ["x1", "1"]], [1.0, 1.0]
    )
    b = StepErrorBounds(
        K=2, Kp=2, L=1, Lp=2, H=0, Hp=0, Lam=1,
        Ki=(1.0, 1.0), Li=(1.0, 1.0), Hi=(0.0, 0.0),
    )
    order, _ = select_error(sys, AFFINE, b, 0.01)
    assert order is ErrorOrder.O2_AFFINE


def test_select_zero_scheme():
    sys = harmonic()
    b = mk(K=1.2, Kp=0.2, L=1.0, Lam=1.0)
    order, eps = select_error(sys, ZERO, b, 0.01)
    assert order is ErrorOrder.O1_ZERO
    assert eps == pytest.approx(err_o1(b, 0.01), rel=1e-12)


def test_select_forced_orders():
    sys = harmonic()
    b = StepErrorBounds(
        K=1.2, Kp=0.1, L=1.0, Lp=0.0, H=0.0, Hp=0.0, Lam=1.0,
        Ki=(1.0, 1.0), Li=(0.0, 0.0), Hi=(0.0, 0.0),
    )
    order, eps = select_error(sys, CONSTANT, b, 0.01, forced=2)
    assert order is ErrorOrder.O2_CONSTANT
    assert eps == pytest.approx(err_o2_constant(b, 0.01), rel=1e-12)
    order, eps = select_error(sys, AFFINE, b, 0.01, forced=3)
    assert order is ErrorOrder.O3_ADDITIVE
    order, eps = select_error(sys, AFFINE, b, 0.01, forced=ErrorOrder.O2_AFFINE)
    assert eps == pytest.approx(err_o2_affine(b, 0.01), rel=1e-12)


def test_select_rejects_nonpositive_step():
    sys = harmonic()
    b = mk(K=1.2, Kp=0.1, L=1.0, Lam=1.0)
    for kind in SchemeKind:
        for forced in (None, 1, 2, 3, *ErrorOrder):
            with pytest.raises(InapplicableError):
                select_error(sys, InputScheme(kind), b, 0.0, forced=forced)


def _rand_bounds(rng, additive=False):
    return mk(
        K=rng.uniform(0, 3),
        Kp=rng.uniform(1e-3, 1),
        L=rng.uniform(0, 2),
        Lp=0.0 if additive else rng.uniform(0, 1),
        H=rng.uniform(0, 2),
        Hp=0.0 if additive else rng.uniform(0, 1),
        Lam=rng.uniform(-1, 1.5),
    )


def test_monotone_in_constants_and_step():
    rng = random.Random(37)
    fns = [
        err_o1,
        err_o2_constant,
        err_o2_constant_c2,
        err_o2_affine,
        lambda b, h: err_o3_single(b, h),
    ]
    fields = ["K", "Kp", "L", "Lp", "H", "Hp", "Lam"]
    for _ in range(300):
        b = _rand_bounds(rng)
        h = 10 ** rng.uniform(-4, -1.2)
        for fn in fns:
            try:
                base = fn(b, h)
            except InapplicableError:
                continue
            field = rng.choice(fields)
            bumped = dict(
                K=b.K, Kp=b.Kp, L=b.L, Lp=b.Lp, H=b.H, Hp=b.Hp, Lam=b.Lam,
            )
            bumped[field] += rng.random()
            b2 = mk(**bumped)
            try:
                assert fn(b2, h) >= base * (1 - 1e-13)
                assert fn(b, h * (1 + rng.random())) >= base * (1 - 1e-13)
            except InapplicableError:
                pass


def test_upper_rounded_vs_high_precision():
    rng = random.Random(41)
    for _ in range(200):
        b = _rand_bounds(rng, additive=True)
        h = 10 ** rng.uniform(-4, -1.2)
        if h * b.L >= 2:
            continue
        got = err_o3_additive(b, h)
        hh, k, kp, l, hs, lam = (mpmath.mpf(x) for x in (h, b.K, b.Kp, b.L, b.H, b.Lam))
        exact = (
            mpmath.mpf(7) / 48 * hh**3 * kp * hs * (k + kp)
            + mpmath.mpf(7) / 8 * hh**3 * kp * (l**2 + hs * (k + kp * mpmath.mpf("2.5"))) * mp_phi(lam * hh)
        ) / (1 - hh * l / 2)
        assert mpmath.mpf(got) >= exact * (1 - mpmath.mpf("1e-15"))


def _loglog_slope(fn, b):
    hs = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    xs = [math.log(h) for h in hs]
    ys = [math.log(fn(b, h)) for h in hs]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)


def test_order_slopes():
    b = mk(K=0.1, Kp=0.1, L=0.1, Lp=0.1, H=0.1, Hp=0.1, Lam=0.0)
    b_add = mk(K=0.1, Kp=0.1, L=0.1, Lp=0.0, H=0.1, Hp=0.0, Lam=0.0)
    assert abs(_loglog_slope(err_o1, b) - 1.0) <= 0.05
    assert abs(_loglog_slope(err_o2_constant, b) - 2.0) <= 0.05
    assert abs(_loglog_slope(err_o2_constant_c2, b) - 2.0) <= 0.05
    assert abs(_loglog_slope(err_o2_affine, b) - 2.0) <= 0.05
    assert abs(_loglog_slope(err_o3_additive, b_add) - 3.0) <= 0.05
    assert abs(_loglog_slope(lambda bb, h: err_o3_single(bb, h), b) - 3.0) <= 0.05
