import math
import random
from fractions import Fraction

import mpmath
import pytest

from direach.interval import Interval, _mul_up, iv_exp
from direach.inputs import InputScheme, SchemeKind
from direach.localerr import (
    ErrorOrder,
    InapplicableError,
    _first_order,
    err_o1,
    err_o2_affine,
    err_o2_constant,
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
    return StepErrorBounds(K=K, Kp=Kp, L=L, Lp=Lp, H=H, Hp=Hp, Lam=Lam)


VDP = mk(K=20.0, Kp=0.08, L=31.0, Lp=0.0, H=12.0, Hp=0.0, Lam=27.0)


def mp_phi(u):
    with mpmath.workprec(200):
        u = mpmath.mpf(u)
        return mpmath.expm1(u) / u if u != 0 else mpmath.mpf(1)


def mp_formula(fn, b, h):
    """The exact value of fn's formula at b and h, to 200 bits."""
    with mpmath.workprec(200):
        h, k, kp, l, lp, hs, hp, lam = (mpmath.mpf(x) for x in (h, b.K, b.Kp, b.L, b.Lp, b.H, b.Hp, b.Lam))
        phi = mp_phi(lam * h)
        if fn is err_o1:
            return min(h * kp * phi, h * (2 * k + kp))
        if fn is err_o2_constant:
            return h**2 * ((k + kp) * lp / 3 + 2 * kp * (l + lp) * phi)
        if fn is err_o2_affine:
            rhs = h**2 / 4 * lp * (11 * k + mpmath.mpf("34.5") * kp)
            rhs += 7 * h**3 / 8 * kp * ((4 * hp + hs) * (k + mpmath.mpf("2.5") * kp) + l**2 + (mpmath.mpf("4.5") * l + 5 * lp) * lp) * phi
            rhs += 7 * h**3 / 48 * (hs * kp + l * lp) * (k + kp)
            return rhs / (1 - h * l / 2 - h * lp)
        if fn is err_o3_additive:
            rhs = 7 * h**3 / 48 * kp * hs * (k + kp)
            rhs += 7 * h**3 / 8 * kp * (l**2 + hs * (k + mpmath.mpf("2.5") * kp)) * phi
            return rhs / (1 - h * l / 2)
        assert fn is err_o3_single
        rhs = 7 * h**3 / 8 * kp * ((hs + 10 * hp) * (k + mpmath.mpf("2.5") * kp) + l**2 + mpmath.mpf("12.5") * l * lp + 25 * lp**2) * phi
        tail = 7 * (hs * kp + l * lp) + 28 * (hp * k + l * lp) + 29 * (hp * kp + lp**2)
        rhs += h**3 / 48 * (k + kp) * tail
        return rhs / (1 - h * l / 2 - h * lp)


def test_growth_factor():
    assert growth_factor(0.0) >= 1.0
    assert growth_factor(-2.0) < 1.0
    rng = random.Random(43)
    us = [0.0, 5e-324, 1e-300, 1e-9, 9.9e-9, 1e-8, 2e-8, 1e-4, 0.0025, 0.1, 0.5, 1.0, 2.0, 30.0, 700.0]
    us += [10 ** rng.uniform(-12, 2.8) for _ in range(300)]
    for u in us + [-u for u in us]:
        got = growth_factor(u)
        exact = mp_phi(u)
        assert mpmath.mpf(got) >= exact, u
        # e^u - 1 cancels for small |u| outside the series branch: there the
        # excess of e^u's two-ulp enclosure is relative to u, not to phi
        tol = 1e-14 if abs(u) < 1e-8 or abs(u) >= 0.1 else 4 * 2.0**-52 / abs(u)
        assert mpmath.mpf(got) <= exact * (1 + mpmath.mpf(tol)), u


def test_growth_factor_argument_rounded_up():
    # Lam*h rounds to nearest below its exact value; phi of the rounded
    # product fell below the exact h*K'*phi(Lam*h) = 7921.65223368647176...
    b = mk(K=1e12, Kp=1.0, Lam=487.85726506860414)
    h = 0.031089786494202673
    assert Fraction(b.Lam * h) < Fraction(b.Lam) * Fraction(h)
    assert mpmath.mpf(err_o1(b, h)) >= mp_formula(err_o1, b, h)


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
    b = StepErrorBounds(K=1, Kp=1, L=1, Lp=1, H=0, Hp=0, Lam=0)
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
    order, eps = select_error(sys, AFFINE, b, 0.0628)
    assert order is ErrorOrder.O3_ADDITIVE
    assert eps > 0


def test_select_two_state_dependent_inputs_picks_affine_o2():
    sys = InputAffineSystem(
        2, ["x2", "x1"], [["1", "x1"], ["x1", "1"]], [1.0, 1.0]
    )
    b = StepErrorBounds(K=2, Kp=2, L=1, Lp=2, H=0, Hp=0, Lam=1)
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
    b = StepErrorBounds(K=1.2, Kp=0.1, L=1.0, Lp=0.0, H=0.0, Hp=0.0, Lam=1.0)
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


def test_select_checks_step_and_forced_without_inputs():
    """The zero bound of a step without inputs, or with inputs that vanish
    on the box, comes only after the checks of h and forced."""
    no_inputs = InputAffineSystem(2, ["x2", "-x1"])
    vanishing = mk(K=1.2, Kp=0.0, L=1.0, Lam=1.0)
    for sys, b in ((no_inputs, vanishing), (harmonic(), vanishing)):
        assert select_error(sys, AFFINE, b, 0.01) == (ErrorOrder.O1_ZERO, 0.0)
        for h in (-1.0, 0.0):
            with pytest.raises(InapplicableError):
                select_error(sys, AFFINE, b, h)
        for forced in (4, "x", 1.5):
            with pytest.raises(ValueError, match="unknown forced order"):
                select_error(sys, AFFINE, b, 0.01, forced=forced)


def test_select_error_computes_phi_once(monkeypatch):
    """select_error takes phi(Lam h) once per call, however many formulas
    it evaluates, and each answer equals its formula called alone, bit for
    bit."""
    from direach import localerr

    alone = {
        ErrorOrder.O3_ADDITIVE: err_o3_additive,
        ErrorOrder.O2_CONSTANT: err_o2_constant,
        ErrorOrder.O2_AFFINE: err_o2_affine,
    }
    calls = []
    counted = localerr.growth_factor
    monkeypatch.setattr(localerr, "growth_factor", lambda u: calls.append(u) or counted(u))
    rng = random.Random(61)
    one_input = InputAffineSystem(2, ["x2", "-x1"], [["0", "x1"]], [0.1])
    for _ in range(100):
        b = _rand_bounds(rng, additive=rng.random() < 0.5)
        h = 10.0 ** rng.uniform(-4, -1.5)
        for sys in (harmonic(), one_input):
            for scheme in (AFFINE, CONSTANT, ZERO):
                calls.clear()
                order, eps = select_error(sys, scheme, b, h)
                assert len(calls) == 1
                if order is ErrorOrder.O3_SINGLE:
                    expect = err_o3_single(b, h, m=1)
                elif order is ErrorOrder.O1_ZERO:
                    expect = _first_order(b, h, scheme.w_sup_factor)
                else:
                    expect = alone[order](b, h)
                assert eps.hex() == expect.hex()


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
    # the formula, Lam*h included, at 200 bits; the bound may not fall below it
    rng = random.Random(41)
    for _ in range(200):
        b = _rand_bounds(rng, additive=True)
        h = 10 ** rng.uniform(-4, -1.2)
        if h * b.L >= 2:
            continue
        assert mpmath.mpf(err_o3_additive(b, h)) >= mp_formula(err_o3_additive, b, h), (b, h)


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
    assert abs(_loglog_slope(err_o2_affine, b) - 2.0) <= 0.05
    assert abs(_loglog_slope(err_o3_additive, b_add) - 3.0) <= 0.05
    assert abs(_loglog_slope(lambda bb, h: err_o3_single(bb, h), b) - 3.0) <= 0.05


# An Interval reference of the formulas as they were written before they
# moved to upward-rounded floats, in the same association order.  The
# constant 7/48 and the sum 1 + c are intervals, so that the reference is
# sound; phi's argument is the caller's.
def _pt(x):
    return Interval.point(x)


def _ref_phi(u):
    if abs(u) < 1e-8:
        return (_pt(1.0) + _pt(u) * 0.5).inflate(1e-15)
    return (iv_exp(_pt(u)) - 1.0) / u


def _ref_pre(b, h, with_lp):
    pre = _pt(1.0) - _pt(h) * b.L * 0.5
    if with_lp:
        pre = pre - _pt(h) * b.Lp
    if pre.lo <= 0.0:
        raise InapplicableError("denominator not positive")
    return pre


def _ref_first_order(b, h, w_factor):
    kp_eff = _pt(b.Kp) * (_pt(1.0) + w_factor)
    e1 = (_pt(h) * kp_eff * _ref_phi(b.Lam * h)).hi
    e2 = (_pt(h) * (_pt(b.K) * 2.0 + kp_eff)).hi
    return min(e1, e2)


def _ref_o2_constant(b, h):
    phi = _ref_phi(b.Lam * h)
    inner = (_pt(b.K) + b.Kp) * _pt(b.Lp) / 3.0 + _pt(b.Kp) * 2.0 * (_pt(b.L) + b.Lp) * phi
    return (_pt(h) ** 2 * inner).hi


def _ref_o2_affine(b, h):
    pre = _ref_pre(b, h, True)
    phi = _ref_phi(b.Lam * h)
    hh = _pt(h)
    k, kp, l, lp, hs, hp = _pt(b.K), _pt(b.Kp), _pt(b.L), _pt(b.Lp), _pt(b.H), _pt(b.Hp)
    rhs = (hh**2 / 4.0) * lp * (k * 11.0 + kp * 34.5)
    rhs = rhs + (hh**3 * (7.0 / 8.0)) * kp * (
        (hp * 4.0 + hs) * (k + kp * 2.5) + l**2 + (l * 4.5 + lp * 5.0) * lp
    ) * phi
    rhs = rhs + (hh**3 * (_pt(7.0) / 48.0)) * (hs * kp + l * lp) * (k + kp)
    return (rhs / pre).hi


def _ref_o3_additive(b, h):
    if b.Lp != 0.0 or b.Hp != 0.0:
        raise InapplicableError("state-dependent input")
    pre = _ref_pre(b, h, False)
    phi = _ref_phi(b.Lam * h)
    hh = _pt(h)
    k, kp, l, hs = _pt(b.K), _pt(b.Kp), _pt(b.L), _pt(b.H)
    rhs = (hh**3 * (_pt(7.0) / 48.0)) * kp * hs * (k + kp)
    rhs = rhs + (hh**3 * (7.0 / 8.0)) * kp * (l**2 + hs * (k + kp * 2.5)) * phi
    return (rhs / pre).hi


def _ref_o3_single(b, h):
    pre = _ref_pre(b, h, True)
    phi = _ref_phi(b.Lam * h)
    hh = _pt(h)
    k, kp, l, lp, hs, hp = _pt(b.K), _pt(b.Kp), _pt(b.L), _pt(b.Lp), _pt(b.H), _pt(b.Hp)
    rhs = (hh**3 * (7.0 / 8.0)) * kp * (
        (hs + hp * 10.0) * (k + kp * 2.5) + l**2 + l * lp * 12.5 + lp**2 * 25.0
    ) * phi
    tail = (hs * kp + l * lp) * 7.0 + (hp * k + l * lp) * 28.0 + (hp * kp + lp**2) * 29.0
    rhs = rhs + (hh**3 / 48.0) * (k + kp) * tail
    return (rhs / pre).hi


REFERENCE = {
    err_o1: lambda b, h: _ref_first_order(b, h, 0.0),
    err_o2_constant: _ref_o2_constant,
    err_o2_affine: _ref_o2_affine,
    err_o3_additive: _ref_o3_additive,
    err_o3_single: _ref_o3_single,
}


def _outcome(fn, b, h):
    try:
        return fn(b, h)
    except InapplicableError:
        return InapplicableError


def test_float_bounds_match_interval_reference_and_exact():
    """Each err_* against the Interval reference and the exact formula.

    Constants are 0, uniform or of magnitude 1e-8 or 1e8; Lam takes either
    sign; h goes up to 1.5.  Where Lam*h rounds to nearest at or above its
    exact value, both evaluate phi at the same argument and must agree
    bit for bit; everywhere the bound is at least the exact formula."""
    rng = random.Random(59)

    def const():
        return rng.choice((0.0, rng.uniform(0, 3), rng.uniform(0, 3) * 1e-8, rng.uniform(0, 3) * 1e8))

    seen = set()
    for _ in range(1_500):
        k, kp, l, lp, hs, hp = (const() for _ in range(6))
        if rng.random() < 0.3:
            lp = hp = 0.0  # constant input fields, for the additive bound
        b = mk(K=k, Kp=kp, L=l, Lp=lp, H=hs, Hp=hp, Lam=rng.choice((-1.0, 1.0)) * const())
        h = rng.choice((rng.uniform(0.0, 1.5), 10 ** rng.uniform(-4, 0)))
        if h == 0.0:
            continue
        same_phi = _mul_up(b.Lam, h) == b.Lam * h
        for fn, ref in REFERENCE.items():
            got = _outcome(fn, b, h)
            want = _outcome(ref, b, h)
            if got is InapplicableError or want is InapplicableError:
                assert got is want, (fn.__name__, b, h)
                continue
            seen.add((fn.__name__, same_phi))
            if same_phi:
                assert got.hex() == want.hex(), (fn.__name__, b, h)
            assert mpmath.mpf(got) >= mp_formula(fn, b, h), (fn.__name__, b, h)
    # every formula was evaluated with both kinds of rounding of Lam*h
    assert seen == {(fn.__name__, same) for fn in REFERENCE for same in (True, False)}


def test_first_order_matches_interval_reference():
    """The first-order bound widened by each scheme's sup|w|/V factor c:
    bit for bit the reference where both take phi at the same argument,
    and at least min(h(1+c)K'phi(Lam h), h(2K + (1+c)K')) everywhere."""
    rng = random.Random(61)
    factors = sorted({InputScheme(kind).w_sup_factor for kind in SchemeKind})
    assert len(factors) >= 3
    for _ in range(500):
        b = _rand_bounds(rng)
        h = 10 ** rng.uniform(-4, 0)
        for c in factors:
            got = _first_order(b, h, c)
            if _mul_up(b.Lam, h) == b.Lam * h:
                assert got.hex() == _ref_first_order(b, h, c).hex()
            with mpmath.workprec(200):
                hh, k, kp = (mpmath.mpf(x) for x in (h, b.K, b.Kp))
                kp_eff = (1 + mpmath.mpf(c)) * kp
                exact = min(hh * kp_eff * mp_phi(mpmath.mpf(b.Lam) * hh), hh * (2 * k + kp_eff))
                assert mpmath.mpf(got) >= exact
