import math
import random

import pytest

from direach.inputs import (
    InputScheme,
    PiecewiseConstant,
    SchemeKind,
    match_parameters,
    quadratic_envelope_check,
    realize_w,
)
from direach.polymodel import PolynomialModel, Role, VarInfo


def layout(n_params, with_time=True, h=0.1):
    infos = [VarInfo(Role.INPUT) for _ in range(n_params)]
    if with_time:
        infos.append(VarInfo(Role.TIME, radius=h / 2))
    return tuple(infos)


def test_zero_scheme_constant_zero():
    sch = InputScheme(SchemeKind.ZERO)
    vars_ = layout(0)
    w = realize_w(sch, 1.0, vars_, (), 0, 5)
    assert w.terms == {} and w.error == 0.0


def test_affine_midpoint_kills_slope():
    sch = InputScheme(SchemeKind.AFFINE)
    vars_ = layout(2)
    w = realize_w(sch, 1.0, vars_, (0, 1), 2, 5)
    rng = random.Random(3)
    for _ in range(200):
        a0, a1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        # tau = 0 is the midpoint
        assert w.eval_point((a0, a1, 0.0)) == pytest.approx(a0, rel=1e-12, abs=1e-12)


def test_affine_range_five_halves():
    sch = InputScheme(SchemeKind.AFFINE)
    vars_ = layout(2)
    w = realize_w(sch, 1.0, vars_, (0, 1), 2, 5)
    r = w.range()
    assert r.hi == pytest.approx(2.5, rel=1e-12)
    assert r.lo == pytest.approx(-2.5, rel=1e-12)
    # attained at a0=1, a1=1, tau=1
    assert w.eval_point((1.0, 1.0, 1.0)) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize(
    "kind,bound",
    [
        (SchemeKind.CONSTANT, 1.0),
        (SchemeKind.AFFINE, 2.5),
        (SchemeKind.AFFINE_REDUCED, 5.0 / 3.0),
    ],
)
def test_w_never_exceeds_stated_bounds(kind, bound):
    sch = InputScheme(kind)
    p = sch.params_per_input
    vars_ = layout(p)
    w = realize_w(sch, 1.0, vars_, tuple(range(p)), p, 5)
    rng = random.Random(7)
    worst = 0.0
    for _ in range(5000):
        z = [rng.uniform(-1, 1) for _ in range(p + 1)]
        worst = max(worst, abs(w.eval_point(z)))
    assert worst <= bound + 1e-9
    assert sch.w_sup_factor == pytest.approx(bound)


def test_step_scheme_halves():
    sch = InputScheme(SchemeKind.STEP)
    vars_ = layout(2, with_time=False)
    w0 = realize_w(sch, 1.0, vars_, (0, 1), None, 5, half=0)
    w1 = realize_w(sch, 1.0, vars_, (0, 1), None, 5, half=1)
    assert w0.eval_point((0.5, -0.3)) == pytest.approx(1.0)
    assert w1.eval_point((0.5, -0.3)) == pytest.approx(-0.6)
    rng = random.Random(11)
    for _ in range(1000):
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(w0.eval_point(z)) <= 2.0 + 1e-12
        assert abs(w1.eval_point(z)) <= 2.0 + 1e-12
    assert sch.w_sup_factor == 2.0


def test_match_constant_input_saturates_mean():
    sch = InputScheme(SchemeKind.AFFINE)
    v = PiecewiseConstant((0.0, 0.1), (1.0,))
    a0, a1 = match_parameters(v, sch, 0.0, 0.1)
    assert a0 == pytest.approx(1.0, rel=1e-14)
    assert a1 == pytest.approx(0.0, abs=1e-12)


def test_match_half_step_flip_maximizes_slope():
    sch = InputScheme(SchemeKind.AFFINE)
    V = 0.7
    h = 0.25
    v = PiecewiseConstant((0.0, h / 2, h), (-V, V))
    a0, a1 = match_parameters(v, sch, 0.0, h)
    assert a0 == pytest.approx(0.0, abs=1e-14)
    assert a1 == pytest.approx(3 * V, rel=1e-12)


def test_match_step_scheme_moments():
    sch = InputScheme(SchemeKind.STEP)
    h = 0.2
    v = PiecewiseConstant((0.0, 0.05, 0.2), (1.0, -0.5))
    a0, a1 = match_parameters(v, sch, 0.0, h)
    # the matched step function must reproduce both moments
    w = PiecewiseConstant((0.0, h / 2, h), (a0, a1))
    assert w.mean() == pytest.approx(v.mean(), rel=1e-12)
    assert w.centered_moment(h / 2) == pytest.approx(v.centered_moment(h / 2), rel=1e-12)
    assert abs(a0) <= 2.0 and abs(a1) <= 2.0


def test_quadratic_envelope_examples():
    V = 0.3
    assert quadratic_envelope_check(V, 0.0, V)
    assert quadratic_envelope_check(0.0, 3 * V, V)
    assert not quadratic_envelope_check(0.9 * V, 3 * V, V)


def test_moment_matching_coverage_property():
    rng = random.Random(13)
    sch = InputScheme(SchemeKind.AFFINE)
    V = 1.0
    h = 0.5
    for _ in range(1000):
        k = rng.randint(1, 6)
        cuts = sorted(rng.uniform(0, h) for _ in range(k - 1))
        breaks = (0.0, *cuts, h)
        vals = tuple(rng.uniform(-V, V) for _ in range(k))
        v = PiecewiseConstant(breaks, vals)
        a0, a1 = match_parameters(v, sch, 0.0, h)
        assert abs(a0) <= V + 1e-12
        assert abs(a1) <= 3 * V + 1e-9
        assert quadratic_envelope_check(a0, a1, V, tol=1e-9)


def test_match_parameters_rejects_step_that_is_not_positive_and_finite():
    v = PiecewiseConstant((0.0, 0.05, 0.1), (0.5, -0.5))
    for kind in SchemeKind:
        for h in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="^step size must be positive$"):
                match_parameters(v, InputScheme(kind), 0.0, h)


def test_scheme_from_name():
    assert InputScheme.from_name("affine-reduced").kind is SchemeKind.AFFINE_REDUCED
    with pytest.raises(ValueError):
        InputScheme.from_name("quadratic")


def test_scheme_takes_a_kind_or_its_name():
    """A name builds the scheme of its kind, so that the step realizes its
    surrogate; an unknown name raises ValueError at construction."""
    for kind in SchemeKind:
        assert InputScheme(kind.value).kind is kind and InputScheme(kind.value) == InputScheme(kind)
    w = realize_w(InputScheme("step"), 0.5, layout(2, with_time=False), (0, 1), None, 3, half=1)
    assert (w.range().lo, w.range().hi) == (-1.0, 1.0)
    valid = "zero, constant, affine, affine-reduced, step"
    with pytest.raises(ValueError, match=f"^unknown input scheme 'bogus'; expected one of: {valid}$"):
        InputScheme("bogus")
