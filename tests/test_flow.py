import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from direach import dense, flow
from direach.flow import (
    AprioriBound,
    CertificationError,
    StepGeometry,
    _banach_remainder,
    _strip_errors,
    _w_sups,
    apriori_bound,
    input_hull_ranges,
    picard_flow,
)
from direach.inputs import InputScheme, SchemeKind
from direach.interval import Box, Interval, _mul_up
from direach.localerr import select_error
from direach.mc import compile_field, rk4_segment
from direach.polymodel import FloatPolynomial, PolynomialModel, Role, VarInfo, VectorModel
from direach.symexpr import InputAffineSystem, compute_bounds

ZERO = InputScheme(SchemeKind.ZERO)
CONSTANT = InputScheme(SchemeKind.CONSTANT)
AFFINE = InputScheme(SchemeKind.AFFINE)
STEP = InputScheme(SchemeKind.STEP)


def point_model(values, infos=(), cap=5):
    vars_ = tuple(infos)
    return VectorModel(
        tuple(PolynomialModel.constant(v, vars_, cap) for v in values)
    )


def box_model(box: Box, cap=5):
    infos = tuple(VarInfo(Role.STATE, axis=i) for i in range(box.n))
    comps = []
    for i, c in enumerate(box):
        m = PolynomialModel.constant(c.mid, infos, cap)
        m = m + PolynomialModel.from_var(i, infos, cap).scale(c.rad)
        comps.append(m)
    return VectorModel(tuple(comps))


_OSC = InputAffineSystem(2, ["x2", "-x1"], [["0", "1"]], [0.1])
_BOX1 = Box.from_bounds([(0.9, 1.1)])
_BOX2 = Box.from_bounds([(0.9, 1.1), (-0.1, 0.1)])
_BOX3 = Box.from_bounds([(0.9, 1.1), (-0.1, 0.1), (0.0, 0.1)])
_GEOM = StepGeometry(0.0, 0.01)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _OSC.rhs_interval(_BOX1, input_hull_ranges(_OSC, AFFINE)), "box has dimension 1, expected 2"),
        (lambda: _OSC.rhs_interval(_BOX3, input_hull_ranges(_OSC, AFFINE)), "box has dimension 3, expected 2"),
        (lambda: compute_bounds(_OSC, _BOX1), "box has dimension 1, expected 2"),
        (lambda: compute_bounds(_OSC, _BOX3), "box has dimension 3, expected 2"),
        (lambda: _OSC.jacobian_norms(_BOX3), "box has dimension 3, expected 2"),
        (lambda: apriori_bound(_OSC, _BOX1, AFFINE, _GEOM), "box has dimension 1, expected 2"),
        (lambda: apriori_bound(_OSC, _BOX3, AFFINE, _GEOM), "box has dimension 3, expected 2"),
        (
            lambda: picard_flow(_OSC, box_model(_BOX1), AFFINE, _GEOM, apriori_bound(_OSC, _BOX2, AFFINE, _GEOM)),
            "initial models have dimension 1 and the a-priori bound 2, expected 2",
        ),
        (
            lambda: picard_flow(_OSC, box_model(_BOX2), AFFINE, _GEOM, AprioriBound(_BOX3, (Interval(-1.0, 1.0),))),
            "initial models have dimension 2 and the a-priori bound 3, expected 2",
        ),
        (lambda: InputAffineSystem(1.5, ["-x1"]), "dimension 1.5 is not an int"),
        (lambda: InputAffineSystem(math.inf, ["-x1"]), "dimension inf is not an int"),
    ],
    ids=[
        "rhs_interval-1",
        "rhs_interval-3",
        "compute_bounds-1",
        "compute_bounds-3",
        "jacobian_norms-3",
        "apriori_bound-1",
        "apriori_bound-3",
        "picard_flow-X",
        "picard_flow-bound",
        "InputAffineSystem-1.5",
        "InputAffineSystem-inf",
    ],
)
def test_public_entries_reject_a_wrong_dimension(call, message):
    """A box, model vector or bound of another dimension than the system's,
    and a dimension that is not an integer, raise a plain ValueError that
    names both: not an IndexError, a zip error or a certification failure
    to retry, and no silent answer."""
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_apriori_zero_field_identity():
    sys = InputAffineSystem(1, ["0"])
    b = apriori_bound(sys, Box.from_bounds([(0, 1)]), ZERO, StepGeometry(0.0, 0.5))
    assert b.box[0] == Interval(0, 1)


def test_apriori_unit_speed():
    sys = InputAffineSystem(1, ["1"])
    b = apriori_bound(sys, Box.from_bounds([(0, 0)]), ZERO, StepGeometry(0.0, 0.1))
    assert b.box[0].contains_interval(Interval(0, 0.1))


def test_apriori_exponential():
    sys = InputAffineSystem(1, ["x1"])
    b = apriori_bound(sys, Box.from_bounds([(1, 1)]), ZERO, StepGeometry(0.0, 0.1))
    assert b.box[0].hi >= math.exp(0.1)
    assert b.box[0].lo <= 1.0


def test_apriori_failure_for_huge_step():
    sys = InputAffineSystem(1, ["x1^2"])
    with pytest.raises(CertificationError):
        apriori_bound(sys, Box.from_bounds([(1, 2)]), ZERO, StepGeometry(0.0, 50.0))


def test_apriori_unbounded_field_raises_certification_error():
    # 40^200 overflows, so sin of it has no finite interval argument
    sys = InputAffineSystem(1, ["sin(x1^200)"])
    with pytest.raises(CertificationError, match="not bounded"):
        apriori_bound(sys, Box.from_bounds([(40, 40)]), ZERO, StepGeometry(0.0, 1e-3))


def test_apriori_exp_overflow_raises_certification_error():
    # e^709.9 overflows a double: the field is unbounded on the box
    sys = InputAffineSystem(1, ["-exp(x1)"])
    with pytest.raises(CertificationError, match="not bounded"):
        apriori_bound(sys, Box.from_bounds([(709.5, 709.9)]), ZERO, StepGeometry(0.0, 1e-3))


# the fields of two benchmark workloads, with their scheme, step size, a
# step size that needs more inflation rounds, and a box around their start
APRIORI_WORKLOADS = {
    "vdp-affine-deg5": (
        InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05]),
        AFFINE, (0.01, 0.15), Box.from_bounds([(1.99, 2.01), (-0.01, 0.01)]),
    ),
    "trig3-step": (
        InputAffineSystem(
            3,
            ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"],
            [["0", "0", "1"], ["cos(x3)", "sin(x3)", "0"]],
            [0.05, 0.05],
        ),
        STEP, (0.02, 0.4), Box.from_bounds([(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)]),
    ),
}


@pytest.mark.parametrize("name, k, calls", [("vdp-affine-deg5", 0, 3), ("trig3-step", 0, 2), ("trig3-step", 1, 5)])
def test_apriori_bound_checks_each_trial_box_once(monkeypatch, name, k, calls):
    """apriori_bound evaluates the field 1 + r times for r inflation rounds:
    once on X, then once per trial box B, and returns X + [0,h] * F(B) for
    the first B that holds it, without evaluating the field again.  The
    first trial box of trig3-step at its own step maps into itself; the
    others need two rounds or more."""
    sys, scheme, steps, X = APRIORI_WORKLOADS[name]
    h = steps[k]
    boxes = []
    rhs_interval = InputAffineSystem.rhs_interval
    monkeypatch.setattr(InputAffineSystem, "rhs_interval", lambda s, box, u: boxes.append(box) or rhs_interval(s, box, u))
    bound = apriori_bound(sys, X, scheme, StepGeometry(0.0, h))
    monkeypatch.undo()
    u = input_hull_ranges(sys, scheme)
    assert boxes[0] == X and bound.input_ranges == u
    step = Interval(0.0, h)
    trials = [Box(tuple(x + step * r for x, r in zip(X, sys.rhs_interval(B, u)))) for B in boxes[1:]]
    assert [B.contains_box(T) for B, T in zip(boxes[1:], trials)] == [False] * (len(trials) - 1) + [True]
    assert bound.box == trials[-1] and len(boxes) == calls


@pytest.mark.parametrize("name, k", [(name, k) for name in sorted(APRIORI_WORKLOADS) for k in (0, 1)])
def test_apriori_bound_holds_every_trajectory(name, k):
    """X + [0,h] * F(B), returned once B holds it, contains every
    trajectory of the inclusion over the step, at the workload's own step
    size and at one that needs more inflation rounds: RK4 from the corners
    and random points of X, each with its inputs held at a corner of +-V
    or drawn at random per piece of [0, h], stays in the box at every
    substep (1e-12 slack for RK4 rounding)."""
    sys, scheme, steps, X = APRIORI_WORKLOADS[name]
    h, pieces, substeps = steps[k], 20, 10
    box = apriori_bound(sys, X, scheme, StepGeometry(0.0, h)).box
    rng = np.random.default_rng(97 + k)
    rhs = compile_field(sys)
    V = np.array(sys.V)
    corners = list(itertools.product(*[(c.lo, c.hi) for c in X]))
    starts = corners + [[rng.uniform(c.lo, c.hi) for c in X] for _ in range(16)]
    held = [np.array(s) * V for s in itertools.product((-1.0, 1.0), repeat=sys.m)] + [None] * 4
    x = np.array([x0 for x0 in starts for _ in held], dtype=float)
    lo = np.array([c.lo for c in box]) - 1e-12
    hi = np.array([c.hi for c in box]) + 1e-12
    for _ in range(pieces):
        u = np.array([v if v is not None else rng.uniform(-1, 1, sys.m) * V for _ in starts for v in held])
        for _ in range(substeps):
            x = rk4_segment(rhs, x, u, h / (pieces * substeps), 1)
            assert ((lo <= x) & (x <= hi)).all()


def test_step_geometry_rejects_nan_and_infinite_steps():
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^step size must be positive$"):
            StepGeometry(0.0, h)


@pytest.mark.parametrize(
    "field, x0, h, iterations, reason",
    [
        ("x1^2", 1e160, 2e-162, 1, "composable"),
        ("1/(2-x1)", 1.0, 0.9, 1, "unbounded"),
        ("1/(2-x1)", 1.0, 0.6, 10, "composable"),
        ("x1^2*0.5 - x1^2", 1e160, 2e-162, 1, "composable"),
    ],
)
def test_picard_diverging_iterate_raises_certification_error(field, x0, h, iterations, reason):
    # A bound of +-1 % around x0, too small for the step or the field:
    #   x1^2 from 1e160: the first iterate's square overflows inside the
    #     composition;
    #   1/(2-x1), h = 0.9: the tube reaches the pole, so the grown work box
    #     has no finite Jacobian;
    #   1/(2-x1), h = 0.6, 10 iterates: an iterate's range reaches the pole
    #     inside the composition;
    #   x1^2*0.5 - x1^2 from 1e160: inf - inf inside the composition.
    # All stay certification failures, which callers retry with a smaller
    # step.
    sys = InputAffineSystem(1, [field])
    bound = AprioriBound(Box.from_bounds([(0.99 * x0, 1.01 * x0)]), ())
    with pytest.raises(CertificationError, match=reason):
        picard_flow(
            sys, point_model([x0]), ZERO, StepGeometry(0.0, h), bound, iterations=iterations
        )


@pytest.mark.parametrize("field", ["x1^2", "x1^2*0.5 - x1^2"])
def test_float_stage_overflow_raises_certification_error(field):
    """From 1e160 over a step of 2e-162 the operator contracts, but the
    float stage's square overflows (to inf, or inf - inf = NaN): with a
    vector X the float iterate is not finite, which is a certification
    failure, with no numpy warning."""
    sys = InputAffineSystem(1, [field])
    X = _vector(point_model([1e160]))
    bound = AprioriBound(Box.from_bounds([(0.99e160, 1.01e160)]), ())
    with pytest.raises(CertificationError, match="Picard iteration diverged"):
        picard_flow(sys, X, ZERO, StepGeometry(0.0, 2e-162), bound)


def test_input_hull_ranges_cover_surrogates():
    """The a-priori hull and the rates' sup|w| hold the true disturbances
    (+-V) and every surrogate (+-V * w_sup_factor), compared exactly:
    rounded to nearest, 0.05 * 2.5 and 0.4 * 2.5 fall below their exact
    products."""
    for kind in SchemeKind:
        scheme = InputScheme(kind)
        for V in (0.05, 0.08, 0.1, 0.4):
            sys = InputAffineSystem(1, ["0"], [["1"]], [V])
            exact = Fraction(V) * Fraction(scheme.w_sup_factor)
            (r,) = input_hull_ranges(sys, scheme)
            assert r.lo == -r.hi and Fraction(r.hi) >= max(exact, Fraction(V)), (kind, V)
            (ws,) = _w_sups(sys, scheme)
            assert Fraction(ws) >= exact, (kind, V)
    (rz,) = input_hull_ranges(InputAffineSystem(1, ["0"], [["1"]], [0.4]), ZERO)
    assert rz == Interval(-0.4, 0.4)


def test_picard_constant_speed():
    sys = InputAffineSystem(1, ["1"])
    X = point_model([0.0])
    geom = StepGeometry(0.0, 0.1)
    b = apriori_bound(sys, X.box(), ZERO, geom)
    phi = picard_flow(sys, X, ZERO, geom, b)
    r = phi[0].range()
    assert r.contains(0.1)
    assert phi[0].error < 1e-12
    assert r.width < 1e-10


def test_picard_exponential_tight():
    sys = InputAffineSystem(1, ["x1"])
    X = point_model([1.0])
    geom = StepGeometry(0.0, 0.1)
    b = apriori_bound(sys, X.box(), ZERO, geom)
    phi = picard_flow(sys, X, ZERO, geom, b, iterations=6)
    r = phi[0].range()
    assert r.contains(math.exp(0.1))
    assert phi[0].error <= 1e-7


def test_picard_pure_parameter_flow():
    sys = InputAffineSystem(1, ["0"], [["1"]], [1.0])
    X = point_model([0.0])
    geom = StepGeometry(0.0, 0.1)
    b = apriori_bound(sys, X.box(), CONSTANT, geom)
    phi = picard_flow(sys, X, CONSTANT, geom, b)
    # expect 0.1 * alpha0
    assert phi[0].eval_point((1.0,)) == pytest.approx(0.1, rel=1e-12)
    assert phi[0].eval_point((-1.0,)) == pytest.approx(-0.1, rel=1e-12)
    assert phi[0].error < 1e-12


def _integrate_surrogate(sys, x0, w_of_t, t0, h, n=4000):
    """Fine RK4 for dx/dt = f(x) + sum g_i(x) w_i(t), batched over samples.

    x0 holds one initial state per row; w_of_t(t) gives the inputs at time t,
    one row per sample.  Returns the states at t0 + h, one row per sample."""
    rhs = compile_field(sys)
    x = np.array(x0, dtype=float)
    dt = h / n
    t = t0
    for _ in range(n):
        # classic RK4 with time-varying input evaluated at substage times
        w_mid = w_of_t(t + 0.5 * dt)
        k1 = rhs(x, w_of_t(t))
        k2 = rhs(x + 0.5 * dt * k1, w_mid)
        k3 = rhs(x + 0.5 * dt * k2, w_mid)
        k4 = rhs(x + dt * k3, w_of_t(t + dt))
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return x


def _box_points(X0, zs):
    """Points of box X0 at unit coordinates zs (one row per sample)."""
    return np.array([[c.mid + c.rad * z for c, z in zip(X0, row)] for row in zs])


def harmonic():
    return InputAffineSystem(2, ["x2", "-x1"], [["1", "0"], ["0", "1"]], [0.1, 0.1])


def vdp():
    return InputAffineSystem(2, ["x2", "-x1 + 2*(1 - x1^2)*x2"], [["0", "1"]], [0.08])


def trig3():
    return InputAffineSystem(
        3,
        ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"],
        [["0", "0", "1"], ["cos(x3)", "sin(x3)", "0"]],
        [0.05, 0.05],
    )


def test_picard_containment_harmonic_affine():
    sys = harmonic()
    X0 = Box.from_bounds([(0.9, 1.1), (-0.1, 0.1)])
    X = box_model(X0)
    geom = StepGeometry(0.0, 0.25)
    b = apriori_bound(sys, X0, AFFINE, geom)
    phi = picard_flow(sys, X, AFFINE, geom, b)
    rng = random.Random(71)
    zs, za = [], []
    for _ in range(200):
        zs.append([rng.uniform(-1, 1) for _ in range(2)])
        za.append([rng.uniform(-1, 1) for _ in range(4)])
    alpha = np.array(za)
    # parameter q of input i is fresh variable q * m + i: both inputs' a0, then their a1
    a0, a1 = 0.1 * alpha[:, :2], 3 * 0.1 * alpha[:, 2:]
    w = lambda t: a0 + a1 * (t - (geom.t0 + geom.h / 2)) / geom.h
    ref = _integrate_surrogate(sys, _box_points(X0, zs), w, 0.0, 0.25)
    for z, a, r in zip(zs, za, ref):
        got = phi.eval_point(tuple(z + a))
        for c in range(2):
            assert abs(r[c] - got[c]) <= phi[c].error * (1 + 1e-9) + 1e-12


def test_picard_containment_vdp_affine():
    sys = vdp()
    X0 = Box.from_bounds([(0.1, 0.105), (1.5, 1.505)])
    X = box_model(X0, cap=4)
    geom = StepGeometry(0.0, 0.005)
    b = apriori_bound(sys, X0, AFFINE, geom)
    phi = picard_flow(sys, X, AFFINE, geom, b)
    rng = random.Random(73)
    zs, za = [], []
    for _ in range(200):
        zs.append([rng.uniform(-1, 1) for _ in range(2)])
        za.append([rng.uniform(-1, 1) for _ in range(2)])
    alpha = np.array(za)
    a0, a1 = 0.08 * alpha[:, :1], 3 * 0.08 * alpha[:, 1:]
    w = lambda t: a0 + a1 * (t - (geom.t0 + geom.h / 2)) / geom.h
    ref = _integrate_surrogate(sys, _box_points(X0, zs), w, 0.0, 0.005, n=2000)
    for z, a, r in zip(zs, za, ref):
        got = phi.eval_point(tuple(z + a))
        for c in range(2):
            assert abs(r[c] - got[c]) <= phi[c].error * (1 + 1e-9) + 1e-12


def test_picard_containment_trig_two_inputs_step():
    """sin/cos in the drift and in an input field, two inputs, the step
    scheme: over three steps, each sweeping its input parameters into the
    band, every sampled surrogate trajectory stays in the band."""
    sys = trig3()
    X0 = Box.from_bounds([(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)])
    X = box_model(X0, cap=3)
    h = 0.05
    rng = np.random.default_rng(89)
    zs = rng.uniform(-1, 1, size=(200, 3))
    ref = _box_points(X0, zs)
    for k in range(3):
        geom = StepGeometry(k * h, h)
        b = apriori_bound(sys, X.box(), STEP, geom)
        Y = picard_flow(sys, X, STEP, geom, b, born=k + 1)
        fresh = [i for i, v in enumerate(Y.vars) if v.role is Role.INPUT]
        X = Y.map(lambda c: c.sweep(fresh))
        # the step surrogate: w_i = 2 V_i alpha_i on each half, |alpha_i| <= 1;
        # alpha at the corners reaches the band's edge (within 1 %)
        for t0 in (geom.t0, geom.t0 + geom.h / 2):
            w = 2 * 0.05 * rng.choice([-1.0, 1.0], size=(len(zs), 2))
            ref = _integrate_surrogate(sys, ref, lambda t: w, t0, geom.h / 2, n=200)
    assert max(c.error for c in X) < 0.05
    for z, r in zip(zs, ref):
        got = X.eval_point(tuple(z))
        for c in range(3):
            assert abs(r[c] - got[c]) <= X[c].error * (1 + 1e-9) + 1e-12


def test_picard_stop_rule_not_early():
    # the default stops on its own; forcing cap + 2 = 6 iterates gains < 1 %
    sys = vdp()
    X0 = Box.from_bounds([(0.1, 0.105), (1.5, 1.505)])
    X = box_model(X0, cap=4)
    geom = StepGeometry(0.0, 0.005)
    b = apriori_bound(sys, X0, AFFINE, geom)
    e_default = max(c.error for c in picard_flow(sys, X, AFFINE, geom, b))
    e_forced = max(c.error for c in picard_flow(sys, X, AFFINE, geom, b, iterations=6))
    assert e_default <= 1.01 * e_forced


def test_picard_more_iterations_never_worse():
    sys = vdp()
    X0 = Box.from_bounds([(0.1, 0.105), (1.5, 1.505)])
    X = box_model(X0, cap=4)
    geom = StepGeometry(0.0, 0.005)
    b = apriori_bound(sys, X0, AFFINE, geom)
    e6 = max(c.error for c in picard_flow(sys, X, AFFINE, geom, b, iterations=6))
    e12 = max(c.error for c in picard_flow(sys, X, AFFINE, geom, b, iterations=12))
    assert e12 <= e6 * (1 + 1e-9) + 1e-15


def test_picard_stops_on_certified_remainder(monkeypatch):
    # Van der Pol with one state-dependent input at cap 5, h = 0.01, from
    # the box (2, 0) +- 0.01 shifted by about 1e-3.  The first iterate whose
    # Banach term kappa*rho/(1-kappa) is no bigger than its own error is the
    # fourth, so the step composes and integrates the field four times.
    sys = InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05])
    X0 = Box.from_bounds(
        [(1.9894848493188106, 2.0094848493188104), (-0.01088208948945209, 0.009117910510547911)]
    )
    X = box_model(X0, cap=5)
    geom = StepGeometry(0.0, 0.01)
    b = apriori_bound(sys, X0, AFFINE, geom)
    calls = []
    antiderivative = PolynomialModel.antiderivative

    def counted(self, time_position):
        calls.append(time_position)
        return antiderivative(self, time_position)

    with monkeypatch.context() as mp:
        mp.setattr(PolynomialModel, "antiderivative", counted)
        e_default = max(c.error for c in picard_flow(sys, X, AFFINE, geom, b))
    assert len(calls) == 4 * sys.n
    e_forced = max(c.error for c in picard_flow(sys, X, AFFINE, geom, b, iterations=12))
    assert e_default <= 2.0 * e_forced


def _banach_remainder_reference(kappa, rho):
    # kappa*rho/(1-kappa) as a point-Interval division
    return (Interval.point(_mul_up(kappa, rho)) / (Interval.point(1.0) - Interval.point(kappa))).hi


def test_banach_remainder_matches_interval_division():
    rng = random.Random(83)
    cases = [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.999999, 1e-300), (1e-300, 1e300)]
    for _ in range(5_000):
        kappa = rng.choice((rng.random(), 10 ** rng.uniform(-12, 0) * 0.999, 1.0 - 10 ** rng.uniform(-15, -1)))
        rho = rng.choice((0.0, rng.random(), 10 ** rng.uniform(-300, 10)))
        cases.append((kappa, rho))
    for kappa, rho in cases:
        assert 0.0 <= kappa < 1.0
        got = _banach_remainder(kappa, rho)
        assert got.hex() == _banach_remainder_reference(kappa, rho).hex(), (kappa, rho)


def test_step_scheme_halves_enclose_constant_flow():
    sys = InputAffineSystem(1, ["x1"], [["1"]], [0.5])
    X = point_model([1.0])
    geom = StepGeometry(0.0, 0.2)
    b = apriori_bound(sys, X.box(), STEP, geom)
    phi = picard_flow(sys, X, STEP, geom, b)
    rng = random.Random(79)
    # equal on both halves, |w| = |2Vz| <= V
    zs = [rng.uniform(-0.5, 0.5) for _ in range(100)]
    ws = np.array([[2 * 0.5 * z] for z in zs])
    ref = _integrate_surrogate(sys, np.ones((len(zs), 1)), lambda t: ws, 0.0, 0.2, n=2000)
    for z, r in zip(zs, ref):
        got = phi.eval_point((z, z))
        assert abs(r[0] - got[0]) <= phi[0].error * (1 + 1e-9) + 1e-12


def test_incoming_error_propagates():
    sys = InputAffineSystem(1, ["x1"])
    infos = ()
    base = PolynomialModel.constant(1.0, infos, 5)
    X = VectorModel((base.add_error(0.01),))
    geom = StepGeometry(0.0, 0.1)
    b = apriori_bound(sys, X.box(), ZERO, geom)
    phi = picard_flow(sys, X, ZERO, geom, b)
    # band must cover flows of all initial points in [0.99, 1.01]
    for x0 in (0.99, 1.0, 1.01):
        v = x0 * math.exp(0.1)
        assert abs(v - phi[0].eval_point(())) <= phi[0].error * (1 + 1e-9)
    # and the propagated error is close to 0.01 * e^(Lam h)
    assert phi[0].error <= 0.01 * math.exp(0.1) * 1.2


def test_picard_steps_keep_slot_vectors(monkeypatch):
    """Once a step's models carry slot vectors (Van der Pol with one
    state-dependent input, affine scheme, cap 5: 252-term models), the next
    step builds no term dict: every operation on the path from
    apriori_bound through picard_flow to the sweep has a vector form, and
    _strip_errors drops the error without reading terms."""
    sys = InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05])
    X = box_model(Box.from_bounds([(1.99, 2.01), (-0.01, 0.01)]), cap=5)

    def step(X, k):
        geom = StepGeometry(0.01 * k, 0.01)
        b = apriori_bound(sys, X.box(), AFFINE, geom)
        Y = picard_flow(sys, X, AFFINE, geom, b, born=k + 1).map(lambda c: c.add_error(1e-12))
        return Y.map(lambda c: c.sweep([i for i, v in enumerate(Y.vars) if v.role is Role.INPUT]))

    Y = step(X, 0)
    assert all(c._vec is not None for c in Y)
    built = []
    terms = dense._DenseLayout.terms
    monkeypatch.setattr(dense._DenseLayout, "terms", lambda layout, v: built.append(v) or terms(layout, v))
    Z = step(Y, 1)
    assert built == [] and all(c._vec is not None for c in Z)
    stripped, e_x = _strip_errors(Z)
    assert e_x == max(c.error for c in Z) > 0.0
    assert all(s.error == 0.0 and s._vec is c._vec and s._terms is None for s, c in zip(stripped, Z))


def _vector(X: VectorModel) -> VectorModel:
    """X with every component carrying its slot vector, as a step's
    result does once its products run on the dense kernels."""
    return X.map(lambda c: PolynomialModel.from_floats(c.vars, FloatPolynomial.of(c)))


# (system, initial box, scheme, cap, h, halves): Van der Pol with one
# state-dependent input and the 3-state sin/cos system of the benchmark
FLOAT_START_CASES = [
    (
        lambda: InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05]),
        [(1.99, 2.01), (-0.01, 0.01)], AFFINE, 5, 0.01, 1,
    ),
    (trig3, [(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)], STEP, 3, 0.02, 2),
]


@pytest.mark.parametrize("make, bounds, scheme, cap, h, halves", FLOAT_START_CASES)
def test_vector_steps_certify_one_application(monkeypatch, make, bounds, scheme, cap, h, halves):
    """Over vector models the Picard iterates before the certified one run
    in floats, so each (half) step integrates the validated field once:
    antiderivative runs n times per (half) step, against 4 * n over dict
    models in test_picard_stops_on_certified_remainder."""
    sys = make()
    X0 = Box.from_bounds(bounds)
    X = _vector(box_model(X0, cap=cap))
    geom = StepGeometry(0.0, h)
    b = apriori_bound(sys, X0, scheme, geom)
    calls = []
    antiderivative = PolynomialModel.antiderivative
    monkeypatch.setattr(PolynomialModel, "antiderivative", lambda m, p: calls.append(p) or antiderivative(m, p))
    picard_flow(sys, X, scheme, geom, b)
    assert len(calls) == sys.n * halves


@pytest.mark.parametrize("make, bounds, scheme, cap, h, halves", FLOAT_START_CASES)
def test_perturbed_float_start_still_certifies(monkeypatch, make, bounds, scheme, cap, h, halves):
    """The Banach bound needs no accuracy of the float start: moved by 1e-3
    in one coefficient, it still certifies (the validated loop iterates
    longer), and the enclosure holds the unperturbed step's polynomial at
    200 sample points."""
    sys = make()
    X0 = Box.from_bounds(bounds)
    X = _vector(box_model(X0, cap=cap))
    geom = StepGeometry(0.0, h)
    b = apriori_bound(sys, X0, scheme, geom)
    Y = picard_flow(sys, X, scheme, geom, b)
    start = flow._float_start
    moved = []

    def perturbed(*args):
        y = start(*args)
        terms = dict(y[0].terms)
        terms[1] = terms.get(1, 0.0) + 1e-3  # the coefficient of z1
        moved.append(terms)
        return VectorModel((PolynomialModel(y.vars, terms, 0.0, cap),) + y.components[1:])

    monkeypatch.setattr(flow, "_float_start", perturbed)
    Z = picard_flow(sys, X, scheme, geom, b)
    assert len(moved) == halves
    assert max(c.error for c in Z) < 1e-6
    rng = random.Random(97)
    for _ in range(200):
        z = [rng.uniform(-1.0, 1.0) for _ in Y.vars]
        for y, c in zip(Y.eval_point(z), Z):
            assert abs(c.eval_point(z) - y) <= c.error


def test_step_scheme_extends_the_models_one_half_at_a_time(monkeypatch):
    """On the trig3-step system (n = 3 states, m = 2 inputs) the step
    scheme adds one parameter per input before each half: the half-0
    surrogates are models of n + m + 1 = 6 variables (time last), the
    half-1 ones of 8, and parameter q of input i sits at position
    n + q * m + i."""
    sys = trig3()
    X0 = Box.from_bounds([(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)])
    X = _vector(box_model(X0, cap=3))
    geom = StepGeometry(0.0, 0.02)
    b = apriori_bound(sys, X0, STEP, geom)
    seen = []
    realize_w = flow.realize_w

    def spied(scheme, magnitude, vars, positions, time_position, cap, half=None):
        seen.append((half, len(vars), tuple(positions), time_position))
        return realize_w(scheme, magnitude, vars, positions, time_position, cap, half=half)

    monkeypatch.setattr(flow, "realize_w", spied)
    Y = picard_flow(sys, X, STEP, geom, b, born=1)
    assert seen == [(0, 6, (3, 5), 5), (0, 6, (4, 6), 5), (1, 8, (3, 5), 7), (1, 8, (4, 6), 7)]
    assert [v.role for v in Y.vars] == [Role.STATE] * 3 + [Role.INPUT] * 4


def test_field_multiplies_by_a_surrogate_by_shifting(monkeypatch):
    """In a trig3-step picard_flow over vector models, the field's
    products cos(x3) * w and sin(x3) * w by the one-term surrogate shift
    the slots, in the float stage and in the validated application (one
    per half step), and never run the kept-pair table; 1 * w is w
    itself."""
    sys = trig3()
    X0 = Box.from_bounds([(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)])
    X = _vector(box_model(X0, cap=3))
    geom = StepGeometry(0.0, 0.02)
    b = apriori_bound(sys, X0, STEP, geom)
    calls = []
    in_field = []
    field = InputAffineSystem.field

    def spied_field(self, vals, inputs):
        in_field.append(True)
        try:
            return field(self, vals, inputs)
        finally:
            in_field.pop()

    def counting(name):
        kernel = getattr(dense, name)

        def run(*args):
            if in_field:
                calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(dense, name, run)

    monkeypatch.setattr(InputAffineSystem, "field", spied_field)
    for name in ("_dense_product", "_dense_shift_product", "_float_product", "_float_shift_product"):
        counting(name)
    picard_flow(sys, X, STEP, geom, b)
    assert calls.count("_dense_shift_product") == 2 * 2
    assert calls.count("_float_shift_product") >= 2 * 2
    assert set(calls) == {"_dense_shift_product", "_float_shift_product"}


def _reach(sys, scheme, X, h, steps):
    """steps benchmark-style steps from X: apriori_bound -> picard_flow ->
    compute_bounds -> select_error -> add_error -> sweep of the step's
    input parameters."""
    for k in range(steps):
        geom = StepGeometry(k * h, h)
        b = apriori_bound(sys, X.box(), scheme, geom)
        Y = picard_flow(sys, X, scheme, geom, b, born=k + 1)
        _, err = select_error(sys, scheme, compute_bounds(sys, b.box), h)
        fresh = [i for i, v in enumerate(Y.vars) if v.role is Role.INPUT]
        X = Y.map(lambda c: c.add_error(err).sweep(fresh))
    return X


def test_float_stage_stops_where_one_certified_iterate_suffices(monkeypatch):
    """The float stage stops at the first iterate from which one certified
    iterate is predicted to pass e_flow <= err(y_next).  Over a 10-step
    trig3-step reach from vector models every half step runs 2 float
    iterates (n antiderivatives each) and then 1 certified application,
    where waiting for the float residual itself to pass runs 3.  On 10
    vdp-affine-deg5 steps the certified loop still stops after one
    application, on its own test e_flow <= err(y_next)."""
    events = []
    float_antiderivative = FloatPolynomial.antiderivative
    compose = flow.compose_expr
    monkeypatch.setattr(
        FloatPolynomial, "antiderivative", lambda p, *a: events.append("float") or float_antiderivative(p, *a)
    )
    monkeypatch.setattr(flow, "compose_expr", lambda *a: events.append("certified") or compose(*a))

    sys = trig3()
    X = _vector(box_model(Box.from_bounds([(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)]), cap=3))
    _reach(sys, STEP, X, 0.02, 10)
    assert events == (["float"] * (2 * sys.n) + ["certified"]) * (2 * 10)

    events.clear()
    banach_bounds = flow._banach_bounds
    substitute_unit = PolynomialModel.substitute_unit

    def spied_bounds(*args):
        out = banach_bounds(*args)
        events.append(("e_flow", out[0]))
        return out

    monkeypatch.setattr(flow, "_banach_bounds", spied_bounds)
    # picard_flow substitutes the time end point into each component of y_next
    monkeypatch.setattr(
        PolynomialModel, "substitute_unit", lambda m, *a: events.append(("err", m.error)) or substitute_unit(m, *a)
    )
    sys = InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05])
    X = _vector(box_model(Box.from_bounds([(1.99, 2.01), (-0.01, 0.01)]), cap=5))
    _reach(sys, AFFINE, X, 0.01, 10)
    steps = []
    for e in events:
        if e == "certified":
            steps.append([])
        elif e != "float":
            steps[-1].append(e)
    assert len(steps) == 10
    assert all(e == "float" for e, then in zip(events, events[1:]) if then == "certified")
    for step in steps:
        # one certified application per step: its Banach bounds (once more
        # on a grown work box when the tube leaves the padded one), then
        # the components of y_next
        kinds = [kind for kind, _ in step]
        assert kinds[-sys.n :] == ["err"] * sys.n and set(kinds[: -sys.n]) == {"e_flow"}, kinds
        assert 0.0 < step[0][1] <= max(err for _, err in step[-sys.n :]), step
