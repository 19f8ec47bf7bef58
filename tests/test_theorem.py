"""The paper's per-step theorem, checked end to end.

For every disturbance v with |v_i| <= V_i on a step of length h, the
surrogate w of a scheme whose parameters match v's moments
(inputs.match_parameters) keeps the solution y_w within the step's local
error bound of the true solution x_v from the same initial point:
||x_v(h) - y_w(h)||_inf <= select_error's bound, with the constants that
compute_bounds takes on the a-priori box of the step.

Each check draws initial points in a box and, per input, a bang-bang
v = +-V whose switches lie on the RK4 grid, so that both solutions are
integrated to near machine precision.  It matches w, converts its physical
parameters to the unit parameters of inputs.realize_w, checks that they
lie in [-1, 1] (the surrogate family covers v), evaluates w through
PolynomialModel.eval_point, and compares the two solutions at t = h with
the bound of the automatic choice and of every formula row that covers the
scheme.
"""
import numpy as np
import pytest

from direach.flow import CertificationError, StepGeometry, apriori_bound
from direach.interval import Box
from direach.inputs import (
    InputScheme,
    PiecewiseConstant,
    SchemeKind,
    match_parameters,
    quadratic_envelope_check,
    realize_w,
)
from direach.localerr import _FORMULAS, InapplicableError, select_error
from direach.mc import compile_field
from direach.polymodel import Role, VarInfo
from direach.symexpr import InputAffineSystem, compute_bounds

SUBSTEPS = 200  # RK4 steps per step; every switch of v lies on this grid
CAP = 5
# relative slack for rounding, of the matched parameters and of the RK4
# solutions: on dx/dt = -x + v a constant v attains the zero-surrogate bound,
# and the integration exceeds it by about 2e-13
TOL = 1e-9

# (system, initial box, step size of the tier-1 check)
SYSTEMS = {
    "linear": (InputAffineSystem(1, ["-x1"], [["1"]], [0.1]), [(0.9, 1.1)], 0.05),
    "dosc-additive": (
        InputAffineSystem(2, ["-x1 + 0.5*x2", "-0.5*x1 - x2"], [["0", "1"]], [0.05]),
        [(0.99, 1.01), (-0.01, 0.01)],
        0.05,
    ),
    "vdp": (
        InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05]),
        [(1.99, 2.01), (-0.01, 0.01)],
        0.02,
    ),
    "trig3-step": (
        InputAffineSystem(
            3,
            ["-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"],
            [["0", "0", "1"], ["cos(x3)", "sin(x3)", "0"]],
            [0.05, 0.05],
        ),
        [(0.99, 1.01), (-0.01, 0.01), (0.49, 0.51)],
        0.05,
    ),
}


def bang_bang(rng, V, h, max_switches):
    """A +-V input with 0 to max_switches switches on the RK4 grid: the
    PiecewiseConstant and its value on each RK4 step."""
    at = np.sort(rng.choice(np.arange(1, SUBSTEPS), rng.integers(0, max_switches + 1), replace=False))
    sign = rng.choice((-1.0, 1.0))
    values = tuple(sign * V * (-1.0) ** k for k in range(len(at) + 1))
    v = PiecewiseConstant((0.0, *(h * k / SUBSTEPS for k in at), h), values)
    flips = np.zeros(SUBSTEPS)
    flips[at] = 1.0
    return v, sign * V * (-1.0) ** np.cumsum(flips)


def unit_parameters(kind, params, V):
    """The unit parameters of realize_w for the physical ones of
    match_parameters."""
    if kind is SchemeKind.CONSTANT:
        return (params[0] / V,)
    if kind is SchemeKind.AFFINE:
        return (params[0] / V, params[1] / (3.0 * V))
    if kind is SchemeKind.AFFINE_REDUCED:
        a0, a1 = params
        assert quadratic_envelope_check(a0, a1, V), (a0, a1, V)
        envelope = 1.0 - (a0 / V) ** 2
        return (a0 / V, a1 / (3.0 * V * envelope) if envelope > 0.0 else 0.0)
    if kind is SchemeKind.STEP:
        return (params[0] / (2.0 * V), params[1] / (2.0 * V))
    return ()


def surrogate_values(scheme, V, alphas, h):
    """w at the start, middle and end of every RK4 step, per sample:
    shape (samples, SUBSTEPS, 3).  alphas has one row of unit parameters
    per sample."""
    p = scheme.params_per_input
    vars_ = tuple(VarInfo(Role.INPUT) for _ in range(p)) + (VarInfo(Role.TIME, radius=h / 2),)
    t = (np.arange(SUBSTEPS)[:, None] + np.array([0.0, 0.5, 1.0])) * (h / SUBSTEPS)
    shape = (len(alphas), SUBSTEPS, 3)
    z = [np.broadcast_to(a, shape) for a in [alphas[:, j, None, None] for j in range(p)] + [t / (h / 2) - 1.0]]
    if scheme.uses_half_steps:
        halves = [
            np.broadcast_to(realize_w(scheme, V, vars_, range(p), p, CAP, half=k).eval_point(z), shape)
            for k in (0, 1)
        ]
        return np.where((np.arange(SUBSTEPS) < SUBSTEPS // 2)[None, :, None], *halves)
    return np.broadcast_to(realize_w(scheme, V, vars_, range(p), p, CAP).eval_point(z), shape)


def rk4(rhs, X, W, h):
    """Solve from X over [0, h] with the inputs W (samples, inputs,
    SUBSTEPS, 3): each input's value at the start, middle and end of every
    RK4 step."""
    dt = h / SUBSTEPS
    for i in range(SUBSTEPS):
        w0, w1, w2 = W[:, :, i, 0], W[:, :, i, 1], W[:, :, i, 2]
        k1 = rhs(X, w0)
        k2 = rhs(X + 0.5 * dt * k1, w1)
        k3 = rhs(X + 0.5 * dt * k2, w1)
        k4 = rhs(X + dt * k3, w2)
        X = X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


def covering_bounds(sys, scheme, b, h):
    """{label: bound} for the automatic choice and every formula row that
    covers the scheme and whose hypotheses hold."""
    order, value = select_error(sys, scheme, b, h)
    out = {f"auto ({order.value})": value}
    for row in _FORMULAS:
        if scheme.kind in row.kinds:
            try:
                out[row.order.value] = row.bound(sys, scheme, b, h, None)
            except InapplicableError:
                pass
    return out


def worst_ratios(name, h, samples, max_switches, seed):
    """{(scheme, label): largest ||x_v(h) - y_w(h)||_inf / bound} over the
    samples, for every scheme and every bound of covering_bounds."""
    sys, initial, _ = SYSTEMS[name]
    rng = np.random.default_rng(seed)
    rhs = compile_field(sys)
    lo, hi = np.array(initial).T
    X0 = rng.uniform(lo, hi, size=(samples, sys.n))
    drawn = [[bang_bang(rng, V, h, max_switches) for V in sys.V] for _ in range(samples)]
    on_grid = np.array([[grid for _, grid in row] for row in drawn])
    x_v = rk4(rhs, X0, np.repeat(on_grid[..., None], 3, axis=3), h)
    ratios = {}
    for kind in SchemeKind:
        scheme = InputScheme(kind)
        X = apriori_bound(sys, Box.from_bounds(initial), scheme, StepGeometry(0.0, h)).box
        bounds = covering_bounds(sys, scheme, compute_bounds(sys, X), h)
        alphas = np.array(
            [
                [unit_parameters(kind, match_parameters(v, scheme, 0.0, h), V) for (v, _), V in zip(row, sys.V)]
                for row in drawn
            ]
        ).reshape(samples, sys.m, scheme.params_per_input)
        # the surrogate family covers every matched w
        assert np.all(np.abs(alphas) <= 1.0 + TOL), (kind, np.abs(alphas).max())
        W = np.stack([surrogate_values(scheme, V, alphas[:, i], h) for i, V in enumerate(sys.V)], axis=1)
        gap = np.abs(x_v - rk4(rhs, X0, W, h)).max()
        for label, bound in bounds.items():
            ratios[kind.value, label] = gap / bound
    return ratios


@pytest.mark.parametrize("name", SYSTEMS)
def test_step_error_within_bound(name):
    ratios = worst_ratios(name, SYSTEMS[name][2], samples=40, max_switches=3, seed=1)
    assert {key: r for key, r in ratios.items() if r > 1.0 + TOL} == {}
    # every scheme was checked against every covering formula
    assert {scheme for scheme, _ in ratios} == {kind.value for kind in SchemeKind}


@pytest.mark.slow
@pytest.mark.parametrize("h", (0.01, 0.05, 0.2))
@pytest.mark.parametrize("name", SYSTEMS)
def test_step_error_within_bound_slow(name, h):
    try:
        ratios = worst_ratios(name, h, samples=400, max_switches=8, seed=2)
    except CertificationError as exc:
        # no a-priori box, so no bound to check; a reach halves such a step
        pytest.skip(f"{name} at h = {h}: {exc}")
    assert {key: r for key, r in ratios.items() if r > 1.0 + TOL} == {}
