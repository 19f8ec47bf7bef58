"""Validated single-step flow of the surrogate system.

apriori_bound certifies a box containing all trajectories over one step for
every admissible input (true or surrogate): once a trial box B satisfies
X + [0,h] * F(B) inside B, every solution from X stays in B on [0,h], and by
the integral form x(t) = x(0) + int_0^t F(x(s)) ds it lies in
X + [0,h] * F(B) itself (Lohner 1987; Nedialkov, Jackson & Corliss 1999).
picard_flow then iterates the integral operator P on polynomial models and
converts the final Picard residual into a rigorous remainder via the Banach
fixed-point bound, with the incoming model error propagated separately at
the local logarithmic-norm rate.

Only the last iterate is certified.  The Banach bound needs one function y,
a certified enclosure y_next of P(y) and a residual rho >= ||P(y) - y||; it
needs neither that y enclose anything nor that it be accurate.  So the
iterates before the last one run unvalidated in plain floats
(polymodel.FloatPolynomial; Taylor-model integrators compute the
polynomial part without validation too, Makino & Berz 2003):
y <- X + int field(y, w) from y = X, with rho_f the largest coefficient
magnitude sum of y_next - y over the components, and d the mass its
antiderivative drops at the cap (which the certified iterate charges to its
error anyway).  The certified iterate is one more application of P, so by
contraction its residual is about kappa*rho_f + err(y_next), and
err(y_next) >= d: the float stage stops at the first iterate from which one
certified iterate is predicted to pass its own test e_flow <= err(y_next),
kappa*(kappa*rho_f + d)/(1-kappa) <= d.  It also stops when rho_f stalls
(rho_f > 0.7 * previous) or vanishes, or after max(iterations,
4 * (cap + 2)) iterates; a float iterate that is not finite is a
certification failure.  The prediction only saves float iterates, it
certifies nothing: a certified iterate that misses its test is followed by
another.  The float stage runs only when X's components carry slot vectors
(polymodel.carries_slot_vectors): dict models never reached the product's
pair-count threshold, and there the validated dict loops cost less than
numpy calls, so the validated loop starts from X itself.

The validated loop then applies P to error-free models, starting from the
float iterate: each iterate's error band is dropped before the next
application, and rho is |y_next - y| plus the error of y_next alone.  The
remainder added to y_next is the Banach term e_flow = kappa*rho/(1-kappa),
so the loop stops at the first iterate whose e_flow is no bigger than its
own error (e_flow <= err(y_next)), when rho stalls (rho > 0.7 * previous
rho) or vanishes, and after at least iterations and at most
max(iterations, 4 * (cap + 2)) iterates; from a float start it mostly
stops after one.  Every failure to certify (no contraction, a tube outside
the bound, a diverging iterate, a field undefined or unbounded where it is
evaluated, model arithmetic that overflows) raises CertificationError.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .interval import (
    Box,
    Interval,
    IntervalDomainError,
    _Immutable,
    _add_down,
    _add_up,
    _div_up,
    _exp_up,
    _mul_up,
    _set,
)
from .inputs import InputScheme, SchemeKind, realize_w
from .polymodel import (
    FLOAT_OPS,
    FloatPolynomial,
    PolynomialModel,
    Role,
    VarInfo,
    VectorModel,
    carries_slot_vectors,
    compose_expr,
)
from .symexpr import InputAffineSystem

__all__ = [
    "StepGeometry",
    "AprioriBound",
    "CertificationError",
    "apriori_bound",
    "picard_flow",
    "local_rates",
    "input_hull_ranges",
]


# inflations of the trial box before apriori_bound gives up
_MAX_INFLATIONS = 20


class CertificationError(RuntimeError):
    """A validated enclosure could not be certified; try a smaller step size."""


class StepGeometry(_Immutable):
    __slots__ = ("t0", "h")

    def __init__(self, t0: float, h: float):
        if not 0 < h < math.inf:
            raise ValueError("step size must be positive")
        _set(self, "t0", t0)
        _set(self, "h", h)


class AprioriBound(_Immutable):
    """Box certified to contain all step trajectories: X + [0,h] * F(B) for a
    trial box B that it lies inside, F the field's hull over B and the input
    ranges.  Self-mapping keeps every solution from X in B on [0,h], and the
    integral form then keeps it in X + [0,h] * F(B) (Lohner 1987)."""

    __slots__ = ("box", "input_ranges")

    def __init__(self, box: Box, input_ranges: tuple[Interval, ...]):
        _set(self, "box", box)
        _set(self, "input_ranges", input_ranges)


def _w_sups(sys: InputAffineSystem, scheme: InputScheme) -> list[float]:
    """Upper bound of each input's sup|w| = V * w_sup_factor, rounded upward."""
    return [_mul_up(v, scheme.w_sup_factor) for v in sys.V]


def input_hull_ranges(sys: InputAffineSystem, scheme: InputScheme) -> tuple[Interval, ...]:
    """Input ranges covering both the true disturbances (+-V) and every
    surrogate member (+-w_sup)."""
    return tuple(Interval(-r, r) for r in map(max, sys.V, _w_sups(sys, scheme)))


def _failure(what: str, t0: float, exc: Exception | None = None) -> CertificationError:
    """The module's one certification failure: what failed at t0, and why."""
    why = "" if exc is None else f" ({exc})"
    return CertificationError(f"{what} at t={t0:g}{why}; try a smaller step size")


def _rhs(sys: InputAffineSystem, box: Box, u, t0: float) -> tuple[Interval, ...]:
    """Field hull on box; a field not bounded there is a certification failure."""
    try:
        return sys.rhs_interval(box, u)
    except IntervalDomainError as exc:
        raise _failure("field not bounded on the a-priori box", t0, exc) from exc


def apriori_bound(
    sys: InputAffineSystem,
    X: Box,
    scheme: InputScheme,
    geom: StepGeometry,
) -> AprioriBound:
    """Certified a-priori bound for one step from X, valid for the original
    inclusion and for every surrogate of the scheme: X + [0,h] * F(box) for
    the first trial box it lies inside (see AprioriBound)."""
    u = input_hull_ranges(sys, scheme)
    h, t0 = geom.h, geom.t0
    step = Interval(0.0, h)
    rhs0 = _rhs(sys, X, u, t0)
    box = X.inflate([2.0 * h * r.mag + 1e-14 * max(1.0, r.mag) for r in rhs0])
    for _ in range(_MAX_INFLATIONS):
        rhs = _rhs(sys, box, u, t0)
        trial = Box(tuple(X[i] + step * rhs[i] for i in range(sys.n)))
        if not all(c.is_finite for c in trial):
            raise _failure("a-priori bound diverged", t0)
        if box.contains_box(trial):
            return AprioriBound(trial, u)
        box = Box(tuple(c.inflate(0.2 * c.rad + 1e-13 * max(1.0, abs(c.mid))) for c in box.hull(trial)))
    raise _failure(f"no a-priori bound certified within {_MAX_INFLATIONS} inflations", t0)


def local_rates(
    sys: InputAffineSystem, box: Box, w_sups: Sequence[float]
) -> tuple[float, float]:
    """(log-norm rate, Lipschitz rate) of the surrogate field on box, i.e.
    lognorm(Df) + sum w_sup_i ||Dg_i|| and ||Df|| + sum w_sup_i ||Dg_i||.
    The norms come from the system's bounds plan (jacobian_norms): one that
    does not depend on the box is computed once per system, so no program
    runs when all of them are kept, and each is bit for bit the norm of
    the full matrix.  They are combined with w_sups on every call."""
    df, dg = sys.jacobian_norms(box)
    if df is None:
        raise IntervalDomainError("logarithmic norm requires finite entries")
    lip, lam = df
    for k, ws in enumerate(w_sups):
        if ws == 0.0:
            continue
        nk = dg[k]
        if nk is None:
            raise IntervalDomainError("matrix norm requires finite entries")
        lam = _add_up(lam, _mul_up(ws, nk))
        lip = _add_up(lip, _mul_up(ws, nk))
    return lam, lip


def _padded(box: Box) -> Box:
    """Tiny outward padding.  Any superset of a certified a-priori box still
    contains all step trajectories, so rates/containment may be checked on
    the padded copy; this absorbs ulp-level slack of model ranges."""
    return Box(
        tuple(c.inflate(1e-10 * (1.0 + abs(c.mid) + c.rad)) for c in box)
    )


def _rates(
    sys: InputAffineSystem, box: Box, w_sups: Sequence[float], h: float, t0: float
) -> tuple[float, float]:
    """(log-norm rate, Picard contraction factor h*Lip) of the surrogate
    field on the Picard work box (local_rates); raises CertificationError
    when the field Jacobian is not finite there or when the Picard operator
    does not contract."""
    try:
        lam_rate, lip_rate = local_rates(sys, box, w_sups)
    except IntervalDomainError as exc:
        raise _failure("field rates unbounded on the Picard work box", t0, exc) from exc
    kappa = _mul_up(h, lip_rate)
    if kappa >= 1.0:
        raise _failure(f"Picard operator not contracting (h*Lip = {kappa:g} >= 1)", t0)
    return lam_rate, kappa


def _banach_remainder(kappa: float, rho: float) -> float:
    """Upper bound of kappa*rho/(1-kappa), the Banach distance from the
    certified iterate y_next to the fixed point y*."""
    return _div_up(_mul_up(kappa, rho), _add_down(1.0, -kappa))


def _banach_bounds(y: VectorModel, kappa: float, rho: float) -> tuple[float, Box]:
    """Banach a-posteriori bounds for the last Picard step y -> y_next with
    residual rho: ||y* - y_next|| <= kappa*rho/(1-kappa), and the tube
    range(y) + rho/(1-kappa) that must contain the fixed point y*."""
    e_flow = _banach_remainder(kappa, rho)
    ball = _div_up(rho, _add_down(1.0, -kappa))
    return e_flow, Box(tuple(c.range().inflate(ball) for c in y))


def _strip_errors(X: VectorModel) -> tuple[VectorModel, float]:
    e_x = max(c.error for c in X)
    if e_x == 0.0:
        return X, 0.0
    return X.map(lambda c: c.with_error(0.0)), e_x


def _stalled(rho: float, rho_prev: float | None) -> bool:
    """The Picard residual vanished or fell by less than 30 % in one iterate."""
    return rho < 1e-300 or rho_prev is not None and rho > 0.7 * rho_prev


def _float_start(
    sys: InputAffineSystem,
    Xt: VectorModel,
    w_models: Sequence[PolynomialModel],
    tpos: int,
    kappa: float,
    max_iters: int,
    t0: float,
) -> VectorModel:
    """The float stage of the module docstring, from the time-extended
    initial models Xt, which carry slot vectors: its last iterate as
    error-free models.  It stops where one certified iterate is predicted
    to pass its test, which is mostly one float iterate before the float
    residual itself would pass it."""
    x = [FloatPolynomial.of(c) for c in Xt]
    w = [FloatPolynomial.of(m) for m in w_models]
    radius = Xt.vars[tpos].radius
    y, rho_prev = x, None
    with np.errstate(all="ignore"):  # overflow shows as a non-finite rho_f
        for _ in range(max_iters):
            rhs = sys.field(sys.program.run(y, FLOAT_OPS, 0, scalars=True), w)
            y_next, dropped = [], 0.0
            for xc, r in zip(x, rhs):
                integral, mass = r.antiderivative(tpos, radius)
                y_next.append(xc + integral)
                dropped = max(dropped, mass)
            rhos = [(a - b).magnitude() for a, b in zip(y_next, y)]
            if not all(map(math.isfinite, rhos)):
                raise _failure("Picard iteration diverged", t0)
            y, rho = y_next, max(rhos)
            # the certified iterate's residual, P applied once more to y:
            # about kappa*rho + err(y_next), with err(y_next) >= dropped
            predicted = _add_up(_mul_up(kappa, rho), dropped)
            if _banach_remainder(kappa, predicted) <= dropped or _stalled(rho, rho_prev):
                break
            rho_prev = rho
    return VectorModel(tuple(PolynomialModel.from_floats(Xt.vars, p) for p in y))


def _picard_core(
    sys: InputAffineSystem,
    X: VectorModel,
    scheme: InputScheme,
    positions: Sequence[tuple[int, ...]],
    half: int | None,
    t0: float,
    h: float,
    bound: AprioriBound,
    work_box: Box,
    iterations: int,
    w_sups: Sequence[float],
    rates: tuple[float, float],
) -> VectorModel:
    """One Picard step over [t0, t0 + h]; work_box is _padded(bound.box)
    and rates are _rates on it for this h.  Input i's surrogate has its
    parameters at positions[i]; half selects the step scheme's sub-step
    parameter."""
    X0, e_x = _strip_errors(X)
    tvar = VarInfo(Role.TIME, radius=h / 2.0)
    vars_t = X0.vars + (tvar,)
    tpos = len(vars_t) - 1
    Xt = X0.map(lambda c: c.extend((tvar,)))
    cap = X0.components[0].max_degree
    w_models = [
        realize_w(scheme, sys.V[i], vars_t, positions[i], tpos, cap, half=half)
        for i in range(sys.m)
    ]
    lam_rate, kappa = rates

    def apply_once(y: VectorModel) -> VectorModel:
        try:
            rhs = sys.field(compose_expr(sys.program, y, 0), w_models)
            comps = [Xt[c] + r.antiderivative(tpos) for c, r in enumerate(rhs)]
        except IntervalDomainError as exc:
            raise _failure("field not composable on the Picard iterate", t0, exc) from exc
        return VectorModel(tuple(comps))

    # Error-free iterates: y is one polynomial, y_next a certified enclosure
    # of P(y), which is all the Banach bound needs.  Over slot vectors the
    # iterates before it run in plain floats.
    max_iters = max(iterations, 4 * (cap + 2))
    y = Xt
    if carries_slot_vectors(Xt):
        y = _float_start(sys, Xt, w_models, tpos, kappa, max_iters, t0)
    rho_prev = None
    j = 0
    while True:
        y_next = apply_once(y)
        try:
            rho = max((y_next[c] - y[c]).range().mag for c in range(sys.n))
        except IntervalDomainError:  # the residual overflowed
            rho = math.inf
        if not math.isfinite(rho):
            raise _failure("Picard iteration diverged", t0)
        j += 1
        if j >= max_iters or j >= iterations and (
            _banach_remainder(kappa, rho) <= max(c.error for c in y_next) or _stalled(rho, rho_prev)
        ):
            break
        y, rho_prev = _strip_errors(y_next)[0], rho

    e_flow, tube = _banach_bounds(y, kappa, rho)
    if not work_box.contains_box(tube):
        # The term-sum range of y may overshoot a box flush with the initial
        # set.  Any superset of the a-priori box bounds the rates, so grow the
        # work box to the tube and bound the rates there.
        work_box = _padded(bound.box.hull(tube))
        lam_rate, kappa = _rates(sys, work_box, w_sups, h, t0)
        e_flow, tube = _banach_bounds(y, kappa, rho)
    if not work_box.contains_box(tube):
        raise _failure("Picard tube escapes the a-priori bound", t0)

    e_ic = 0.0
    if e_x > 0.0:
        e_ic = _mul_up(e_x, _exp_up(_mul_up(lam_rate, h)))

    try:
        out = [y_next[c].substitute_unit(tpos, 1.0).add_error(_add_up(e_flow, e_ic)) for c in range(sys.n)]
    except IntervalDomainError as exc:
        raise _failure("step enclosure overflowed", t0, exc) from exc
    return VectorModel(tuple(out))


def picard_flow(
    sys: InputAffineSystem,
    X: VectorModel,
    scheme: InputScheme,
    geom: StepGeometry,
    bound: AprioriBound,
    iterations: int = 1,
    born: int = 0,
) -> VectorModel:
    """Flow map enclosure at time t0+h over (existing parameters, fresh
    input parameters): for every initial point in X's band and every
    normalized parameter choice, the surrogate solution at t0+h lies in the
    returned band.

    iterations is the minimum number of validated Picard iterates.  Past
    it, the iteration stops at the first iterate whose Banach term
    e_flow = kappa*rho/(1-kappa), the remainder added to it, is no bigger
    than its own error, or when the residual stalls; at most
    max(iterations, 4 * (cap + 2)) iterates run.  Over slot-vector models
    the iterates before them run in plain floats, with the same cap, up to
    the first from which one certified iterate is predicted to pass that
    test, kappa*(kappa*rho_f + d)/(1-kappa) <= d for the float residual
    rho_f and the mass d dropped at the cap; so the validated loop mostly
    stops after one application.
    Iterates carry no error band: only the last one is certified, which is
    sound because the Banach bound needs only one function y and a
    certified enclosure of P(y) (see the module docstring).  Raises
    CertificationError when the step cannot be certified.

    The fresh variables follow X's, one per parameter: parameter q of
    input i sits at position len(X.vars) + q * sys.m + i, so parameter
    q of every input comes before parameter q + 1 of any.  The models
    are extended by only what the next (half) step uses: the step
    scheme adds parameter q of every input before half q, the other
    schemes add all their parameters before their one step.  Initial
    models or an a-priori bound of another dimension than sys.n raise
    ValueError."""
    if not len(X.components) == len(bound.box.components) == sys.n:
        raise ValueError(
            f"initial models have dimension {len(X.components)} and the a-priori bound"
            f" {len(bound.box.components)}, expected {sys.n}"
        )
    padded = _padded(bound.box)
    if not padded.contains_box(X.box()):
        raise ValueError("a-priori bound does not cover the initial set")
    m = sys.m
    base = len(X.vars)
    positions = [tuple(base + q * m + i for q in range(scheme.params_per_input)) for i in range(m)]
    w_sups = _w_sups(sys, scheme)
    # the step scheme takes two half steps, one per input parameter; the
    # other schemes one full step.  Every (half) step works on this box with
    # the sub-step, so they share one set of rates.
    halves = (0, 1) if scheme.uses_half_steps else (None,)
    sub = geom.h / len(halves)
    rates = _rates(sys, padded, w_sups, sub, geom.t0)
    fresh = tuple(VarInfo(Role.INPUT, born=born) for _ in range(m * scheme.params_per_input // len(halves)))
    Y = X
    for k, half in enumerate(halves):
        if fresh:
            Y = Y.map(lambda c: c.extend(fresh))
        t0 = geom.t0 + k * sub
        Y = _picard_core(sys, Y, scheme, positions, half, t0, sub, bound, padded, iterations, w_sups, rates)
    return Y
