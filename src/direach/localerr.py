"""Uniform single-step analytical error bounds.

Each function bounds ||x(t_{k+1}) - y(t_{k+1})|| for the surrogate system
whose inputs match the stated moments, in terms of the constants of
StepErrorBounds.  Everything is evaluated in point-interval arithmetic and
returned as an upper endpoint, so replacing exact arithmetic by this
implementation can only increase the bound.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .interval import Interval, iv_exp
from .inputs import InputScheme, SchemeKind
from .symexpr import InputAffineSystem, StepErrorBounds

__all__ = [
    "ErrorOrder",
    "InapplicableError",
    "err_o1",
    "err_o2_constant",
    "err_o2_constant_c2",
    "err_o2_affine",
    "err_o3_additive",
    "err_o3_single",
    "select_error",
    "param_requirements",
    "growth_factor",
]


class ErrorOrder(str, Enum):
    O1_ZERO = "O1"
    O2_CONSTANT = "O2-constant"
    O2_CONSTANT_C2 = "O2-constant-C2"
    O2_AFFINE = "O2-affine"
    O3_ADDITIVE = "O3-additive"
    O3_SINGLE = "O3-single-input"


class InapplicableError(ValueError):
    """The formula's hypotheses fail for these bounds / this step size."""


def _pt(x: float) -> Interval:
    return Interval.point(x)


def growth_factor(u: float) -> Interval:
    """Enclosure of (e^u - 1)/u, continued by 1 at u = 0; decreasing below 1
    for negative u."""
    if abs(u) < 1e-8:
        # |phi(u) - (1 + u/2)| <= u^2/6 < 1.7e-17 here
        return (_pt(1.0) + _pt(u) * 0.5).inflate(1e-15)
    return (iv_exp(_pt(u)) - 1.0) / u


def err_o1(b: StepErrorBounds, h: float) -> float:
    """First-order bound for the zero surrogate (w = 0)."""
    if h <= 0:
        raise InapplicableError("step size must be positive")
    return _first_order(b, h, 0.0)


def _first_order(b: StepErrorBounds, h: float, w_factor: float) -> float:
    """min(h*(1+c)K'Phi(Lam h), h*(2K + (1+c)K')) where c bounds sup|w|/V.

    c = 0 is the zero-surrogate theorem; for nonzero surrogates both the
    true and the surrogate solution are compared against the undisturbed
    flow, which inflates the disturbance term by the surrogate's range.
    """
    kp_eff = _pt(b.Kp) * (1.0 + w_factor)
    e1 = (_pt(h) * kp_eff * growth_factor(b.Lam * h)).hi
    e2 = (_pt(h) * (_pt(b.K) * 2.0 + kp_eff)).hi
    return min(e1, e2)


def err_o2_constant(b: StepErrorBounds, h: float) -> float:
    """Second-order bound for the step-mean constant surrogate."""
    if h <= 0:
        raise InapplicableError("step size must be positive")
    phi = growth_factor(b.Lam * h)
    inner = (_pt(b.K) + b.Kp) * _pt(b.Lp) / 3.0 + _pt(b.Kp) * 2.0 * (_pt(b.L) + b.Lp) * phi
    return (_pt(h) ** 2 * inner).hi


def err_o2_constant_c2(b: StepErrorBounds, h: float) -> float:
    """Refined constant-surrogate bound requiring a twice-differentiable
    drift and hL < 2."""
    if h <= 0:
        raise InapplicableError("step size must be positive")
    pre = _pt(1.0) - _pt(h) * b.L * 0.5
    if pre.lo <= 0.0:
        raise InapplicableError(f"needs h*L < 2 (h*L = {h * b.L:g})")
    phi = growth_factor(b.Lam * h)
    hh = _pt(h)
    kp, l, lp, hs, k = _pt(b.Kp), _pt(b.L), _pt(b.Lp), _pt(b.H), _pt(b.K)
    rhs = (hh**2 / 3.0) * (kp * 3.0 * lp * phi + lp * (k + kp))
    rhs = rhs + (hh**3 / 4.0) * kp * (l * lp + l**2 + hs * (k + kp)) * phi
    rhs = rhs + (hh**3 * (11.0 / 24.0)) * (hs * kp + l * lp) * (k + kp)
    return (rhs / pre).hi


def err_o2_affine(b: StepErrorBounds, h: float) -> float:
    """Second-order bound for affine surrogates (general input fields)."""
    if h <= 0:
        raise InapplicableError("step size must be positive")
    pre = _pt(1.0) - _pt(h) * b.L * 0.5 - _pt(h) * b.Lp
    if pre.lo <= 0.0:
        raise InapplicableError(f"needs h*(L/2 + L') < 1 (got {h * (b.L / 2 + b.Lp):g})")
    phi = growth_factor(b.Lam * h)
    hh = _pt(h)
    k, kp, l, lp, hs, hp = _pt(b.K), _pt(b.Kp), _pt(b.L), _pt(b.Lp), _pt(b.H), _pt(b.Hp)
    rhs = (hh**2 / 4.0) * lp * (k * 11.0 + kp * 34.5)
    rhs = rhs + (hh**3 * (7.0 / 8.0)) * kp * (
        (hp * 4.0 + hs) * (k + kp * 2.5) + l**2 + (l * 4.5 + lp * 5.0) * lp
    ) * phi
    rhs = rhs + (hh**3 * (7.0 / 48.0)) * (hs * kp + l * lp) * (k + kp)
    return (rhs / pre).hi


def err_o3_additive(b: StepErrorBounds, h: float) -> float:
    """Third-order bound for additive noise (constant input fields)."""
    if h <= 0:
        raise InapplicableError("step size must be positive")
    if any(v != 0.0 for v in b.Li) or any(v != 0.0 for v in b.Hi):
        raise InapplicableError("third-order additive bound needs constant input fields")
    pre = _pt(1.0) - _pt(h) * b.L * 0.5
    if pre.lo <= 0.0:
        raise InapplicableError(f"needs h*L < 2 (h*L = {h * b.L:g})")
    phi = growth_factor(b.Lam * h)
    hh = _pt(h)
    k, kp, l, hs = _pt(b.K), _pt(b.Kp), _pt(b.L), _pt(b.H)
    rhs = (hh**3 * (7.0 / 48.0)) * kp * hs * (k + kp)
    rhs = rhs + (hh**3 * (7.0 / 8.0)) * kp * (l**2 + hs * (k + kp * 2.5)) * phi
    return (rhs / pre).hi


def err_o3_single(b: StepErrorBounds, h: float, m: int = 1) -> float:
    """Third-order bound for a single (possibly state-dependent) input."""
    if m != 1:
        raise InapplicableError("single-input bound needs exactly one input")
    if h <= 0:
        raise InapplicableError("step size must be positive")
    pre = _pt(1.0) - _pt(h) * b.L * 0.5 - _pt(h) * b.Lp
    if pre.lo <= 0.0:
        raise InapplicableError(f"needs h*(L/2 + L') < 1 (got {h * (b.L / 2 + b.Lp):g})")
    phi = growth_factor(b.Lam * h)
    hh = _pt(h)
    k, kp, l, lp, hs, hp = _pt(b.K), _pt(b.Kp), _pt(b.L), _pt(b.Lp), _pt(b.H), _pt(b.Hp)
    rhs = (hh**3 * (7.0 / 8.0)) * kp * (
        (hs + hp * 10.0) * (k + kp * 2.5) + l**2 + l * lp * 12.5 + lp**2 * 25.0
    ) * phi
    tail = (hs * kp + l * lp) * 7.0 + (hp * k + l * lp) * 28.0 + (hp * kp + lp**2) * 29.0
    rhs = rhs + (hh**3 / 48.0) * (k + kp) * tail
    return (rhs / pre).hi


def param_requirements(m: int) -> tuple[int, int, int]:
    """(independent moment equations, minimal polynomial degree, available
    parameters) for a third-order surrogate with m inputs."""
    if m < 1:
        raise ValueError("input count must be >= 1")
    equations = m * (m + 3) // 2
    degree = math.ceil((m + 1) / 2)
    parameters = m * (degree + 1)
    return equations, degree, parameters


def _additive(sys: InputAffineSystem, b: StepErrorBounds) -> bool:
    return not (any(v != 0.0 for v in b.Li) or any(v != 0.0 for v in b.Hi))


def _always(sys: InputAffineSystem, b: StepErrorBounds) -> bool:
    return True


class _Formula(NamedTuple):
    order: ErrorOrder
    forced_by: int | None  # the integer that forces it; None for a refinement
    bound: Callable[[InputAffineSystem, InputScheme, StepErrorBounds, float], float]
    kinds: frozenset[SchemeKind]  # the schemes whose surrogates it covers
    applies: Callable[[InputAffineSystem, StepErrorBounds], bool] = _always


_TWO_MOMENT = frozenset((SchemeKind.AFFINE, SchemeKind.AFFINE_REDUCED, SchemeKind.STEP))
_CONSTANT = frozenset((SchemeKind.CONSTANT,))

# Higher orders first, so that min() resolves ties to the best order.  An
# integer forces the base theorem of the scheme's family: the C2 refinement
# of the constant-surrogate bound is chosen only by value or by name.
_FORMULAS = (
    _Formula(ErrorOrder.O3_ADDITIVE, 3, lambda sys, s, b, h: err_o3_additive(b, h), _TWO_MOMENT, _additive),
    _Formula(
        ErrorOrder.O3_SINGLE,
        3,
        lambda sys, s, b, h: err_o3_single(b, h, m=sys.m),
        _TWO_MOMENT,
        lambda sys, b: sys.m == 1 and not _additive(sys, b),
    ),
    _Formula(ErrorOrder.O2_CONSTANT_C2, None, lambda sys, s, b, h: err_o2_constant_c2(b, h), _CONSTANT),
    _Formula(ErrorOrder.O2_CONSTANT, 2, lambda sys, s, b, h: err_o2_constant(b, h), _CONSTANT),
    _Formula(ErrorOrder.O2_AFFINE, 2, lambda sys, s, b, h: err_o2_affine(b, h), _TWO_MOMENT),
    _Formula(ErrorOrder.O1_ZERO, 1, lambda sys, s, b, h: _first_order(b, h, s.w_sup_factor), frozenset(SchemeKind)),
)


def select_error(
    sys: InputAffineSystem,
    scheme: InputScheme,
    b: StepErrorBounds,
    h: float,
    forced=None,
) -> tuple[ErrorOrder, float]:
    """Pick the analytical per-step bound for a step of length h > 0.

    forced = None picks the smallest bound among the formulas that cover the
    scheme and apply to the inputs, skipping those whose hypotheses fail at
    this h; an ErrorOrder forces that formula; 1/2/3 force the order (2 = the
    base theorem of the scheme's family, 3 = additive or single-input
    corollary) and raise InapplicableError when no formula of that order
    covers the scheme and applies to the inputs.  A forced ErrorOrder must
    cover the scheme too, or InapplicableError is raised; its applies
    predicate is not consulted, since the formula still checks its own
    hypotheses (for O3-single-input the predicate only prefers the additive
    corollary, which is no hypothesis).  Without inputs, or with inputs
    that vanish on the box, the bound is 0.
    """
    if sys.m == 0 or b.Kp == 0.0:
        return (ErrorOrder.O1_ZERO, 0.0)
    if h <= 0:
        raise InapplicableError("step size must be positive")
    if forced is None:
        cands = []
        for f in _FORMULAS:
            if scheme.kind in f.kinds and f.applies(sys, b):
                try:
                    cands.append((f.order, f.bound(sys, scheme, b, h)))
                except InapplicableError:
                    pass
        return min(cands, key=lambda t: t[1])
    if isinstance(forced, ErrorOrder):
        rows = [f for f in _FORMULAS if f.order is forced and scheme.kind in f.kinds]
        if not rows:
            raise InapplicableError(f"the {forced.value} bound does not cover the {scheme.kind.value} scheme")
    else:
        k = int(forced)
        if k not in (1, 2, 3):
            raise ValueError(f"unknown forced order {forced!r}")
        rows = [f for f in _FORMULAS if f.forced_by == k and scheme.kind in f.kinds and f.applies(sys, b)]
        if not rows:
            raise InapplicableError(f"no order-{k} bound for the {scheme.kind.value} scheme with these inputs")
    return (rows[0].order, rows[0].bound(sys, scheme, b, h))
