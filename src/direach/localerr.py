"""Uniform single-step analytical error bounds.

Each function bounds ||x(t_{k+1}) - y(t_{k+1})|| for the surrogate system
whose inputs match the stated moments, in terms of the constants of
StepErrorBounds.  Every operand of the formulas is nonnegative, so each
formula is evaluated on plain floats with every operation rounded upward
(the denominator 1 - hL/2 [- hL'] downward), and replacing exact
arithmetic by this implementation can only increase the bound.  The growth
factor phi(u) = (e^u - 1)/u is increasing, so it is taken at Lam*h rounded
upward.  select_error computes it once per call and passes it to every
formula as phi; a formula called without it computes it.

Each row of select_error's table serves one family of surrogates:
O1 any surrogate with sup|w| <= cV (c = 0 for the zero scheme, the
scheme's w_sup_factor otherwise); O2-constant the step-mean constant
surrogate; O2-affine, O3-additive (constant input fields) and
O3-single-input (one input) the surrogates that match the mean and the
first centred moment: affine, affine-reduced and step.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .interval import _add_down, _add_up, _div_up, _exp_down, _exp_up, _mul_up, _pow_up
from .inputs import InputScheme, SchemeKind
from .symexpr import InputAffineSystem, StepErrorBounds

__all__ = [
    "ErrorOrder",
    "InapplicableError",
    "err_o1",
    "err_o2_constant",
    "err_o2_affine",
    "err_o3_additive",
    "err_o3_single",
    "select_error",
    "param_requirements",
    "growth_factor",
]

# the inexact constant of the formulas, rounded upward (7/8 is exact)
_C7_48 = _div_up(7.0, 48.0)


class ErrorOrder(str, Enum):
    O1_ZERO = "O1"
    O2_CONSTANT = "O2-constant"
    # no formula: kept while the benchmark still reports its order counter
    O2_CONSTANT_C2 = "O2-constant-C2"
    O2_AFFINE = "O2-affine"
    O3_ADDITIVE = "O3-additive"
    O3_SINGLE = "O3-single-input"


class InapplicableError(ValueError):
    """The formula's hypotheses fail for these bounds / this step size."""


def growth_factor(u: float) -> float:
    """Upper bound of (e^u - 1)/u, continued by 1 at u = 0; decreasing below
    1 for negative u."""
    if abs(u) < 1e-8:
        # |phi(u) - (1 + u/2)| <= u^2/6 < 1.7e-17 here
        return _add_up(_add_up(1.0, _mul_up(u, 0.5)), 1e-15)
    if u > 0.0:
        return _div_up(_add_up(_exp_up(u), -1.0), u)
    return _div_up(_add_up(1.0, -_exp_down(u)), -u)


def _phi(b: StepErrorBounds, h: float, phi: float | None = None) -> float:
    """phi(Lam h), unless the caller passes it as phi; every formula takes
    it, so the step-size check is here."""
    if phi is not None:
        return phi
    if h <= 0:
        raise InapplicableError("step size must be positive")
    return growth_factor(_mul_up(b.Lam, h))


def _denominator(b: StepErrorBounds, h: float, with_lp: bool) -> float:
    """Lower bound of 1 - hL/2, minus hL' when with_lp; raises when it is
    not positive."""
    pre = _add_down(1.0, -_mul_up(_mul_up(h, b.L), 0.5))
    if with_lp:
        pre = _add_down(pre, -_mul_up(h, b.Lp))
        if pre <= 0.0:
            raise InapplicableError(f"needs h*(L/2 + L') < 1 (got {h * (b.L / 2 + b.Lp):g})")
    elif pre <= 0.0:
        raise InapplicableError(f"needs h*L < 2 (h*L = {h * b.L:g})")
    return pre


def err_o1(b: StepErrorBounds, h: float, phi: float | None = None) -> float:
    """First-order bound for the zero surrogate (w = 0)."""
    return _first_order(b, h, 0.0, phi)


def _first_order(b: StepErrorBounds, h: float, w_factor: float, phi: float | None = None) -> float:
    """min(h*(1+c)K'Phi(Lam h), h*(2K + (1+c)K')) where c bounds sup|w|/V.

    c = 0 is the zero-surrogate theorem; for nonzero surrogates both the
    true and the surrogate solution are compared against the undisturbed
    flow, which inflates the disturbance term by the surrogate's range.
    """
    kp_eff = _mul_up(b.Kp, _add_up(1.0, w_factor))
    e1 = _mul_up(_mul_up(h, kp_eff), _phi(b, h, phi))
    e2 = _mul_up(h, _add_up(_mul_up(b.K, 2.0), kp_eff))
    return min(e1, e2)


def err_o2_constant(b: StepErrorBounds, h: float, phi: float | None = None) -> float:
    """Second-order bound for the step-mean constant surrogate."""
    phi = _phi(b, h, phi)
    k, kp, l, lp = b.K, b.Kp, b.L, b.Lp
    # (K + K')L'/3 + 2K'(L + L')phi
    inner = _add_up(
        _div_up(_mul_up(_add_up(k, kp), lp), 3.0),
        _mul_up(_mul_up(_mul_up(kp, 2.0), _add_up(l, lp)), phi),
    )
    return _mul_up(_pow_up(h, 2), inner)


def err_o2_affine(b: StepErrorBounds, h: float, phi: float | None = None) -> float:
    """Second-order bound for affine surrogates (general input fields)."""
    phi = _phi(b, h, phi)
    pre = _denominator(b, h, with_lp=True)
    k, kp, l, lp, hs, hp = b.K, b.Kp, b.L, b.Lp, b.H, b.Hp
    h3 = _pow_up(h, 3)
    k_kp = _add_up(k, kp)
    # (h^2/4)L'(11K + 34.5K')
    rhs = _mul_up(_mul_up(_div_up(_pow_up(h, 2), 4.0), lp), _add_up(_mul_up(k, 11.0), _mul_up(kp, 34.5)))
    # + (7h^3/8)K'((4H' + H)(K + 2.5K') + L^2 + (4.5L + 5L')L')phi
    inner = _add_up(
        _add_up(_mul_up(_add_up(_mul_up(hp, 4.0), hs), _add_up(k, _mul_up(kp, 2.5))), _pow_up(l, 2)),
        _mul_up(_add_up(_mul_up(l, 4.5), _mul_up(lp, 5.0)), lp),
    )
    rhs = _add_up(rhs, _mul_up(_mul_up(_mul_up(_mul_up(h3, 7.0 / 8.0), kp), inner), phi))
    # + (7h^3/48)(HK' + LL')(K + K')
    rhs = _add_up(rhs, _mul_up(_mul_up(_mul_up(h3, _C7_48), _add_up(_mul_up(hs, kp), _mul_up(l, lp))), k_kp))
    return _div_up(rhs, pre)


def err_o3_additive(b: StepErrorBounds, h: float, phi: float | None = None) -> float:
    """Third-order bound for additive noise (constant input fields)."""
    if not _additive(b):
        raise InapplicableError("third-order additive bound needs constant input fields")
    phi = _phi(b, h, phi)
    pre = _denominator(b, h, with_lp=False)
    k, kp, l, hs = b.K, b.Kp, b.L, b.H
    h3 = _pow_up(h, 3)
    # (7h^3/48)K'H(K + K')
    rhs = _mul_up(_mul_up(_mul_up(_mul_up(h3, _C7_48), kp), hs), _add_up(k, kp))
    # + (7h^3/8)K'(L^2 + H(K + 2.5K'))phi
    inner = _add_up(_pow_up(l, 2), _mul_up(hs, _add_up(k, _mul_up(kp, 2.5))))
    rhs = _add_up(rhs, _mul_up(_mul_up(_mul_up(_mul_up(h3, 7.0 / 8.0), kp), inner), phi))
    return _div_up(rhs, pre)


def err_o3_single(b: StepErrorBounds, h: float, m: int = 1, phi: float | None = None) -> float:
    """Third-order bound for a single (possibly state-dependent) input."""
    if m != 1:
        raise InapplicableError("single-input bound needs exactly one input")
    phi = _phi(b, h, phi)
    pre = _denominator(b, h, with_lp=True)
    k, kp, l, lp, hs, hp = b.K, b.Kp, b.L, b.Lp, b.H, b.Hp
    h3 = _pow_up(h, 3)
    l_lp = _mul_up(l, lp)
    lp2 = _pow_up(lp, 2)
    # (7h^3/8)K'((H + 10H')(K + 2.5K') + L^2 + 12.5LL' + 25L'^2)phi
    inner = _mul_up(_add_up(hs, _mul_up(hp, 10.0)), _add_up(k, _mul_up(kp, 2.5)))
    inner = _add_up(_add_up(_add_up(inner, _pow_up(l, 2)), _mul_up(l_lp, 12.5)), _mul_up(lp2, 25.0))
    rhs = _mul_up(_mul_up(_mul_up(_mul_up(h3, 7.0 / 8.0), kp), inner), phi)
    # + (h^3/48)(K + K')(7(HK' + LL') + 28(H'K + LL') + 29(H'K' + L'^2))
    tail = _add_up(
        _add_up(
            _mul_up(_add_up(_mul_up(hs, kp), l_lp), 7.0),
            _mul_up(_add_up(_mul_up(hp, k), l_lp), 28.0),
        ),
        _mul_up(_add_up(_mul_up(hp, kp), lp2), 29.0),
    )
    rhs = _add_up(rhs, _mul_up(_mul_up(_div_up(h3, 48.0), _add_up(k, kp)), tail))
    return _div_up(rhs, pre)


def param_requirements(m: int) -> tuple[int, int, int]:
    """(independent moment equations, minimal polynomial degree, available
    parameters) for a third-order surrogate with m inputs."""
    if m < 1:
        raise ValueError("input count must be >= 1")
    equations = m * (m + 3) // 2
    degree = math.ceil((m + 1) / 2)
    parameters = m * (degree + 1)
    return equations, degree, parameters


def _additive(b: StepErrorBounds) -> bool:
    """Constant input fields: every first and second input derivative is 0."""
    return b.Lp == 0.0 and b.Hp == 0.0


def _always(b: StepErrorBounds) -> bool:
    return True


class _Formula(NamedTuple):
    order: ErrorOrder
    forced_by: int  # the integer that forces it
    bound: Callable[[InputAffineSystem, InputScheme, StepErrorBounds, float, float], float]
    kinds: frozenset[SchemeKind]  # the schemes whose surrogates it covers
    applies: Callable[[StepErrorBounds], bool] = _always


_TWO_MOMENT = frozenset((SchemeKind.AFFINE, SchemeKind.AFFINE_REDUCED, SchemeKind.STEP))
_CONSTANT = frozenset((SchemeKind.CONSTANT,))

# Higher orders first, so that min() resolves ties to the best order.
_FORMULAS = (
    _Formula(ErrorOrder.O3_ADDITIVE, 3, lambda sys, s, b, h, phi: err_o3_additive(b, h, phi), _TWO_MOMENT),
    # the additive corollary is preferred where both apply
    _Formula(
        ErrorOrder.O3_SINGLE,
        3,
        lambda sys, s, b, h, phi: err_o3_single(b, h, sys.m, phi),
        _TWO_MOMENT,
        lambda b: not _additive(b),
    ),
    _Formula(ErrorOrder.O2_CONSTANT, 2, lambda sys, s, b, h, phi: err_o2_constant(b, h, phi), _CONSTANT),
    _Formula(ErrorOrder.O2_AFFINE, 2, lambda sys, s, b, h, phi: err_o2_affine(b, h, phi), _TWO_MOMENT),
    _Formula(
        ErrorOrder.O1_ZERO, 1, lambda sys, s, b, h, phi: _first_order(b, h, s.w_sup_factor, phi), frozenset(SchemeKind)
    ),
)


def select_error(
    sys: InputAffineSystem,
    scheme: InputScheme,
    b: StepErrorBounds,
    h: float,
    forced=None,
) -> tuple[ErrorOrder, float]:
    """Pick the analytical per-step bound for a step of length h > 0.

    forced = None takes the smallest bound among the formulas that cover
    the scheme and apply to the inputs; 1/2/3 take the formula of that
    order that covers the scheme (3 = additive or single-input corollary);
    an ErrorOrder takes that formula.  Each formula checks its own
    hypotheses (step size, hL < 2 or h(L/2 + L') < 1, additive noise, one
    input) and a formula whose hypotheses fail is skipped.  The table's
    applies predicate only prefers the additive corollary to the
    single-input one and is not consulted for a forced ErrorOrder.
    InapplicableError is raised when no formula is left, as for a forced
    order that does not cover the scheme.  Without inputs, or with inputs
    that vanish on the box, the bound is 0, once h and forced have passed
    their checks.  phi(Lam h) is computed once and shared by every formula.
    """
    phi = _phi(b, h)
    if isinstance(forced, ErrorOrder):
        rows = [f for f in _FORMULAS if f.order is forced]
    elif forced in (None, 1, 2, 3):
        rows = [f for f in _FORMULAS if forced in (None, f.forced_by) and f.applies(b)]
    else:
        raise ValueError(f"unknown forced order {forced!r}")
    if sys.m == 0 or b.Kp == 0.0:
        return (ErrorOrder.O1_ZERO, 0.0)
    cands = []
    reason = InapplicableError(f"no bound for forced={forced!r} covers the {scheme.kind.value} scheme")
    for f in rows:
        if scheme.kind in f.kinds:
            try:
                cands.append((f.order, f.bound(sys, scheme, b, h, phi)))
            except InapplicableError as exc:
                reason = exc
    if not cands:
        raise reason
    # at most one formula of a forced order applies
    return min(cands, key=lambda t: t[1])
