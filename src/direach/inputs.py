"""Finitely-parameterized surrogate inputs w(a, t).

Each scheme realizes a family of functions on one time step that matches
moments of every admissible disturbance |v| <= V: zero, step-mean constant,
affine (mean + centered first moment), the reduced-domain affine variant,
and a two-piece step family.  Parameters are normalized to the unit box;
physical scaling happens inside the realization.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from .interval import _Immutable, _set
from .polymodel import PolynomialModel, VarInfo

__all__ = [
    "SchemeKind",
    "InputScheme",
    "PiecewiseConstant",
    "realize_w",
    "match_parameters",
    "quadratic_envelope_check",
]


class SchemeKind(str, Enum):
    ZERO = "zero"
    CONSTANT = "constant"
    AFFINE = "affine"
    AFFINE_REDUCED = "affine-reduced"
    STEP = "step"


_PARAMS_PER_INPUT = {
    SchemeKind.ZERO: 0,
    SchemeKind.CONSTANT: 1,
    SchemeKind.AFFINE: 2,
    SchemeKind.AFFINE_REDUCED: 2,
    SchemeKind.STEP: 2,
}

# sup |w| as a multiple of V over the whole parameter family
_W_SUP_FACTOR = {
    SchemeKind.ZERO: 0.0,
    SchemeKind.CONSTANT: 1.0,
    SchemeKind.AFFINE: 2.5,
    SchemeKind.AFFINE_REDUCED: 5.0 / 3.0,
    SchemeKind.STEP: 2.0,
}


class InputScheme(_Immutable):
    """One surrogate family, by its SchemeKind or the kind's name."""

    __slots__ = ("kind",)

    def __init__(self, kind: SchemeKind | str):
        try:
            kind = SchemeKind(kind)
        except ValueError:
            valid = ", ".join(k.value for k in SchemeKind)
            raise ValueError(f"unknown input scheme {kind!r}; expected one of: {valid}") from None
        _set(self, "kind", kind)

    @staticmethod
    def from_name(name: str) -> "InputScheme":
        return InputScheme(name)

    @property
    def params_per_input(self) -> int:
        return _PARAMS_PER_INPUT[self.kind]

    @property
    def w_sup_factor(self) -> float:
        """sup |w(a, t)| / V over all normalized parameters and times."""
        return _W_SUP_FACTOR[self.kind]

    @property
    def uses_half_steps(self) -> bool:
        return self.kind is SchemeKind.STEP


def realize_w(
    scheme: InputScheme,
    magnitude: float,
    vars: tuple[VarInfo, ...],
    param_positions: Sequence[int],
    time_position: int | None,
    max_degree: int,
    half: int | None = None,
) -> PolynomialModel:
    """Polynomial model of w(a, t) over the given variable layout.

    param_positions lists the model variables carrying this input's
    normalized parameters; time_position is the step's scaled time variable
    ((t - t_mid) = radius * tau).  For the step scheme, `half` selects the
    active sub-step parameter (0 or 1) and the result is constant in time.
    """
    v = float(magnitude)
    kind = scheme.kind
    if kind is SchemeKind.ZERO:
        return PolynomialModel.constant(0.0, vars, max_degree)
    if kind is SchemeKind.CONSTANT:
        (a0,) = param_positions
        return PolynomialModel.from_var(a0, vars, max_degree).scale(v)
    if kind is SchemeKind.STEP:
        if half not in (0, 1):
            raise ValueError("step scheme realization needs half=0 or half=1")
        pos = param_positions[half]
        return PolynomialModel.from_var(pos, vars, max_degree).scale(2.0 * v)
    if time_position is None:
        raise ValueError("time-dependent scheme needs a time variable")
    tau = PolynomialModel.from_var(time_position, vars, max_degree)
    if kind is SchemeKind.AFFINE:
        a0, a1 = param_positions
        p0 = PolynomialModel.from_var(a0, vars, max_degree).scale(v)
        # a1*(t - t_mid)/h = (3V alpha1) * (tau/2)
        p1 = (PolynomialModel.from_var(a1, vars, max_degree) * tau).scale(1.5 * v)
        return p0 + p1
    if kind is SchemeKind.AFFINE_REDUCED:
        a0, b1 = param_positions
        za = PolynomialModel.from_var(a0, vars, max_degree)
        zb = PolynomialModel.from_var(b1, vars, max_degree)
        one = PolynomialModel.constant(1.0, vars, max_degree)
        envelope = one - za * za
        slope = (envelope * zb * tau).scale(1.5 * v)
        return za.scale(v) + slope
    raise ValueError(kind)


class PiecewiseConstant(_Immutable):
    """Piecewise-constant disturbance on [t0, t0+h]: values[i] holds on
    [breaks[i], breaks[i+1])."""

    __slots__ = ("breaks", "values")

    def __init__(self, breaks: tuple[float, ...], values: tuple[float, ...]):
        if len(breaks) != len(values) + 1:
            raise ValueError("need one more breakpoint than values")
        if any(b >= a for a, b in zip(breaks[1:], breaks[:-1])):
            raise ValueError("breakpoints must be increasing")
        _set(self, "breaks", breaks)
        _set(self, "values", values)

    def __call__(self, t: float) -> float:
        for i in range(len(self.values)):
            if t < self.breaks[i + 1]:
                return self.values[i]
        return self.values[-1]

    def mean(self) -> float:
        h = self.breaks[-1] - self.breaks[0]
        return sum(v * (b1 - b0) for v, b0, b1 in zip(self.values, self.breaks, self.breaks[1:])) / h

    def centered_moment(self, mid: float) -> float:
        """integral of v(t)*(t - mid) dt."""
        total = 0.0
        for v, b0, b1 in zip(self.values, self.breaks, self.breaks[1:]):
            total += v * ((b1 - mid) ** 2 - (b0 - mid) ** 2) / 2.0
        return total


def match_parameters(v: PiecewiseConstant, scheme: InputScheme, t0: float, h: float) -> tuple[float, ...]:
    """Physical parameters of the scheme member matching v's moments on
    [t0, t0+h].

    Returns () for zero, (a0,) for constant, (a0, a1) for affine and step.
    """
    if not 0 < h < math.inf:
        raise ValueError("step size must be positive")
    mean = v.mean()
    moment = v.centered_moment(t0 + h / 2.0)
    kind = scheme.kind
    if kind is SchemeKind.ZERO:
        return ()
    if kind is SchemeKind.CONSTANT:
        return (mean,)
    if kind in (SchemeKind.AFFINE, SchemeKind.AFFINE_REDUCED):
        return (mean, 12.0 / h**2 * moment)
    if kind is SchemeKind.STEP:
        shift = 4.0 / h**2 * moment
        return (mean - shift, mean + shift)
    raise ValueError(kind)


def quadratic_envelope_check(a0: float, a1: float, magnitude: float, tol: float = 1e-12) -> bool:
    """|a1| <= 3V(1 - (a0/V)^2) within tolerance."""
    v = float(magnitude)
    return abs(a1) <= 3.0 * v * (1.0 - (a0 / v) ** 2) + tol
