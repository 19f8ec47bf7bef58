"""Nonvalidated reference integration for containment checking.

This is the oracle side: trajectories of the true inclusion under random
piecewise-constant disturbances, integrated by fixed-step RK4 on a grid much
finer than the reachability grid.  It shares with the validated pipeline
only the symbolic system definition: the system's program
(symexpr.Program) and InputAffineSystem.field, run here over numpy columns
in plain floating point with no rounding control.
"""
from __future__ import annotations

import numpy as np

from . import symexpr
from .interval import Box
from .symexpr import InputAffineSystem

__all__ = ["compile_field", "rk4_segment", "sample_trajectories"]


# numpy columns: x<i> is column i-1 of the states; a constant is a full
# column, so that every field component gives one value per trajectory
_NUMPY_OPS = {
    **symexpr.ARITH_OPS,
    symexpr.Const: lambda v, cols: np.full(cols.shape[1], v),
    symexpr.Sin: np.sin,
    symexpr.Cos: np.cos,
    symexpr.Exp: np.exp,
}


def compile_field(sys: InputAffineSystem):
    """Vectorized right-hand side: (states (N,n), inputs (N,m)) -> (N,n)."""

    def rhs(X: np.ndarray, V: np.ndarray) -> np.ndarray:
        return np.stack(sys.field(sys.program.run(X.T, _NUMPY_OPS, 0), V.T), axis=1)

    return rhs


def rk4_segment(rhs, X: np.ndarray, V: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    """Advance all trajectories by dt with inputs held constant."""
    h = dt / substeps
    for _ in range(substeps):
        k1 = rhs(X, V)
        k2 = rhs(X + 0.5 * h * k1, V)
        k3 = rhs(X + 0.5 * h * k2, V)
        k4 = rhs(X + h * k3, V)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


def sample_trajectories(
    sys: InputAffineSystem,
    initial: Box,
    total_time: float,
    steps: int,
    n_traj: int = 200,
    seed: int = 0,
    refine: int = 10,
    substeps: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate n_traj random trajectories of the inclusion.

    Disturbances are piecewise constant on a grid `refine` times finer than
    the reachability grid, resampled uniformly in [-V, V].  Returns
    (times (steps+1,), states (n_traj, steps+1, n)).  Raises ValueError
    unless total_time is positive and finite, n_traj, steps, refine and
    substeps are at least 1 and initial is a bounded box of dimension
    sys.n: with no trajectory, no time or no disturbance drawn (refine = 0)
    the oracle could not fail.
    """
    if not 0 < total_time < np.inf:
        raise ValueError(f"total time must be positive and finite, got {total_time}")
    if min(n_traj, steps, refine, substeps) < 1:
        raise ValueError(
            f"n_traj, steps, refine and substeps must be >= 1, got {n_traj}, {steps}, {refine}, {substeps}"
        )
    if len(initial.components) != sys.n:
        raise ValueError(f"initial box has dimension {len(initial.components)}, expected {sys.n}")
    if not all(c.is_finite for c in initial):
        raise ValueError(f"initial box {initial} is not bounded")
    rng = np.random.default_rng(seed)
    rhs = compile_field(sys)
    h = total_time / steps
    lows = np.array([c.lo for c in initial])
    highs = np.array([c.hi for c in initial])
    X = rng.uniform(lows, highs, size=(n_traj, sys.n))
    out = np.empty((n_traj, steps + 1, sys.n))
    out[:, 0, :] = X
    vmag = np.array(sys.V) if sys.m else np.zeros(0)
    for k in range(steps):
        for _ in range(refine):
            if sys.m:
                V = rng.uniform(-vmag, vmag, size=(n_traj, sys.m))
            else:
                V = np.zeros((n_traj, 0))
            X = rk4_segment(rhs, X, V, h / refine, substeps)
        out[:, k + 1, :] = X
    times = np.linspace(0.0, total_time, steps + 1)
    return times, out
