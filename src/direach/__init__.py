"""Rigorous reachable-set computation for input-affine differential inclusions."""

from .interval import Box, Interval, IntervalDomainError, iv_cos, iv_exp, iv_sin

__all__ = [
    "Box",
    "Interval",
    "IntervalDomainError",
    "iv_cos",
    "iv_exp",
    "iv_sin",
]
