"""Wall time scaled to a reference CPU speed.

On a shared 2-core VM the speed of the same code drifts by 30-60 % over
seconds to minutes, and process time drifts with it.  A fixed pure-Python
kernel, timed right before and right after each measured call, slows down
in step with the library, so dividing by it cancels most of the drift.
The kernel mixes the two kinds of work the library does: a dict-keyed
polynomial product and frozen-dataclass interval arithmetic.  It shares no
code with the library, so a change to the library does not move it.

A scaled time is ``wall * REF_S / ref``, where ``ref`` is the mean of the
kernel times before and after the call and REF_S is the kernel time on the
reference machine (2-core x86-64 VM, CPython 3.11.7), so scaled times read
as seconds at that machine's undisturbed speed.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

REF_S = 0.63e-3

_A = {(i * 0x11) & 0xFFFF: 1.0 / (i + 1) for i in range(24)}
_B = {(i * 0x101) & 0xFFFF: 1.0 / (i + 3) for i in range(24)}


def _dict_product() -> dict:
    out = {}
    for k1, c1 in _A.items():
        for k2, c2 in _B.items():
            k = k1 + k2
            v = out.get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2
    return out


@dataclass(frozen=True)
class _Iv:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError("bad interval")

    def __mul__(self, o):
        ps = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _Iv(min(ps), max(ps))

    def __add__(self, o):
        return _Iv(self.lo + o.lo, self.hi + o.hi)


def _interval_sum() -> _Iv:
    a, b, acc = _Iv(-0.5, 1.5), _Iv(0.25, 0.75), _Iv(0.0, 0.0)
    for _ in range(300):
        acc = acc + a * b
    return acc


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t = time.perf_counter()
    _dict_product()
    _dict_product()
    _interval_sum()
    return time.perf_counter() - t


class ScaledClock:
    """Times calls and scales each by the kernel times around it."""

    def __init__(self):
        self._before = kernel_s()

    def call(self, fn, *args):
        """(fn(*args), scaled seconds, wall seconds)."""
        t = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t
        after = kernel_s()
        ref = 0.5 * (self._before + after)
        self._before = after
        return out, wall * REF_S / ref, wall
