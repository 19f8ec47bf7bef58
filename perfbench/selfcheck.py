"""Analytic self-check of the reach driver.

For dx/dt = -x + v with |v| <= 0.1 from [0.9, 1.1] the reachable set at
time t is exactly
    [0.9 e^-t - 0.1 (1 - e^-t),  1.1 e^-t + 0.1 (1 - e^-t)].
The driver's box must contain it at every step, for every input scheme.
"""
from __future__ import annotations

import math

import reach

H = 0.01
STEPS = 200
CAP = 3


def exact(t: float) -> tuple[float, float]:
    d = math.exp(-t)
    return 0.9 * d - 0.1 * (1.0 - d), 1.1 * d + 0.1 * (1.0 - d)


def check(lib) -> list[str]:
    """Problems found, one line each; empty when every scheme passes."""
    system = lib.symexpr.InputAffineSystem(1, ["-x1"], [["1"]], [0.1])
    X0 = reach.initial_model(lib, [(0.9, 1.1)], CAP)
    problems = []
    for kind in lib.inputs.SchemeKind:
        r = reach.run_reach(lib, system, lib.inputs.InputScheme(kind), X0, H, STEPS)
        if not r.complete:
            problems.append(f"{kind.value}: retries exhausted at step {len(r.boxes)}")
        for k, box in enumerate(r.boxes):
            lo, hi = exact(k * H)
            if not (box[0].lo <= lo and hi <= box[0].hi):
                problems.append(f"{kind.value}: step {k} box {box[0]} misses [{lo}, {hi}]")
                break
    return problems
