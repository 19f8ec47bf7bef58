"""The fixed reach problems of the benchmark.

Each workload is an input-affine inclusion, an initial box, an input scheme,
a degree cap, a step size and a step count.  The workload seed shifts the
initial box centre inside a small fixed range, so a held-out seed gives
different but equally sized work; it also seeds the Monte-Carlo oracle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# the centre shift drawn from the seed stays within +-CENTRE_JITTER per axis
CENTRE_JITTER = 0.002


@dataclass(frozen=True)
class Oracle:
    """Monte-Carlo oracle size: trajectories, input resamples per step and
    RK4 substeps per resample."""

    n_traj: int
    refine: int
    substeps: int


@dataclass(frozen=True)
class Workload:
    name: str
    drift: tuple[str, ...]
    inputs: tuple[tuple[str, ...], ...]
    magnitudes: tuple[float, ...]
    scheme: str
    cap: int
    h: float
    steps: int
    centre: tuple[float, ...]
    width: float
    oracle: Oracle

    @property
    def dim(self) -> int:
        return len(self.drift)

    def initial_bounds(self, seed: int) -> tuple[tuple[float, float], ...]:
        rng = random.Random(f"{self.name}:{seed}")
        half = self.width / 2.0
        out = []
        for c in self.centre:
            m = c + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
            out.append((m - half, m + half))
        return tuple(out)


WORKLOADS = {
    w.name: w
    for w in (
        # Van der Pol with one state-dependent input; full cap-5 models
        Workload(
            name="vdp-affine-deg5",
            drift=("x2", "(1 - x1^2)*x2 - x1"),
            inputs=(("0", "x1"),),
            magnitudes=(0.05,),
            scheme="affine",
            cap=5,
            h=0.01,
            steps=100,
            centre=(2.0, 0.0),
            width=0.02,
            oracle=Oracle(n_traj=200, refine=4, substeps=2),
        ),
        # damped oscillator with additive noise; tiny models, fixed cost dominates
        Workload(
            name="dosc-additive",
            drift=("-x1 + 0.5*x2", "-0.5*x1 - x2"),
            inputs=(("0", "1"),),
            magnitudes=(0.05,),
            scheme="affine",
            cap=3,
            h=0.005,
            steps=1000,
            centre=(1.0, 0.0),
            width=0.02,
            oracle=Oracle(n_traj=200, refine=2, substeps=1),
        ),
        # contracting 3-state system with sin/cos and two inputs; half-step scheme
        Workload(
            name="trig3-step",
            drift=("-x1 + 0.3*sin(x3)", "-x2 + 0.3*cos(x3)", "-x3 + 0.5*x1"),
            inputs=(("0", "0", "1"), ("cos(x3)", "sin(x3)", "0")),
            magnitudes=(0.05, 0.05),
            scheme="step",
            cap=3,
            h=0.02,
            steps=100,
            centre=(1.0, 0.0, 0.5),
            width=0.02,
            oracle=Oracle(n_traj=200, refine=4, substeps=2),
        ),
    )
}
