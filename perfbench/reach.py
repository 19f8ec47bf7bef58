"""Reach driver of the benchmark.

One step runs apriori_bound -> picard_flow -> compute_bounds on the
certified box -> select_error -> add_error on every component -> sweep of
this step's input parameters.  Every library call goes through the module
attribute (``lib.flow.picard_flow``), so the tracer's wrappers see it.

Retry policy: when picard_flow cannot certify its tube inside the a-priori
box, the same step is retried on that box inflated outward (any superset of
a certified a-priori box is still a valid bound); compute_bounds always
uses the un-inflated box.  When the inflations fail too, or apriori_bound
fails, the step is split into two half steps, up to MAX_HALVINGS times.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from calibrate import ScaledClock

# share of each component's radius added to the certified box on a retry
INFLATIONS = (0.1, 0.5)
MAX_HALVINGS = 2


@dataclass
class ReachStats:
    attempts: int = 0
    failed: dict = field(default_factory=lambda: {"apriori_bound": 0, "picard_flow": 0, "select_error": 0})

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


@dataclass
class ReachResult:
    boxes: list  # Box at t = k*h for k = 0..steps, or up to the failed step
    step_s: list  # scaled time of each grid step, retries included (see calibrate)
    step_wall_s: list  # wall time of the same steps
    stats: ReachStats
    complete: bool  # False when a step ran out of retries

    @property
    def reach_s(self) -> float:
        return sum(self.step_s)

    @property
    def wall_s(self) -> float:
        return sum(self.step_wall_s)

    @property
    def final_width(self) -> float:
        return max(self.boxes[-1].widths)


def initial_model(lib, bounds, cap):
    """VectorModel of the box: component c is mid_c + rad_c * z_c."""
    pm = lib.polymodel
    infos = tuple(pm.VarInfo(pm.Role.STATE, axis=i) for i in range(len(bounds)))
    comps = []
    for i, (lo, hi) in enumerate(bounds):
        iv = lib.interval.Interval(lo, hi)
        m = pm.PolynomialModel.constant(iv.mid, infos, cap)
        m = m + pm.PolynomialModel.from_var(i, infos, cap).scale(iv.rad)
        comps.append(m)
    return pm.VectorModel(tuple(comps))


def _inflated(lib, bound, frac):
    box = bound.box
    return lib.flow.AprioriBound(box.inflate([frac * c.rad for c in box]), bound.input_ranges)


def _one_step(lib, system, scheme, X, t0, h, born, stats):
    """Advance X by h, retrying on inflated boxes; None when all fail."""
    flow = lib.flow
    geom = flow.StepGeometry(t0, h)
    stats.attempts += 1
    try:
        bound = flow.apriori_bound(system, X.box(), scheme, geom)
    except flow.CertificationError:
        stats.failed["apriori_bound"] += 1
        return None
    Y = None
    for i, frac in enumerate((0.0,) + INFLATIONS):
        if i:
            stats.attempts += 1
        try:
            Y = flow.picard_flow(system, X, scheme, geom, _inflated(lib, bound, frac) if frac else bound, born=born)
            break
        except flow.CertificationError:
            stats.failed["picard_flow"] += 1
    if Y is None:
        return None
    try:
        b = lib.symexpr.compute_bounds(system, bound.box)
        _, err = lib.localerr.select_error(system, scheme, b, h)
    except lib.localerr.InapplicableError:
        stats.failed["select_error"] += 1
        return None
    Y = Y.map(lambda c: c.add_error(err))
    fresh = [i for i, v in enumerate(Y.vars) if v.role is lib.polymodel.Role.INPUT and v.born == born]
    return Y.map(lambda c: c.sweep(fresh))


def advance(lib, system, scheme, X, t0, h, born, stats, halvings=0):
    """X at t0 + h, or None once the retries are exhausted."""
    Y = _one_step(lib, system, scheme, X, t0, h, born, stats)
    if Y is not None or halvings >= MAX_HALVINGS:
        return Y
    half = h / 2.0
    mid = advance(lib, system, scheme, X, t0, half, born, stats, halvings + 1)
    if mid is None:
        return None
    return advance(lib, system, scheme, mid, t0 + half, half, born, stats, halvings + 1)


def run_reach(lib, system, scheme, X0, h, steps) -> ReachResult:
    stats = ReachStats()
    result = ReachResult([X0.box()], [], [], stats, True)
    clock = ScaledClock()

    def step(X, k):
        Y = advance(lib, system, scheme, X, k * h, h, k + 1, stats)
        return Y, (Y.box() if Y is not None else None)

    X = X0
    for k in range(steps):
        (X, box), scaled, wall = clock.call(step, X, k)
        result.step_s.append(scaled)
        result.step_wall_s.append(wall)
        if X is None:
            result.complete = False
            break
        result.boxes.append(box)
    return result
