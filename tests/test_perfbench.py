"""The benchmark's reach driver and trace hooks, run on the library as the
tests import it.

perfbench/run.py --trace 1 wraps library names where their callers look
them up; a call moved away from a patched name leaves its metric
unmeasured, and the run fails.  The trace test guards that here.  The
reference test holds the driver's enclosure of the dosc-additive system
against the exact reachable set of that linear inclusion.
"""
import argparse
import cmath
import importlib
import json
import random
import sys
import types
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("interval", "symexpr", "polymodel", "inputs", "localerr", "flow", "mc")


def load_perfbench():
    """The perfbench modules (they import one another by bare name) and the
    library namespace they take."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        mods = {m: importlib.import_module(m) for m in ("reach", "tracer", "workloads")}
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"direach.{m}") for m in MODULES})
    return types.SimpleNamespace(lib=lib, **mods)


@pytest.fixture(scope="module")
def perfbench():
    return load_perfbench()


def test_trace_hooks_see_every_layer(perfbench):
    """A traced 3-step trig3-step reach calls every name that the tracer
    wraps and that BENCHMARK.json counts, gives the untraced boxes, and
    leaves the library as it was."""
    lib, reach = perfbench.lib, perfbench.reach
    w = perfbench.workloads.WORKLOADS["trig3-step"]
    system = lib.symexpr.InputAffineSystem(w.dim, w.drift, w.inputs, w.magnitudes)
    X0 = reach.initial_model(lib, w.initial_bounds(1), w.cap)
    scheme = lib.inputs.InputScheme.from_name(w.scheme)
    owners = [getattr(lib, m) for m in MODULES]
    owners += [lib.polymodel.PolynomialModel, lib.interval.Interval, lib.symexpr.InputAffineSystem]
    before = [dict(vars(o)) for o in owners]

    plain = reach.run_reach(lib, system, scheme, X0, w.h, 3)
    with perfbench.tracer.Tracer(lib) as tr:
        traced = reach.run_reach(lib, system, scheme, X0, w.h, 3)

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wrapped = {m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")}
    assert len(wrapped) == 14
    assert {name for name in wrapped if tr.calls[name] == 0} == set()
    assert traced.complete and traced.boxes == plain.boxes
    for o, was in zip(owners, before):
        now = vars(o)
        assert [k for k in was if now.get(k) is not was[k]] == [], o


# dosc-additive: dx/dt = A x + B v, A = [[-1, 1/2], [-1/2, -1]], B = (0, 1),
# |v| <= V; in z = x1 + i*x2 it is dz/dt = a z + i v with a = -1 - i/2
A = complex(-1.0, -0.5)
V = 0.05
H = 0.005
STEPS = 200
INITIAL = ((0.99, 1.01), (-0.01, 0.01))
HOLDS = (H / 20, H / 5, H / 2, H, 2 * H, 5 * H, float("inf"))


def exact_widths(T):
    """Widths of the exact reachable set at time T: |Phi(T)| w0 +
    2V int_0^T |Phi(s) B| ds per component, where Phi(s) = e^-s R(s/2) and
    R is the rotation [[cos, sin], [-sin, cos]]."""
    w0 = [hi - lo for lo, hi in INITIAL]
    with mpmath.workdps(30):
        T = mpmath.mpf(T)
        e, c, s = mpmath.exp(-T), abs(mpmath.cos(T / 2)), abs(mpmath.sin(T / 2))
        cuts = [0, T] if T <= mpmath.pi else [0, mpmath.pi, T]  # cos(s/2) changes sign at pi
        sin_int = mpmath.quad(lambda u: mpmath.exp(-u) * abs(mpmath.sin(u / 2)), cuts)
        cos_int = mpmath.quad(lambda u: mpmath.exp(-u) * abs(mpmath.cos(u / 2)), cuts)
        return (
            float(e * (c * w0[0] + s * w0[1]) + 2 * V * sin_int),
            float(e * (s * w0[0] + c * w0[1]) + 2 * V * cos_int),
        )


def extremal_states(rng, count):
    """Trajectories under +-V inputs that flip sign at rate 1/hold, one
    hold drawn per trajectory; half start at corners of the initial box.
    Each is the exact flow of its piecewise-constant input, taken at every
    grid time: shape [trajectory][k] -> complex state at t = k*H."""
    out = []
    for j in range(count):
        if j % 2:
            z = complex(*(rng.choice(c) for c in INITIAL))
        else:
            z = complex(*(rng.uniform(*c) for c in INITIAL))
        hold = rng.choice(HOLDS)
        v = rng.choice((-V, V))
        t, flip = 0.0, rng.expovariate(1.0 / hold) if hold < float("inf") else float("inf")
        states = [z]
        for k in range(1, STEPS + 1):
            end = k * H
            while t < end:
                tau = min(flip, end) - t
                decay = cmath.exp(A * tau)
                z = decay * z + 1j * v * (decay - 1.0) / A
                t = min(flip, end)
                if t >= flip:
                    v = -v
                    flip += rng.expovariate(1.0 / hold)
            states.append(z)
        out.append(states)
    return out


def test_dosc_additive_exact_reference(perfbench):
    """200 affine-scheme steps of dosc-additive: the final box is no
    narrower than the exact reachable set, and every step box holds about
    400 extremal trajectories."""
    lib, reach = perfbench.lib, perfbench.reach
    system = lib.symexpr.InputAffineSystem(2, ["-x1 + 0.5*x2", "-0.5*x1 - x2"], [["0", "1"]], [V])
    X0 = reach.initial_model(lib, INITIAL, 3)
    r = reach.run_reach(lib, system, lib.inputs.InputScheme.from_name("affine"), X0, H, STEPS)
    assert r.complete and len(r.boxes) == STEPS + 1

    # the exact widths at T = 1 and T = 5, to 6 digits
    assert [round(x, 6) for x in exact_widths(1.0)] == [0.022961, 0.071212]
    assert [round(x, 6) for x in exact_widths(5.0)] == [0.040082, 0.083053]
    final = r.boxes[-1].widths
    assert all(got >= want for got, want in zip(final, exact_widths(STEPS * H))), final

    outside = []
    for j, states in enumerate(extremal_states(random.Random(7), 400)):
        for k, (z, box) in enumerate(zip(states, r.boxes)):
            if not (box[0].lo <= z.real <= box[0].hi and box[1].lo <= z.imag <= box[1].hi):
                outside.append((j, k, z))
    assert outside == []


# the schemes of the orders test and their degree caps; affine runs at cap
# 5, where truncation does not blur its order (at cap 3 it falls 2.2-3.2x)
ORDER_CAPS = {"zero": 3, "constant": 3, "affine": 5}
ORDER_STEPS = (0.1, 0.05, 0.025)


def test_scheme_orders_against_exact_widths(perfbench):
    """The paper's orders end to end: dosc-additive from INITIAL to T = 1,
    one step after another with no sweep (apriori_bound -> picard_flow ->
    compute_bounds -> select_error -> add_error).  No width falls below the
    exact one, and per halving of h the excess over it, per component,
    shows global orders 0, 1 and 2 from the local O(h), O(h^2) and O(h^3):
    zero's changes by less than 1 %, constant's falls at least 1.9x, and
    affine's at least 2.2x (2.39-3.4x measured; an O(h) floor of the
    two-moment parameter box keeps it from 4x, see ROADMAP D6).  Affine is
    the narrowest at every h, and constant is narrower than zero from
    h = 0.05 on (at 0.1 its x2 excess is still above zero's)."""
    lib = perfbench.lib
    system = lib.symexpr.InputAffineSystem(2, ["-x1 + 0.5*x2", "-0.5*x1 - x2"], [["0", "1"]], [V])
    exact = exact_widths(1.0)
    excess = {}
    for name, cap in ORDER_CAPS.items():
        scheme = lib.inputs.InputScheme.from_name(name)
        for h in ORDER_STEPS:
            X = perfbench.reach.initial_model(lib, INITIAL, cap)
            for k in range(round(1.0 / h)):
                geom = lib.flow.StepGeometry(k * h, h)
                bound = lib.flow.apriori_bound(system, X.box(), scheme, geom)
                Y = lib.flow.picard_flow(system, X, scheme, geom, bound, born=k + 1)
                b = lib.symexpr.compute_bounds(system, bound.box)
                _, err = lib.localerr.select_error(system, scheme, b, h)
                X = Y.map(lambda c: c.add_error(err))
            excess[name, h] = [got - want for got, want in zip(X.box().widths, exact)]
    assert min(e for pair in excess.values() for e in pair) >= 0.0, excess
    for h, half in zip(ORDER_STEPS, ORDER_STEPS[1:]):
        for c in range(2):
            assert abs(excess["zero", half][c] / excess["zero", h][c] - 1.0) < 0.01, (h, c, excess)
            assert excess["constant", h][c] >= 1.9 * excess["constant", half][c], (h, c, excess)
            assert excess["affine", h][c] >= 2.2 * excess["affine", half][c], (h, c, excess)
    for h in ORDER_STEPS:
        for c in range(2):
            assert excess["affine", h][c] < min(excess["constant", h][c], excess["zero", h][c]), (h, c, excess)
            if h <= 0.05:
                assert excess["constant", h][c] < excess["zero", h][c], (h, c, excess)


GOLDEN = ROOT / "tests" / "reach_golden.json"
GOLDEN_STEPS = 5


def golden_boxes(perfbench):
    """float.hex bounds of the first GOLDEN_STEPS boxes of every benchmark
    workload at seed 1, keyed by workload name."""
    lib, reach = perfbench.lib, perfbench.reach
    out = {}
    for name, w in perfbench.workloads.WORKLOADS.items():
        system = lib.symexpr.InputAffineSystem(w.dim, w.drift, w.inputs, w.magnitudes)
        X0 = reach.initial_model(lib, w.initial_bounds(1), w.cap)
        r = reach.run_reach(lib, system, lib.inputs.InputScheme.from_name(w.scheme), X0, w.h, GOLDEN_STEPS)
        assert r.complete
        out[name] = [[[c.lo.hex(), c.hi.hex()] for c in box] for box in r.boxes]
    return out


def test_reach_golden_boxes(perfbench):
    """The first steps of every workload give, bit for bit, the boxes
    recorded in reach_golden.json.  A change that claims identical
    enclosures is held to it here; one that moves them on purpose
    re-records the file with python tests/test_perfbench.py
    --write-golden and says so."""
    assert golden_boxes(perfbench) == json.loads(GOLDEN.read_text())


def write_golden(perfbench):
    GOLDEN.write_text(json.dumps(golden_boxes(perfbench), indent=1) + "\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=f"Re-record {GOLDEN.name} from the library in src.")
    ap.add_argument("--write-golden", action="store_true", required=True)
    ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    write_golden(load_perfbench())
    print(f"wrote {GOLDEN}")
