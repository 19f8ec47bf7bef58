"""Reach benchmark of direach.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones: set-up time, reach time, per-step time quantiles, final
enclosure width, step attempts per step and peak memory.  Times are
scaled to a reference CPU speed (see perfbench/calibrate.py); the raw wall
time of the reach is printed on the line before the result.  With --trace 1 a
run times one untraced and one traced reach and reports per-layer self
times and work counts (see perfbench/METRICS.md).

Every run is checked: the driver must pass the analytic self-check, repeated
reaches must give bit-identical boxes, and no Monte-Carlo oracle point may
lie outside the step box at any grid time.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

import calibrate
import reach
import selfcheck
from tracer import Tracer
from workloads import WORKLOADS

SPEC = Path("BENCHMARK.json")
SRC = Path("src")
MODULES = ("interval", "symexpr", "polymodel", "inputs", "localerr", "flow", "mc")
SETUP_REPEATS = 25
MIN_REACHES = 2


def load_library():
    """Import direach afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "direach" or m.startswith("direach.")]:
        del sys.modules[name]
    importlib.import_module("direach")
    return types.SimpleNamespace(**{m: importlib.import_module(f"direach.{m}") for m in MODULES})


def setup(w, seed):
    """(library, system, initial model) from a fresh import."""
    lib = load_library()
    system = lib.symexpr.InputAffineSystem(w.dim, w.drift, w.inputs, w.magnitudes)
    return lib, system, reach.initial_model(lib, w.initial_bounds(seed), w.cap)


def oracle_outside(lib, system, w, seed, boxes) -> int:
    """Oracle trajectory points outside the step box, over all grid times."""
    initial = lib.interval.Box.from_bounds(w.initial_bounds(seed))
    o = w.oracle
    _, pts = lib.mc.sample_trajectories(
        system, initial, w.h * w.steps, w.steps, o.n_traj, seed, o.refine, o.substeps
    )
    lo = np.array([[c.lo for c in b] for b in boxes])
    hi = np.array([[c.hi for c in b] for b in boxes])
    k = len(boxes)
    return int(((pts[:, :k] < lo) | (pts[:, :k] > hi)).sum())


def same_boxes(a, b) -> bool:
    return len(a.boxes) == len(b.boxes) and all(x == y for x, y in zip(a.boxes, b.boxes))


def end_to_end(w, seed, seconds, lib, system, X0):
    scheme = lib.inputs.InputScheme.from_name(w.scheme)
    runs = []
    deterministic = True
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        r = reach.run_reach(lib, system, scheme, X0, w.h, w.steps)
        if runs:
            # compared, then dropped, so memory does not grow with the repeats
            deterministic = deterministic and same_boxes(runs[0], r)
            r.boxes.clear()
        runs.append(r)
        now = time.perf_counter()
        if not r.complete or (len(runs) >= MIN_REACHES and now - start + (now - t) > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = runs[0]
    notes = {
        "reaches": len(runs),
        "deterministic": deterministic,
        "wall_reach_s": statistics.median(r.wall_s for r in runs),
    }
    complete = all(r.complete for r in runs)
    if complete:
        notes["oracle_outside"] = oracle_outside(lib, system, w, seed, first.boxes)
    # each step's time is its lower median over the repeated reaches
    step_s = [statistics.median_low(ts) for ts in zip(*(r.step_s for r in runs))]
    metrics = {
        "reach_s": sum(step_s),
        "step_ms_p50": 1000.0 * statistics.median(step_s),
        "step_ms_p90": 1000.0 * statistics.quantiles(step_s, n=10)[-1],
        "final_width": first.final_width,
        "attempts_per_step": first.stats.attempts / w.steps,
        "peak_rss_mb": peak_rss_mb,
    }
    notes["fail_frac"] = first.stats.failed_total / first.stats.attempts
    return runs, metrics, notes


def per_layer(w, seed, lib, system, X0):
    scheme = lib.inputs.InputScheme.from_name(w.scheme)
    plain = reach.run_reach(lib, system, scheme, X0, w.h, w.steps)
    with Tracer(lib) as tr:
        traced = reach.run_reach(lib, system, scheme, X0, w.h, w.steps)
    notes = {"deterministic": same_boxes(plain, traced)}
    metrics = {f"localerr.order.{order.value}": 0 for order in lib.localerr.ErrorOrder}
    if plain.complete and traced.complete:
        outside, oracle_s, _ = calibrate.ScaledClock().call(oracle_outside, lib, system, w, seed, traced.boxes)
        notes["oracle_outside"] = outside
        metrics["mc.sample_trajectories.s"] = oracle_s
        metrics["mc.oracle_outside"] = outside
    # self times are wall times; scale them as the traced reach was scaled
    scale = traced.reach_s / traced.wall_s
    for name in tr.calls:
        metrics[f"{name}.calls"] = tr.calls[name]
        metrics[f"{name}.self_s"] = tr.self_s[name] * scale
    metrics.update(tr.counts)
    stats = traced.stats
    metrics["reach.attempts"] = stats.attempts
    metrics["reach.fail_frac"] = stats.failed_total / stats.attempts
    metrics["trace.reach_s"] = traced.reach_s
    metrics["trace.overhead_frac"] = traced.reach_s / plain.reach_s - 1.0
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "direach" / "__init__.py").is_file():
        print(f"no library at {SRC}/direach; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    w = WORKLOADS[args.workload]

    try:
        clock = calibrate.ScaledClock()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            (lib, system, X0), scaled, _ = clock.call(setup, w, args.seed)
            setup_s.append(scaled)
        problems = selfcheck.check(lib)
        if args.trace:
            runs, metrics, notes = per_layer(w, args.seed, lib, system, X0)
        else:
            runs, metrics, notes = end_to_end(w, args.seed, args.seconds, lib, system, X0)
            metrics["setup_s"] = statistics.median(setup_s)
    except Exception:  # a fault in the library: report the run as failed
        traceback.print_exc()
        problems, runs, metrics, notes = ["the library raised"], [], {}, {}
    failed = sum(not r.complete for r in runs)
    if failed:
        problems.append("a step ran out of retries")
    if runs and not notes["deterministic"]:
        problems.append("repeated reaches gave different boxes")
    if notes.get("oracle_outside"):
        problems.append(f"{notes['oracle_outside']} oracle points lie outside the step boxes")
    problems += [f"{m['name']} not measured" for m in declared if runs and not failed and m["name"] not in metrics]
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print(f"# {w.name} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in notes.items()))
    correct = not problems
    out = {m["name"]: {"value": metrics.get(m["name"]) if correct else None, "unit": m["unit"]} for m in declared}
    attempted = max(1, sum(len(r.step_s) for r in runs))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
