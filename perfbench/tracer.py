"""Per-layer tracing by wrapping the library's public functions.

Each wrapper counts entries and accumulates self time: the wrapper's
inclusive time minus the inclusive time of wrapped calls made inside it.
A name is patched where its caller looks it up: ``flow`` binds
``compose_expr`` and ``realize_w`` at import time, so those are patched in
``flow`` as well as in their home modules.  ``symexpr.eval_interval``
recurses through its module global; only the outermost call is counted and
timed, the inner ones pass straight through.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # work counts and error sums
        self._stack = [0.0]  # inclusive time of wrapped children, per open frame
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name, fn, after=None, outermost_only=False, fails=()):
        """Timed, counted fn.  after(args, result) records work counts;
        fails are exception types counted as `<name>.failed` and re-raised."""
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        busy = [False]
        if fails:
            counts[f"{name}.failed"] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except fails:
                counts[f"{name}.failed"] += 1
                raise
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                stack[-1] += dt
                busy[0] = False
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owners, attr, name, after=None, outermost_only=False, fails=()):
        wrapper = self._wrap(name, getattr(owners[0], attr), after, outermost_only, fails)
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return wrapper

    def install(self):
        lib = self.lib
        PM = lib.polymodel.PolynomialModel
        Iv = lib.interval.Interval
        counts = self.counts

        def mul_after(args, out):
            a, b = args
            counts["polymodel.mul.pairs"] += len(a.terms) * len(b.terms)
            counts["polymodel.terms_max"] = max(counts["polymodel.terms_max"], len(a.terms), len(b.terms), len(out.terms))
            counts["polymodel.arity_max"] = max(counts["polymodel.arity_max"], a.arity)

        def sweep_after(args, out):
            counts["polymodel.sweep.err_added"] += out.error - args[0].error

        def select_after(args, out):
            order, err = out
            counts[f"localerr.order.{order.value}"] += 1
            counts["localerr.select_error.err_added"] += err * args[0].n

        def picard_after(args, out):
            X = args[1]
            counts["flow.picard_flow.err_added"] += sum(y.error - x.error for y, x in zip(out, X))

        self._patch([PM], "__mul__", "polymodel.mul", mul_after)
        self._patch([PM], "__add__", "polymodel.add")
        self._patch([PM], "antiderivative", "polymodel.antiderivative")
        self._patch([PM], "range", "polymodel.range")
        self._patch([PM], "sweep", "polymodel.sweep", sweep_after)
        self._patch([lib.polymodel, lib.flow], "compose_expr", "polymodel.compose_expr")
        mul = self._patch([Iv], "__mul__", "interval.mul")
        # Interval defines __rmul__ = __mul__; both count as interval.mul
        self._patches.append((Iv, "__rmul__", Iv.__dict__["__rmul__"]))
        Iv.__rmul__ = mul
        self._patch([lib.symexpr], "eval_interval", "symexpr.eval_interval", outermost_only=True)
        self._patch([lib.symexpr.InputAffineSystem], "rhs_interval", "symexpr.rhs_interval")
        self._patch([lib.symexpr], "compute_bounds", "symexpr.compute_bounds")
        self._patch([lib.localerr], "select_error", "localerr.select_error", select_after)
        self._patch([lib.inputs, lib.flow], "realize_w", "inputs.realize_w")
        cert = lib.flow.CertificationError
        self._patch([lib.flow], "apriori_bound", "flow.apriori_bound", fails=cert)
        self._patch([lib.flow], "picard_flow", "flow.picard_flow", picard_after, fails=cert)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
