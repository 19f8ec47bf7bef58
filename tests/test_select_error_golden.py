"""Golden answers of select_error on a grid of scheme kinds, input
structures, step sizes and forced orders.

The answers in select_error_golden.json were recorded from the per-order
implementation that the formula table replaced; every (order, value) must
stay bit-identical and every rejection must keep its exception type.  The
94 cells that force an ErrorOrder whose formula does not cover the scheme
(such as O3-additive for the zero scheme) were re-recorded as
InapplicableError: the recorded implementation returned that formula's
value, which does not bound the scheme's surrogate error.  The 13 cells of
the two-state-dependent system at h = 0.01 whose answer is an O1 or
O2-constant value were re-recorded when the growth factor's argument Lam*h
came to be rounded upward: each moved down by one ulp, and each still lies
above its exact formula value.
"""
import json
from pathlib import Path

from direach.interval import Box
from direach.inputs import InputScheme, SchemeKind
from direach.localerr import ErrorOrder, select_error
from direach.symexpr import InputAffineSystem, compute_bounds

GOLDEN = Path(__file__).with_name("select_error_golden.json")

BOX = Box.from_bounds([(0.5, 1.5), (-0.5, 0.5)])
SYSTEMS = {
    "additive": InputAffineSystem(2, ["x2", "-x1 - 0.2*x2"], [["0", "1"]], [0.1]),
    "one-state-dependent": InputAffineSystem(2, ["x2", "(1 - x1^2)*x2 - x1"], [["0", "x1"]], [0.05]),
    "two-state-dependent": InputAffineSystem(
        2, ["x2", "-x1 + 0.5*sin(x2)"], [["0.2*x1^2", "1"], ["0", "x1*x2"]], [0.05, 0.1]
    ),
}
# small enough for every formula; past the h*(L/2 + L') < 1 hypotheses of
# some; past h*L < 2 as well
STEPS = (0.01, 0.35, 1.5)
# 4 is no order: a ValueError
FORCED = (None, 1, 2, 3, 4) + tuple(ErrorOrder)

CASES = {
    f"{name}|{kind.value}|{h!r}|{getattr(forced, 'value', forced)}": (name, kind, h, forced)
    for name in SYSTEMS
    for kind in SchemeKind
    for h in STEPS
    for forced in FORCED
}


def answer(name, kind, h, forced):
    """[order, value] or ["raises", exception type name]."""
    sys = SYSTEMS[name]
    try:
        order, value = select_error(sys, InputScheme(kind), compute_bounds(sys, BOX), h, forced=forced)
    except Exception as exc:  # the exception type is part of the answer
        return ["raises", type(exc).__name__]
    return [order.value, value]


def test_golden_covers_grid():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    answers = {tuple(v[:1]) if v[0] != "raises" else tuple(v) for v in golden.values()}
    # every order and both rejection types occur on the grid
    assert {(o.value,) for o in ErrorOrder} <= answers
    assert {("raises", "InapplicableError"), ("raises", "ValueError")} <= answers


def test_select_error_golden():
    golden = json.loads(GOLDEN.read_text())
    got = {key: answer(*args) for key, args in CASES.items()}
    assert {k: (v, golden[k]) for k, v in got.items() if v != golden[k]} == {}
