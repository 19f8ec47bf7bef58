"""Golden answers of select_error on a grid of scheme kinds, input
structures and step sizes, and of each formula row of the table on every
scheme that it covers.

The answers in select_error_golden.json were recorded from the per-order
implementation that the formula table replaced; every (order, value) must
stay bit-identical and every rejection must keep its exception type.  The
13 cells of the two-state-dependent system at h = 0.01 whose answer is an
O1 or O2-constant value were re-recorded when the growth factor's argument
Lam*h came to be rounded upward: each moved down by one ulp, and each still
lies above its exact formula value.  The 5 automatic constant-scheme cells
that the deleted O2-constant-C2 bound answered were re-recorded with the
larger O2-constant bound, because the per-step theorem check
(test_theorem.py) measured true step errors up to 19.5 times above the
deleted one.

The grid once also held the answers of select_error's forced argument, one
cell per forced order 1, 2, 3, 4 and per ErrorOrder.  When that argument
was deleted, 315 of the 495 cells went: those of forced 1/2/3/4, those of
O2-constant-C2 (no formula), and those of an ErrorOrder whose row does not
cover the scheme.  The 180 cells left (45 automatic, 135 per row) kept their
keys and their answers; a per-row cell is now that row's bound called
directly, which is what forcing its ErrorOrder computed.
"""
import json
from pathlib import Path

import pytest

from direach import localerr
from direach.interval import Box
from direach.inputs import InputScheme, SchemeKind
from direach.localerr import _FORMULAS, ErrorOrder, select_error
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

# row None is select_error's automatic choice
CASES = {
    f"{name}|{kind.value}|{h!r}|{row.order.value if row else None}": (name, kind, h, row)
    for name in SYSTEMS
    for kind in SchemeKind
    for h in STEPS
    for row in (None, *_FORMULAS)
    if row is None or kind in row.kinds
}


def answer(name, kind, h, row):
    """[order, value] or ["raises", exception type name]."""
    sys = SYSTEMS[name]
    scheme, b = InputScheme(kind), compute_bounds(sys, BOX)
    try:
        if row is None:
            order, value = select_error(sys, scheme, b, h)
        else:
            order, value = row.order, row.bound(sys, scheme, b, h, None)
    except Exception as exc:  # the exception type is part of the answer
        return ["raises", type(exc).__name__]
    return [order.value, value]


def test_golden_covers_grid():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    answers = {tuple(v[:1]) if v[0] != "raises" else tuple(v) for v in golden.values()}
    # every order that a formula serves, and rejection, occur on the grid
    assert {(f.order.value,) for f in _FORMULAS} <= answers
    assert ("raises", "InapplicableError") in answers


@pytest.mark.parametrize("name", ["additive", "one-state-dependent"])
def test_affine_row_is_skipped_under_constant_input_fields(monkeypatch, name):
    """select_error evaluates no O2-affine bound where the O3-additive row
    supersedes it (constant input fields), and one per call otherwise, on
    every scheme that the affine row covers."""
    calls = []
    counted = localerr.err_o2_affine
    monkeypatch.setattr(localerr, "err_o2_affine", lambda *args: calls.append(args) or counted(*args))
    (affine,) = [row for row in _FORMULAS if row.order is ErrorOrder.O2_AFFINE]
    sys = SYSTEMS[name]
    b = compute_bounds(sys, BOX)
    for kind in SchemeKind:
        for h in STEPS:
            calls.clear()
            select_error(sys, InputScheme(kind), b, h)
            assert len(calls) == (name != "additive" and kind in affine.kinds), (kind, h)


def test_select_error_golden():
    golden = json.loads(GOLDEN.read_text())
    got = {key: answer(*args) for key, args in CASES.items()}
    assert {k: (v, golden[k]) for k, v in got.items() if v != golden[k]} == {}
