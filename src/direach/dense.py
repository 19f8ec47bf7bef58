"""Dense numpy kernels for the polynomial models of polymodel.

A layout holds one slot per monomial of degree <= cap in arity variables
(arity <= 15, so that packed keys fit an int64), ordered by degree, and is
built on first use and cached per (arity, cap).  A kernel scatters a term
dict into a slot vector, works on whole vectors, and gathers the nonzero
slots back into a dict in slot order, so its result does not depend on the
order in which the terms were inserted.  Three operations have a kernel:

- the truncated product, over the layout's kept-pair table I, J -> K;
- the antiderivative in one variable, over a table per position: each
  slot's divisor e + 1 (e its exponent of that variable), the slot of its
  antiderivative term (none for a slot of degree cap, whose term drops),
  and the slot of its value at -1, the key with that nibble cleared, with
  the sign (-1)**e;
- substitute_unit, the value at +-1 of one variable, over the same
  cleared-nibble table.

Each result slot k sums n_k contributions, where n_k counts the slots of
the table that land on k, in bincount's fixed order.  Whatever the order,
the rounding error of such a sum is at most gamma_{n_k} times the sum of
the magnitudes it adds (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, sec. 3.1), so each contribution c is charged
n_k * |c| * _EPS of slack.  An antiderivative coefficient, a rounded
product and quotient, also charges its own 2 * |c| * _EPS, as the dict loop
does.  polymodel bounds the slack and the dropped mass with _grown, which
adds one _TINY per rounded product or quotient.

A kernel returns None when a term lies above the cap or a result is not
finite; polymodel then runs its dict loop, which also serves the models
too sparse for their layout (the choice is made from sizes alone).
"""
from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .interval import _EPS

__all__: list[str] = []


class _DenseLayout:
    """The slots of one (arity, cap), each with its packed key and degree;
    the kept-pair table I, J -> K of the product (slot I times slot J lands
    on slot K) with weight, n_K * _EPS per pair, where n_k counts the pairs
    that land on slot k; and the per-position tables, built on first use."""

    __slots__ = ("cap", "size", "keys", "slot_of", "packed", "degree", "I", "J", "K", "weight", "_tables")

    def __init__(self, arity: int, cap: int):
        monomials = [(0, 0)]  # (key, degree)
        for v in range(arity):
            one = 1 << (4 * v)
            monomials = [(k + e * one, d + e) for k, d in monomials for e in range(cap + 1 - d)]
        monomials.sort(key=lambda m: (m[1], m[0]))
        keys = [k for k, _ in monomials]
        self.cap = cap
        self.size = len(keys)
        self.keys = keys
        self.slot_of = slot_of = {k: i for i, k in enumerate(keys)}
        self.degree = np.array([d for _, d in monomials], dtype=np.intp)
        self.packed = np.array(keys, dtype=np.int64)
        # slot i pairs with the slots of degree <= cap - degree[i]: a prefix
        row = np.searchsorted(self.degree, cap - self.degree, side="right")
        self.I = np.repeat(np.arange(self.size), row)
        self.J = np.arange(len(self.I)) - np.repeat(np.cumsum(row) - row, row)
        self.K = np.array([slot_of[k] for k in (self.packed[self.I] + self.packed[self.J]).tolist()], dtype=np.intp)
        self.weight = np.bincount(self.K, minlength=self.size)[self.K] * _EPS
        self._tables: dict[int, _PositionTable] = {}

    def vector(self, terms: dict[int, float]) -> np.ndarray | None:
        """The coefficients of terms by slot, or None when a term lies above
        the cap."""
        n = len(terms)
        try:
            # itemgetter of two or more keys returns a tuple
            slots = itemgetter(*terms)(self.slot_of) if n > 1 else [self.slot_of[k] for k in terms]
        except KeyError:
            return None
        v = np.zeros(self.size)
        v[np.fromiter(slots, np.intp, n)] = np.fromiter(terms.values(), float, n)
        return v

    def terms(self, v: np.ndarray) -> dict[int, float]:
        """The nonzero slots of v as a term dict, in slot order."""
        return {k: c for k, c in zip(self.keys, v.tolist()) if c}

    def table(self, position: int) -> "_PositionTable":
        t = self._tables.get(position)
        if t is None:
            t = self._tables[position] = _PositionTable(self, position)
        return t


class _PositionTable:
    """What the antiderivative and substitute_unit in the variable at one
    position need, per slot with exponent e of that variable: div = e + 1;
    base, the slot of the key with that nibble cleared, and sign =
    (-1)**e; the slack weights n * _EPS of a contribution to a sum of n
    (n counts the slots with this slot's base) and (n + 2) * _EPS of an
    antiderivative coefficient, whose product and quotient also round; and
    up, the slot of the key plus one in that variable, for the slots below
    degree cap (a prefix, ordered by degree)."""

    __slots__ = ("div", "base", "sign", "sum_weight", "quotient_weight", "up")

    def __init__(self, layout: _DenseLayout, position: int):
        shift = 4 * position
        e = (layout.packed >> shift) & 0xF
        self.div = (e + 1).astype(float)
        self.sign = np.where(e & 1, -1.0, 1.0)
        slot_of = layout.slot_of
        self.base = np.array([slot_of[k] for k in (layout.packed & ~(0xF << shift)).tolist()], dtype=np.intp)
        n = np.bincount(self.base, minlength=layout.size)[self.base]
        self.sum_weight = n * _EPS
        self.quotient_weight = (n + 2) * _EPS
        top = int(np.searchsorted(layout.degree, layout.cap))
        self.up = np.array([slot_of[k] for k in (layout.packed[:top] + (1 << shift)).tolist()], dtype=np.intp)


_LAYOUTS: dict[tuple[int, int], _DenseLayout] = {}


def _layout(arity: int, cap: int) -> _DenseLayout:
    layout = _LAYOUTS.get((arity, cap))
    if layout is None:
        layout = _LAYOUTS[arity, cap] = _DenseLayout(arity, cap)
    return layout


def _dense_product(a: dict[int, float], b: dict[int, float], layout: _DenseLayout) -> tuple | None:
    """The truncated product of the term dicts a and b over a dense layout,
    as polymodel._pair_product returns it: (terms, dropped mass, products
    behind it, slack, products behind it); or None when an operand has a
    term above the cap or the arithmetic overflows (the pair loop then does
    what it does on overflow).

    Slot k sums n_k products in bincount's fixed order; for any order its
    rounding error is at most gamma_{n_k} times the sum of their
    magnitudes, which the slack n_k * |p| * _EPS per product p covers.  The
    dropped mass pairs the left operand's magnitudes by degree with suffix
    sums of the right operand's.  A square (b is a) scatters its operand
    once."""
    va = layout.vector(a)
    if va is None:
        return None
    vb = va if b is a else layout.vector(b)
    if vb is None:
        return None
    cap = layout.cap
    with np.errstate(over="ignore", invalid="ignore"):
        p = va[layout.I] * vb[layout.J]
        out = np.bincount(layout.K, p, layout.size)
        if not np.isfinite(out).all():
            return None
        np.abs(p, out=p)
        p *= layout.weight
        slack = float(p.sum())
        mass_a = np.bincount(layout.degree, np.abs(va), cap + 1).tolist()
        mass_b = mass_a if vb is va else np.bincount(layout.degree, np.abs(vb), cap + 1).tolist()
    # left terms of degree cap + 1 - d drop the right terms of degree >= d
    above = dropped = 0.0
    for d in range(cap, 0, -1):
        above += mass_b[d]
        dropped += mass_a[cap + 1 - d] * above
    if not math.isfinite(dropped):
        return None
    # cap products make up the dropped mass, len(p) the slack
    return layout.terms(out), dropped, cap, slack, len(p)


def _dense_antiderivative(terms: dict[int, float], layout: _DenseLayout, position: int, radius: float) -> tuple | None:
    """The antiderivative of the term dict in the variable at position, of
    radius radius, as polymodel._antiderivative_loop returns it: (terms,
    dropped mass, slack); or None when a term lies above the cap or a
    result is not finite.

    Each coefficient c * radius / (e + 1) is rounded as in the dict loop
    and charged 2 * |c| * _EPS for its product and quotient, plus
    n * |c| * _EPS for the n contributions that its value at -1 is summed
    with.  The antiderivative terms land on distinct slots, with that
    variable's exponent >= 1, where no value at -1 lands; those of the
    slots of degree cap drop."""
    v = layout.vector(terms)
    if v is None:
        return None
    t = layout.table(position)
    top = len(t.up)
    with np.errstate(over="ignore", invalid="ignore"):
        v *= radius
        v /= t.div
        out = np.bincount(t.base, v * t.sign, layout.size)
        out[t.up] = v[:top]
        if not np.isfinite(out).all():
            return None
        np.abs(v, out=v)
        dropped = float(v[top:].sum())
        v *= t.quotient_weight
        slack = float(v.sum())
    if not math.isfinite(dropped):
        return None
    return layout.terms(out), dropped, slack


def _dense_substitute_unit(terms: dict[int, float], layout: _DenseLayout, position: int, value: float) -> tuple | None:
    """The term dict at z_position = value, value in {-1.0, 1.0}, with keys
    that keep the cleared nibble, as polymodel._substitute_unit_loop
    returns it: (terms, slack); or None when a term lies above the cap or
    a sum is not finite.  The sign flips are exact, so each contribution c
    is charged only n * |c| * _EPS for the n contributions of its sum."""
    v = layout.vector(terms)
    if v is None:
        return None
    t = layout.table(position)
    with np.errstate(over="ignore", invalid="ignore"):
        if value < 0.0:
            v *= t.sign
        out = np.bincount(t.base, v, layout.size)
        if not np.isfinite(out).all():
            return None
        np.abs(v, out=v)
        v *= t.sum_weight
        slack = float(v.sum())
    return layout.terms(out), slack
