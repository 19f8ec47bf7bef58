"""Dense numpy kernels for the polynomial models of polymodel.

A layout holds one slot per monomial of degree <= cap in arity variables
(arity <= 15, so that packed keys fit an int64), ordered by degree, and is
built on first use and cached per (arity, cap).  A model that comes out of
a kernel carries its slot vector, a read-only float64 array over the layout
of its (arity, cap), as its only store, and keeps it through every
operation; reading its terms builds a dict from the nonzero slots, in slot
order, each time.  A dict model is scattered into a slot vector when it
meets a vector model, or when a product is large enough to pay for the
scatter.  polymodel's constructor admits only finite coefficients on
monomials of degree <= cap, so every term has a slot and no kernel
declines its operands.

The kernels, each on whole vectors:

- the truncated product, over the layout's kept-pair table I, J -> K
  (built on first use);
- the shift product by a dict model of at most two monomials, such as a
  surrogate input: each monomial scales the prefix of slots of degree
  <= cap - its degree onto the slots of their keys plus its key, over a
  shift table per key (built on first use);
- the antiderivative in one variable, over a table per position: each
  slot's divisor e + 1 (e its exponent of that variable), the slot of its
  antiderivative term (none for a slot of degree cap, whose term drops),
  and the slot of its value at -1, the key with that nibble cleared, with
  the sign (-1)**e;
- substitute_unit, the value at +-1 of one variable, over the same
  cleared-nibble table;
- sums, differences, negation, scaling, adding a constant and the Taylor
  series sum, slot by slot: each slot takes the IEEE operation that the
  dict loop applies to its key, in the same order, so the coefficients
  are bit-identical to the dict loop's;
- range, over the slots with an odd exponent and the nonconstant
  all-even ones;
- extend, a scatter into the layout of more variables, and reindex and
  sweep to a list of kept variables, a gather from the layout of fewer;
  neither changes a coefficient.

In the product, antiderivative and substitute_unit each result slot k sums
n_k contributions, where n_k counts the slots of the table that land on k,
in bincount's fixed order.  Whatever the order, the rounding error of such
a sum is at most gamma_{n_k} times the sum of the magnitudes it adds
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1),
so each contribution c is charged n_k * |c| * _EPS of slack.  The shift
product charges the dict loop's slack instead: |p| * _EPS for each
rounded product p and |v| * _EPS for each merge v of two products.  Its
dropped mass, the sum over the monomials c_e of |c_e| times the mass of
the slots above cap - deg(e), is summed as the product over the pair
table sums it with the monomials as its left operand.  With at most two
contributions per slot, its float form is bit-identical to the pair
table's, whose other contributions are zeros: two numbers add to the
same float in either order.  An antiderivative coefficient, a rounded
product and quotient, also charges its own 2 * |c| * _EPS, as the dict
loop does.  The slot-by-slot kernels charge what the dict loops charge:
|v| * _EPS for each rounded product v, and for each merge, a slot where
both operands are nonzero.  polymodel bounds the slack and the dropped
mass with _grown, which adds one _TINY per rounded product or quotient;
each slack is a plain-float sum, and that bound holds in any summation
order.

The _float_* kernels serve polymodel's float domain: the same truncated
product and antiderivative with no slack, no dropped-mass bound and no
overflow check, and the powers of a vector without its constant slot.

Overflow: a result slot that overflows is charged an infinite slack, so
the result's error is infinite and polymodel raises when it builds the
model.  Only a bincount sum can overflow while each of its contributions,
and so its slack, stays finite; the product, antiderivative and
substitute_unit check their sums and raise
IntervalDomainError("model arithmetic overflowed") themselves.
"""
from __future__ import annotations

from operator import itemgetter

import numpy as np

from .interval import IntervalDomainError, _EPS

__all__: list[str] = []


class _DenseLayout:
    """The slots of one (arity, cap), each with its packed key and degree;
    each slot's kind for range, 0 for the constant, 1 with an odd
    exponent, 2 for the other (all-even) slots, which even marks with 1;
    and, built on first use, the kept-pair table of the product, the
    shift table per key, the per-position tables and the scatter and
    gather maps to the layouts of other arities."""

    __slots__ = (
        "arity", "cap", "size", "keys", "slot_of", "packed", "degree", "kind", "even",
        "_pairs", "_shifts", "_tables", "_scatters", "_gathers",
    )

    def __init__(self, arity: int, cap: int):
        monomials = [(0, 0)]  # (key, degree)
        for v in range(arity):
            one = 1 << (4 * v)
            monomials = [(k + e * one, d + e) for k, d in monomials for e in range(cap + 1 - d)]
        monomials.sort(key=lambda m: (m[1], m[0]))
        keys = [k for k, _ in monomials]
        self.arity = arity
        self.cap = cap
        self.size = len(keys)
        self.keys = keys
        self.slot_of = {k: i for i, k in enumerate(keys)}
        self.degree = np.array([d for _, d in monomials], dtype=np.intp)
        self.packed = np.array(keys, dtype=np.int64)
        # the low bit of every nibble: a key with any odd exponent meets it
        odd = (self.packed & (int("1" * arity, 16) if arity else 0)) != 0
        self.even = (~odd).astype(np.intp)
        self.even[0] = 0  # slot 0 is the constant
        self.kind = odd + 2 * self.even
        self._pairs = None
        self._shifts: dict[int, np.ndarray] = {}
        self._tables: dict[int, _PositionTable] = {}
        self._scatters: dict[int, np.ndarray] = {}
        self._gathers: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def pairs(self) -> tuple:
        """The product's kept-pair table I, J -> K (slot I times slot J
        lands on slot K) with weight, n_K * _EPS per pair, where n_k counts
        the pairs that land on slot k."""
        if self._pairs is None:
            # slot i pairs with the slots of degree <= cap - degree[i]: a prefix
            row = np.searchsorted(self.degree, self.cap - self.degree, side="right")
            I = np.repeat(np.arange(self.size), row)
            J = np.arange(len(I)) - np.repeat(np.cumsum(row) - row, row)
            slot_of = self.slot_of
            K = np.array([slot_of[k] for k in (self.packed[I] + self.packed[J]).tolist()], dtype=np.intp)
            self._pairs = I, J, K, np.bincount(K, minlength=self.size)[K] * _EPS
        return self._pairs

    def shift(self, key: int) -> np.ndarray:
        """For the slots of degree <= cap - degree(key), a prefix as long
        as the table, the slot of their key plus key."""
        t = self._shifts.get(key)
        if t is None:
            top = int(np.searchsorted(self.degree, self.cap - self.degree[self.slot_of[key]], side="right"))
            slot_of = self.slot_of
            t = self._shifts[key] = np.array([slot_of[k] for k in (self.packed[:top] + key).tolist()], dtype=np.intp)
        return t

    def vector(self, terms: dict[int, float]) -> np.ndarray:
        """The coefficients of terms, monomials of this layout, by slot."""
        n = len(terms)
        # itemgetter of two or more keys returns a tuple
        slots = itemgetter(*terms)(self.slot_of) if n > 1 else [self.slot_of[k] for k in terms]
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

    def scatter(self, arity: int) -> np.ndarray:
        """The slot of each of this layout's keys in the layout of (arity,
        cap), arity >= this layout's."""
        m = self._scatters.get(arity)
        if m is None:
            slot_of = _layout(arity, self.cap).slot_of
            m = self._scatters[arity] = np.array([slot_of[k] for k in self.keys], dtype=np.intp)
        return m

    def gather(self, keep: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(take, dropped) for keeping the variables at the distinct
        positions keep, in that order: take[j] is the slot of this layout
        that holds the monomial of slot j of the layout of (len(keep), cap),
        and dropped lists the slots with an exponent of a variable not
        kept."""
        m = self._gathers.get(keep)
        if m is None:
            target = _layout(len(keep), self.cap)
            old = np.zeros(target.size, dtype=np.int64)
            for new, position in enumerate(keep):
                old |= ((target.packed >> (4 * new)) & 0xF) << (4 * position)
            slot_of = self.slot_of
            take = np.array([slot_of[k] for k in old.tolist()], dtype=np.intp)
            mask = sum(0xF << (4 * i) for i in range(self.arity) if i not in keep)
            m = self._gathers[keep] = take, np.flatnonzero(self.packed & mask)
        return m


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


def _check_finite(v: np.ndarray) -> None:
    """Raise when a bincount sum of v overflowed."""
    if not np.isfinite(v).all():
        raise IntervalDomainError("model arithmetic overflowed")


def _count(v: np.ndarray) -> int:
    """The terms of v, its nonzero slots."""
    return int(np.count_nonzero(v))


def _magnitude(v: np.ndarray) -> float:
    """The plain-float sum of the slot magnitudes, infinite when it
    overflows."""
    with np.errstate(over="ignore"):
        return float(np.abs(v).sum())


def _constant(v: np.ndarray) -> float | None:
    """The constant slot of v when no other slot is nonzero, else None."""
    return None if v[1:].any() else float(v[0])


def _merge_slack(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """The sum of |out| over the slots where a and b are both nonzero, the
    merges of the dict loop that rounds out = a +- b key by key.  Only a
    merge of finite slots can overflow, so the sum is infinite when out
    is (or when it overflows itself)."""
    return float(np.abs(out[np.logical_and(a, b)]).sum())


def _dense_add(a: np.ndarray, b: np.ndarray, sign: float) -> tuple:
    """a + b for sign 1.0, a - b for sign -1.0, as polymodel's __add__ and
    __sub__ loops round them: (vector, slack)."""
    with np.errstate(over="ignore"):
        out = a + b if sign > 0.0 else a - b
        return out, _merge_slack(out, a, b) * _EPS


def _dense_add_scalar(v: np.ndarray, value: float) -> tuple:
    """v with value added to its constant slot: (vector, that sum)."""
    s = float(v[0]) + value
    out = v.copy()
    out[0] = s
    return out, s


def _dense_scale(v: np.ndarray, s: float) -> tuple:
    """v times the float s: (vector, slack, products behind it)."""
    with np.errstate(over="ignore"):
        out = v * s
    return out, _magnitude(out) * _EPS, _count(v)


def _dense_range(v: np.ndarray, layout: _DenseLayout) -> tuple:
    """What polymodel's range adds up, from the slots: (the constant, the
    plain-float sums of the magnitudes of the terms with an odd exponent,
    of the positive and of the negative all-even nonconstant terms, the
    number of nonconstant terms).  The slots' kinds, plus one for a
    negative all-even slot, sort the magnitudes into the four sums."""
    c0 = float(v[0])
    _, odd, pos, neg = np.bincount(layout.kind + (v < 0.0) * layout.even, np.abs(v), 4).tolist()
    return c0, odd, pos, neg, _count(v) - (c0 != 0.0)


def _dense_product(a: np.ndarray, b: np.ndarray, layout: _DenseLayout) -> tuple:
    """The truncated product of the slot vectors a and b, as
    polymodel._pair_product returns it but with a vector: (vector, dropped
    mass, products behind it, slack, products behind it).

    Slot k sums n_k products in bincount's fixed order; for any order its
    rounding error is at most gamma_{n_k} times the sum of their
    magnitudes, which the slack n_k * |p| * _EPS per product p covers.  The
    dropped mass pairs the left operand's magnitudes by degree with suffix
    sums of the right operand's.  A square (b is a) takes its magnitudes
    once."""
    I, J, K, weight = layout.pairs()
    cap = layout.cap
    with np.errstate(over="ignore"):
        p = a[I] * b[J]
        out = np.bincount(K, p, layout.size)
        _check_finite(out)
        np.abs(p, out=p)
        p *= weight
        slack = float(p.sum())
        mass_a = _masses(a, layout)
        mass_b = mass_a if b is a else _masses(b, layout)
    # cap products make up the dropped mass, len(p) the slack
    return out, _dropped(mass_a, mass_b, cap), cap, slack, len(p)


def _masses(v: np.ndarray, layout: _DenseLayout) -> list[float]:
    """The plain-float sums of v's slot magnitudes by degree."""
    return np.bincount(layout.degree, np.abs(v), layout.cap + 1).tolist()


def _dropped(mass_a: list[float], mass_b: list[float], cap: int) -> float:
    """The dropped mass of a truncated product from its operands' masses
    by degree: left terms of degree cap + 1 - d drop the right terms of
    degree >= d, whose mass is a suffix sum."""
    above = dropped = 0.0
    for d in range(cap, 0, -1):
        above += mass_b[d]
        dropped += mass_a[cap + 1 - d] * above
    return dropped


def _dense_shift_product(v: np.ndarray, monomials, layout: _DenseLayout) -> tuple:
    """The truncated product of the slot vector v and the (key,
    coefficient) pairs monomials, at most two, as _dense_product returns
    it: (vector, dropped mass, products behind it, slack, products behind
    it).  Each product p is charged |p| * _EPS and each merge v of two
    products |v| * _EPS, as in the dict loop.  The dropped mass, each
    |c_e| times the mass of v's slots above cap - deg(e), is summed as
    _dense_product sums it with the monomials as its left operand."""
    cap = layout.cap
    out = np.zeros(layout.size)
    mass_w = [0.0] * (cap + 1)
    slack = 0.0
    n_products = 0
    with np.errstate(over="ignore"):
        for key, c in monomials:
            to = layout.shift(key)
            p = v[: len(to)] * c
            if n_products:
                prev = out[to]
                merged = prev + p
                slack += _merge_slack(merged, prev, p)
                out[to] = merged
            else:
                out[to] = p
            slack += float(np.abs(p).sum())
            n_products += len(to)
            mass_w[layout.degree[layout.slot_of[key]]] += abs(c)
        _check_finite(out)
        dropped = _dropped(mass_w, _masses(v, layout), cap)
    return out, dropped, cap, slack * _EPS, n_products


def _dense_antiderivative(v: np.ndarray, layout: _DenseLayout, position: int, radius: float) -> tuple:
    """The antiderivative of the slot vector v in the variable at position,
    of radius radius, as polymodel._antiderivative_loop returns it but with
    a vector: (vector, dropped mass, slack).

    Each coefficient c * radius / (e + 1) is rounded as in the dict loop
    and charged 2 * |c| * _EPS for its product and quotient, plus
    n * |c| * _EPS for the n contributions that its value at -1 is summed
    with.  The antiderivative terms land on distinct slots, with that
    variable's exponent >= 1, where no value at -1 lands; those of the
    slots of degree cap drop."""
    t = layout.table(position)
    top = len(t.up)
    with np.errstate(over="ignore"):
        out, w = _antiderivative_terms(v, t, radius, layout.size)
        _check_finite(out)
        np.abs(w, out=w)
        dropped = float(w[top:].sum())
        w *= t.quotient_weight
        slack = float(w.sum())
    return out, dropped, slack


def _antiderivative_terms(v: np.ndarray, t: _PositionTable, radius: float, size: int) -> tuple:
    """(the antiderivative of v through t, the coefficients c * radius /
    (e + 1) behind it); those of the slots of degree cap drop."""
    w = v * radius
    w /= t.div
    out = np.bincount(t.base, w * t.sign, size)
    out[t.up] = w[: len(t.up)]
    return out, w


def _dense_substitute_unit(v: np.ndarray, layout: _DenseLayout, position: int, value: float) -> tuple:
    """The slot vector v at z_position = value, value in {-1.0, 1.0}, with
    keys that keep the cleared nibble, as polymodel._substitute_unit_loop
    returns it but with a vector: (vector, slack).  The sign flips are
    exact, so each contribution c is charged only n * |c| * _EPS for the n
    contributions of its sum."""
    t = layout.table(position)
    w = v * t.sign if value < 0.0 else v
    out = np.bincount(t.base, w, layout.size)
    _check_finite(out)
    return out, float((np.abs(w) * t.sum_weight).sum())


def _dense_series_sum(mids: list[float], vectors: list[np.ndarray], layout: _DenseLayout) -> tuple:
    """sum_k mids[k] * vectors[k], accumulated in that order as
    polymodel._series_sum's dict loop does: (vector, slack, products
    behind it).  An overflowed product or merge makes the slack
    infinite."""
    out = np.zeros(layout.size)
    slack = 0.0
    products = 0
    with np.errstate(over="ignore"):
        for m, v in zip(mids, vectors):
            p = v * m
            merged = out + p
            slack += float(np.abs(p).sum()) + _merge_slack(merged, out, p)
            products += _count(v)
            out = merged
    return out, slack * _EPS, products


def _dense_extend(v: np.ndarray, layout: _DenseLayout, arity: int) -> np.ndarray:
    """v in the layout of (arity, cap), arity >= the layout's: the new
    variables' slots are zero."""
    out = np.zeros(_layout(arity, layout.cap).size)
    out[layout.scatter(arity)] = v
    return out


def _dense_reindex(v: np.ndarray, layout: _DenseLayout, keep: tuple[int, ...]) -> np.ndarray:
    """v in the layout of the variables at the positions keep; raises
    ValueError when v depends on a variable that is not kept."""
    take, dropped = layout.gather(keep)
    if v[dropped].any():
        raise ValueError("cannot drop a variable the model still depends on")
    return v[take]


def _dense_sweep(v: np.ndarray, layout: _DenseLayout, keep: tuple[int, ...]) -> tuple:
    """v without the terms of the variables not in keep, gathered into the
    layout of the kept ones: (vector, plain-float sum of the magnitudes of
    the swept terms, their number)."""
    take, dropped = layout.gather(keep)
    swept = np.abs(v[dropped])
    with np.errstate(over="ignore"):
        return v[take], float(swept.sum()), _count(swept)


# The float domain's kernels: bare arithmetic on slot vectors, with no slack,
# no dropped-mass bound and no overflow check (inf and NaN propagate).


def _finite(v: np.ndarray) -> bool:
    return bool(np.isfinite(v).all())


def _float_product(a: np.ndarray, b: np.ndarray, layout: _DenseLayout) -> np.ndarray:
    """The truncated product of a and b over the layout's kept-pair table."""
    I, J, K, _ = layout.pairs()
    return np.bincount(K, a[I] * b[J], layout.size)


def _float_shift_product(v: np.ndarray, monomials, layout: _DenseLayout) -> np.ndarray:
    """The truncated product of v and the (key, coefficient) pairs
    monomials, at most two, bit for bit _float_product's for finite
    operands."""
    out = np.zeros(layout.size)
    for key, c in monomials:
        to = layout.shift(key)
        out[to] += v[: len(to)] * c
    return out


def _float_antiderivative(v: np.ndarray, layout: _DenseLayout, position: int, radius: float) -> tuple:
    """The antiderivative of v in the variable at position, of radius
    radius: (vector, the plain-float magnitude sum of the terms that drop
    at degree cap)."""
    t = layout.table(position)
    out, w = _antiderivative_terms(v, t, radius, layout.size)
    return out, float(np.abs(w[len(t.up):]).sum())


def _float_powers(v: np.ndarray, layout: _DenseLayout) -> np.ndarray:
    """The rows delta^0 .. delta^cap of delta, v without its constant slot."""
    rows = np.zeros((layout.cap + 1, layout.size))
    rows[0, 0] = 1.0
    if layout.cap:
        rows[1] = v
        rows[1, 0] = 0.0
    for k in range(2, layout.cap + 1):
        rows[k] = _float_product(rows[k - 1], rows[1], layout)
    return rows
