"""Reference norms of a square interval matrix, given as rows of Intervals:
the definitions that the bounds plan's norms (symexpr._norms) are held to,
bit for bit.  Each sum is taken upward, entry by entry in column order,
the order the plan sums in."""
from direach.interval import IntervalDomainError, _add_up


def _finite(rows):
    if any(not entry.is_finite for row in rows for entry in row):
        raise IntervalDomainError("matrix norm requires finite entries")
    return rows


def row_abs_sums(rows) -> list[float]:
    """Upper bound of each row's abs sum over all point matrices in rows."""
    sums = []
    for row in _finite(rows):
        s = 0.0
        for entry in row:
            s = _add_up(s, entry.mag)
        sums.append(s)
    return sums


def mat_inf_norm(rows) -> float:
    """Upper bound of the max-row-abs-sum norm over all point matrices in rows."""
    return max(row_abs_sums(rows))


def lognorm_inf(rows) -> float:
    """Upper bound of the logarithmic norm max_k(q_kk + sum_{i!=k}|q_ki|);
    may be negative.  It sums in mat_inf_norm's order, so that
    lognorm_inf(M) <= mat_inf_norm(M) holds exactly in floating point."""
    best = -float("inf")
    for k, row in enumerate(_finite(rows)):
        s = 0.0
        for i, entry in enumerate(row):
            s = _add_up(s, entry.hi if i == k else entry.mag)
        best = max(best, s)
    return best
