"""Tiny exact-rational simplex for fractional set cover: the least total
weight on a family of sets that covers every member at least once,
min 1.x s.t. A x >= 1, x >= 0 with A the 0/1 member-by-set incidence.
Two-phase Fraction tableau under Bland's rule, so it terminates at a basic
optimum with exact rational coordinates; sized for fractional coloring
over maximal independent sets."""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Sequence

from .model import InvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int], r: int, c: int):
    piv = rows[r][c]
    rows[r] = [x / piv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [x - f * y for x, y in zip(row, rows[r])]
    if obj[c]:
        f = obj[c]
        obj[:] = [x - f * y for x, y in zip(obj, rows[r])]
    basis[r] = c


def _run(rows, obj, basis, allowed):
    while True:
        entering = next((j for j in allowed if obj[j] < 0), None)
        if entering is None:
            return
        best = None
        for i, row in enumerate(rows):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:  # the cover's objective is bounded below by 0
            raise InvariantViolation(f"covering program unbounded in column {entering}")
        _pivot(rows, obj, basis, best[1], entering)


def minimize(sets: Sequence[Collection], members: Sequence):
    """Return (optimal value, x): x[j] weighs sets[j], and every member
    lies in sets of total weight at least 1."""
    n, m = len(sets), len(members)
    # columns: x (n) | surplus (m) | rhs.  Row i starts on an artificial that
    # never enters, so it has no column, only a label above every real column.
    rows = [[ONE if v in s else ZERO for s in sets] + [ZERO] * m + [ONE] for v in members]
    for i, row in enumerate(rows):
        row[n + i] = -ONE
    basis = [n + m + i for i in range(m)]

    # phase 1: minimize the artificial sum, priced out: negated column sums
    obj = [-sum((row[j] for row in rows), ZERO) for j in range(n + m + 1)]
    _run(rows, obj, basis, range(n + m))
    if obj[-1]:
        raise InvariantViolation("a member lies in none of the sets")
    for i in range(m):  # drive leftover artificials out of the basis
        if basis[i] >= n + m:
            col = next((j for j in range(n + m) if rows[i][j] != 0), None)
            if col is not None:
                _pivot(rows, obj, basis, i, col)

    # phase 2: unit cost on each set, priced out over the basic x columns
    obj = [ONE] * n + [ZERO] * (m + 1)
    for i, row in enumerate(rows):
        if basis[i] < n and obj[basis[i]]:
            f = obj[basis[i]]
            obj = [x - f * y for x, y in zip(obj, row)]
    _run(rows, obj, basis, range(n + m))

    x = {bi: rows[i][-1] for i, bi in enumerate(basis) if bi < n}
    return -obj[-1], [x.get(j, ZERO) for j in range(n)]
