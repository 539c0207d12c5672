"""Tiny exact simplex for fractional set cover: the least total weight on a
family of sets that covers every member at least once,
min 1.x s.t. A x >= 1, x >= 0 with A the 0/1 member-by-set incidence.
Two-phase tableau under Bland's rule, so it terminates at a basic optimum
with exact rational coordinates; sized for fractional coloring over
maximal independent sets.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): every entry is
an integer over one common denominator d, the determinant of the current
basis.  Pivoting on entry p maps every other row, the objective
included, to (p*x - f*y) // d, where f is that row's entry in the pivot
column and y the pivot row; by Sylvester's identity the division is
exact.  The pivot row stays as it is and the new denominator is p.
Bland's entering rule and the ratio test read signs and cross-multiplied
ratios, so the pivot path, and with it the vertex, is the one a Fraction
tableau takes.  Fractions are built only for the returned value and
weights.

d stays positive: it starts at 1, and the ratio test pivots only on a
positive entry.  No pivot is needed to drive artificials out of the
basis after phase 1, because none is left there.  Let u be the sum of
the inverse-basis rows of the rows where an artificial is basic, the
phase-1 dual.  At the phase-1 optimum each surplus column has reduced
cost u_i >= 0, so u >= 0, and each set column has -u.A_j >= 0, so with
A >= 0 u is 0 on every member of every set.  Phase 1 reached 0, so every
member lies in some set, and u = 0.  But a basic artificial has reduced
cost 1 - u_i = 0 on its own unit column, so u would be 1 at its member.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Sequence

from .model import InvariantViolation

ZERO = Fraction(0)


def _pivot(rows: list[list[int]], obj: list[int], basis: list[int], d: int, r: int, c: int) -> int:
    """Pivot on rows[r][c] of a tableau over denominator d; return the new one."""
    p, pivot_row = rows[r][c], rows[r]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
    f = obj[c]
    obj[:] = [(p * x - f * y) // d for x, y in zip(obj, pivot_row)]
    basis[r] = c
    return p


def _run(rows: list[list[int]], obj: list[int], basis: list[int], d: int, allowed) -> int:
    """Bland's rule to optimality from denominator d > 0; return the final one."""
    while True:
        entering = next((j for j in allowed if obj[j] < 0), None)
        if entering is None:
            return d
        best = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if best is None:
                    best = i
                    continue
                # rhs / a against the best row's ratio, both columns positive
                b = rows[best]
                lhs, rhs = row[-1] * b[entering], b[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:  # the cover's objective is bounded below by 0
            raise InvariantViolation(f"covering program unbounded in column {entering}")
        d = _pivot(rows, obj, basis, d, best, entering)


def minimize(sets: Sequence[Collection], members: Sequence):
    """Return (optimal value, x): x[j] weighs sets[j], and every member
    lies in sets of total weight at least 1."""
    n, m = len(sets), len(members)
    # columns: x (n) | surplus (m) | rhs.  Row i starts on an artificial that
    # never enters, so it has no column, only a label above every real column.
    rows = [[int(v in s) for s in sets] + [0] * m + [1] for v in members]
    for i, row in enumerate(rows):
        row[n + i] = -1
    basis = [n + m + i for i in range(m)]

    # phase 1: minimize the artificial sum, priced out: negated column sums
    obj = [-sum(row[j] for row in rows) for j in range(n + m + 1)]
    d = _run(rows, obj, basis, 1, range(n + m))
    if obj[-1]:
        raise InvariantViolation("a member lies in none of the sets")

    # phase 2: unit cost on each set, priced out over the basic x columns;
    # a basic column holds d in its row, so pricing one out subtracts the row
    obj = [d] * n + [0] * (m + 1)
    for i, row in enumerate(rows):
        if basis[i] < n:
            obj = [x - y for x, y in zip(obj, row)]
    d = _run(rows, obj, basis, d, range(n + m))

    x = {bi: Fraction(rows[i][-1], d) for i, bi in enumerate(basis) if bi < n}
    return Fraction(-obj[-1], d), [x.get(j, ZERO) for j in range(n)]
