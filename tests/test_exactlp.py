from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_minimize
from timtin import exactlp
from timtin.model import InvariantViolation
from timtin.tim import _maximal_independent_sets, fractional_coloring


def adjacency_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def test_fractional_vertex():
    # cover 3 members by the 3 pairs -> optimum 3/2 at (1/2, 1/2, 1/2)
    pairs = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    value, x = exactlp.minimize(pairs, [0, 1, 2])
    assert value == Fraction(3, 2)
    assert x == [Fraction(1, 2)] * 3


def test_uncovered_member_is_an_invariant_violation():
    with pytest.raises(InvariantViolation):
        exactlp.minimize([frozenset({0})], [0, 1])


@st.composite
def covering_families(draw):
    m = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=14))
    covered = reduce(or_, masks)
    masks += [1 << i for i in range(m) if not covered >> i & 1]  # cover every member
    return [frozenset(i for i in range(m) if mask >> i & 1) for mask in masks], list(range(m))


@st.composite
def independent_set_families(draw):
    """The coloring LP as tim builds it: the maximal independent sets of a
    random graph on K <= 12 members, in Bron-Kerbosch order."""
    K = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(K) for v in range(u + 1, K)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = adjacency_from_edges(K, [e for e, keep in zip(pairs, present) if keep])
    return _maximal_independent_sets(list(range(K)), adj), list(range(K))


LP_INPUTS = st.one_of(covering_families(), independent_set_families())


@given(LP_INPUTS)
@settings(max_examples=300, deadline=None)
def test_minimize_matches_generic_simplex(family):
    # same pivot path as the generic two-phase Fraction simplex on c = b = 1,
    # so the same vertex: equal value and every weight equal, all Fractions
    sets, members = family
    rows = [[Fraction(int(v in s)) for s in sets] for v in members]
    expected = reference_minimize([Fraction(1)] * len(sets), rows, [Fraction(1)] * len(members))
    got = exactlp.minimize(sets, members)
    assert got == expected
    assert all(type(w) is Fraction for w in [got[0], *got[1]])


def checked_pivot(log):
    """A copy of exactlp._pivot that checks every division for a zero
    remainder and logs each pivot entry with the denominator it divides by."""

    def pivot(rows, obj, basis, d, r, c):
        p, pivot_row = rows[r][c], rows[r]
        log.append((p, d))
        for target in [*(row for i, row in enumerate(rows) if i != r), obj]:
            f = target[c]
            quotients = [divmod(p * x - f * y, d) for x, y in zip(target, pivot_row)]
            assert all(rem == 0 for _, rem in quotients), f"inexact pivot on {p} over {d}"
            target[:] = [q for q, _ in quotients]
        basis[r] = c
        return p

    return pivot


@given(LP_INPUTS)
@settings(max_examples=200, deadline=None)
def test_every_lp_pivot_divides_exactly(family):
    sets, members = family
    expected = exactlp.minimize(sets, members)
    log = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_pivot", checked_pivot(log))
        assert exactlp.minimize(sets, members) == expected
    assert all(d != 0 for _, d in log)


@st.composite
def duplicated_families(draw):
    """An LP input with some of its sets repeated, shuffled among the rest."""
    sets, members = draw(LP_INPUTS)
    copies = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=len(sets)))
    return draw(st.permutations(sets + copies)), members


@given(st.one_of(LP_INPUTS, duplicated_families()))
@settings(max_examples=300, deadline=None)
def test_no_artificial_stays_basic_and_the_denominator_stays_positive(family):
    """The module docstring's argument, checked: phase 1 ends with no
    artificial label (n + m and up) in the basis, so no pivot drives one
    out, and every denominator is positive."""
    sets, members = family
    n, m = len(sets), len(members)
    expected = exactlp.minimize(sets, members)
    run, pivot = exactlp._run, exactlp._pivot
    bases, denominators = [], [1]

    def recording_run(rows, obj, basis, d, allowed):
        d = run(rows, obj, basis, d, allowed)
        bases.append(list(basis))
        return d

    def recording_pivot(rows, obj, basis, d, r, c):
        denominators.append(pivot(rows, obj, basis, d, r, c))
        return denominators[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_run", recording_run)
        mp.setattr(exactlp, "_pivot", recording_pivot)
        assert exactlp.minimize(sets, members) == expected
    assert len(bases) == 2  # phase 1, then phase 2
    assert all(label < n + m for label in bases[0])
    assert all(d > 0 for d in denominators)


@st.composite
def pivot_sequences(draw):
    """An integer tableau over d = 1 on an identity basis, and pivot
    positions taken on any nonzero entry, of either sign: _pivot divides
    exactly whatever the sign, though minimize only pivots on positive
    entries."""
    m, width = draw(st.integers(1, 5)), draw(st.integers(2, 7))
    rows = draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=width, max_size=width), min_size=m, max_size=m
    ))
    picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, width - 1)), max_size=8))
    return rows, picks


NEGATIVE_PIVOT = ([[2, -3, 1], [1, 1, 4]], [(0, 1), (1, 0)])  # a negative pivot, then d < 0


@given(pivot_sequences())
@example(NEGATIVE_PIVOT)
@settings(max_examples=200, deadline=None)
def test_fraction_free_pivots_divide_exactly_and_track_the_fraction_tableau(sequence):
    is_negative_pivot_example = sequence == NEGATIVE_PIVOT
    rows, picks = [list(row) for row in sequence[0]], sequence[1]  # the pivots rewrite rows
    width = len(rows[0])
    exact = [[Fraction(x) for x in row] for row in rows]
    obj, exact_obj = list(range(width)), [Fraction(j) for j in range(width)]
    basis, d, log = [-1] * len(rows), 1, []
    checked = checked_pivot(log)
    for r, c in picks:
        if rows[r][c] == 0:
            continue
        rows_copy, obj_copy = [list(row) for row in rows], list(obj)
        assert checked(rows_copy, obj_copy, list(basis), d, r, c) == rows[r][c]
        d = exactlp._pivot(rows, obj, basis, d, r, c)
        assert (rows, obj) == (rows_copy, obj_copy)
        # the same pivot on the Fraction tableau
        piv = exact[r][c]
        exact[r] = [x / piv for x in exact[r]]
        for i, row in enumerate(exact):
            if i != r:
                exact[i] = [x - row[c] * y for x, y in zip(row, exact[r])]
        exact_obj = [x - exact_obj[c] * y for x, y in zip(exact_obj, exact[r])]
        assert [[Fraction(x, d) for x in row] for row in rows] == exact
        assert [Fraction(x, d) for x in obj] == exact_obj
    if is_negative_pivot_example:
        assert [p for p, _ in log] == [-3, -5] and d == -5


def test_chromatic_five_cycle():
    adj = adjacency_from_edges(5, cycle_edges(5))
    chi_f, slots = fractional_coloring(list(range(5)), adj)
    assert chi_f == Fraction(5, 2)
    total = sum(count for _, count in slots)
    denom = total / chi_f
    cover = {v: 0 for v in range(5)}
    for s, count in slots:
        assert all((u, v) not in cycle_edges(5) for u in s for v in s)
        for v in s:
            cover[v] += count
    assert all(cover[v] >= denom for v in range(5))


def test_chromatic_complete_graph():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    adj = adjacency_from_edges(4, edges)
    chi_f, slots = fractional_coloring(list(range(4)), adj)
    assert chi_f == 4
    assert all(len(s) == 1 for s, _ in slots)


def test_chromatic_bipartite():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    adj = adjacency_from_edges(4, edges)
    chi_f, _ = fractional_coloring(list(range(4)), adj)
    assert chi_f == 2


def test_chromatic_seven_cycle():
    adj = adjacency_from_edges(7, cycle_edges(7))
    chi_f, _ = fractional_coloring(list(range(7)), adj)
    assert chi_f == Fraction(7, 3)


def test_chromatic_petersen():
    outer = cycle_edges(5)
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    adj = adjacency_from_edges(10, outer + spokes + inner)
    chi_f, _ = fractional_coloring(list(range(10)), adj)
    assert chi_f == Fraction(5, 2)
