from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_minimize
from timtin import exactlp
from timtin.model import InvariantViolation
from timtin.tim import fractional_coloring


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


@given(covering_families())
@settings(max_examples=150, deadline=None)
def test_minimize_matches_generic_simplex(family):
    # same pivot path as the generic two-phase simplex on c = b = 1, so
    # the same vertex: equal value and every weight equal
    sets, members = family
    rows = [[Fraction(int(v in s)) for s in sets] for v in members]
    expected = reference_minimize([Fraction(1)] * len(sets), rows, [Fraction(1)] * len(members))
    got = exactlp.minimize(sets, members)
    assert got == expected
    assert all(type(w) is Fraction for w in [got[0], *got[1]])


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
