import random
from dataclasses import fields
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complement_cliques,
    linprog_fractional_chromatic,
    rank_of,
    reference_maximal_independent_sets,
)
from timtin import tim
from timtin.evaluator import user_gdof
from timtin.fixtures import BASELINE_TIM_LINKS, IMPROVED_TIM_LINKS
from timtin.model import BudgetOutOfRange, ChannelMatrix, Scheme, Stream
from timtin.tim import COLORING_LP_LIMIT, TimTopology, build_graphs, fractional_coloring, tim_solve


def binary_channel(topo: TimTopology) -> ChannelMatrix:
    alpha = [
        [Fraction(1) if k == i or (k, i) in topo.links else Fraction(0) for i in range(topo.K)]
        for k in range(topo.K)
    ]
    return ChannelMatrix(topo.K, tuple(tuple(row) for row in alpha))


def realization(topo: TimTopology):
    sol = tim_solve(topo)
    streams = tuple(
        Stream(u, vec, 0) for u in range(topo.K) for vec in sol.directions[u]
    )
    return sol, Scheme(sol.n, streams)


def random_topology(rng: random.Random, K: int, prob=0.3) -> TimTopology:
    links = frozenset(
        (k, i) for k in range(K) for i in range(K) if k != i and rng.random() < prob
    )
    return TimTopology(K, links)


def random_component(rng: random.Random, m: int, *, connected=False):
    """``m`` members drawn from a larger index range, and an adjacency over
    that range whose edges also reach non-members; with ``connected`` a
    random spanning tree joins the members."""
    K = m + rng.randint(0, 3)
    members = sorted(rng.sample(range(K), m))
    adj = [set() for _ in range(K)]

    def join(u, v):
        adj[u].add(v)
        adj[v].add(u)

    if connected:
        for i in range(1, m):
            join(members[i], members[rng.randrange(i)])
    p = rng.choice([0.1, 0.25, 0.5, 0.75])
    for u in range(K):
        for v in range(u + 1, K):
            if rng.random() < p:
                join(u, v)
    return members, adj


def symmetric_topology(K: int, edges) -> TimTopology:
    """Each conflict edge as links in both directions."""
    return TimTopology(K, frozenset(e for u, v in edges for e in ((u, v), (v, u))))


@pytest.mark.parametrize("links", [{(0.5, 1.9)}, {(True, 2)}, {(0, 2.0)}, {(0, 1, 2)}])
def test_topology_rejects_non_int_indices(links):
    # such links used to be truncated: {(0.5, 1.9)} became {(0, 1)}
    with pytest.raises(ValueError):
        TimTopology(3, links)


def test_topology_keeps_int_links():
    topo = TimTopology(3, {(0, 1), (2, 1)})
    assert topo.links == frozenset({(0, 1), (2, 1)}) and isinstance(topo.links, frozenset)


def test_build_graphs_reference_component():
    alignment, conflict = build_graphs(TimTopology(5, BASELINE_TIM_LINKS))
    assert alignment == frozenset({(1, 4)})
    assert conflict == frozenset({(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)})


def test_build_graphs_reference_component_with_moved_link():
    alignment, conflict = build_graphs(TimTopology(5, IMPROVED_TIM_LINKS))
    assert alignment == frozenset({(0, 2), (1, 4)})
    assert conflict == frozenset({(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)})


def test_build_graphs_empty():
    alignment, conflict = build_graphs(TimTopology(3, frozenset()))
    assert alignment == frozenset() and conflict == frozenset()


def test_build_graphs_fully_connected():
    K = 4
    topo = TimTopology(K, frozenset((k, i) for k in range(K) for i in range(K) if k != i))
    alignment, conflict = build_graphs(topo)
    complete = frozenset((i, j) for i in range(K) for j in range(i + 1, K))
    assert alignment == complete and conflict == complete


def test_reference_component_half_rate():
    sol, scheme = realization(TimTopology(5, BASELINE_TIM_LINKS))
    assert sol.fractions == (Fraction(1, 2),) * 5
    assert sol.method == "half_rate" and sol.n == 2
    # aligned pair shares one direction; four distinct directions overall
    assert sol.directions[1] == sol.directions[4]
    assert len({d[0] for d in sol.directions}) == 4
    for k in range(5):
        assert user_gdof(scheme, binary_channel(TimTopology(5, BASELINE_TIM_LINKS)), k).gdof == Fraction(1, 2)


def test_reference_component_with_moved_link_still_half_rate():
    sol, _ = realization(TimTopology(5, IMPROVED_TIM_LINKS))
    assert sol.fractions == (Fraction(1, 2),) * 5
    assert sol.method == "half_rate" and sol.n == 2
    assert sol.directions[0] == sol.directions[2]
    assert sol.directions[1] == sol.directions[4]
    assert len({d[0] for d in sol.directions}) == 3


def test_fully_connected_three_users_colors():
    topo = TimTopology(3, frozenset((k, i) for k in range(3) for i in range(3) if k != i))
    sol, scheme = realization(topo)
    assert sol.fractions == (Fraction(1, 3),) * 3
    assert sol.method == "coloring"
    for k in range(3):
        assert user_gdof(scheme, binary_channel(topo), k).gdof >= Fraction(1, 3)


def test_no_links_full_rate():
    sol, _ = realization(TimTopology(3, frozenset()))
    assert sol.fractions == (1, 1, 1)
    assert sol.method == "full" and sol.n == 1


def test_isolated_user_next_to_half_rate_pair():
    topo = TimTopology(3, frozenset({(1, 0)}))
    sol, scheme = realization(topo)
    assert sol.fractions == (Fraction(1, 2), Fraction(1, 2), 1)
    assert sol.n == 2 and len(sol.directions[2]) == 2
    cm = binary_channel(topo)
    assert [user_gdof(scheme, cm, k).gdof for k in range(3)] == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1),
    ]


def test_exact_lp_colors_large_complete_component():
    K = 13
    topo = TimTopology(K, frozenset((k, i) for k in range(K) for i in range(K) if k != i))
    sol, _ = realization(topo)
    assert sol.method == "coloring"
    assert sol.fractions == (Fraction(1, 13),) * K


@pytest.mark.parametrize(
    "K, distances, fraction",
    [
        (13, [1], Fraction(6, 13)),  # odd cycle: chi_f = 13/6, 3 colors
        (15, [1], Fraction(7, 15)),  # odd cycle: chi_f = 15/7, 3 colors
        (14, [3, 4, 5, 6, 7], Fraction(3, 14)),  # circular clique K_{14/3}: 5 colors
        (16, [5, 6, 7, 8], Fraction(5, 16)),  # circular clique K_{16/5}: 4 colors
    ],
)
def test_sparse_large_components_get_exact_fraction(K, distances, fraction):
    """Sparse 13-16 user components get 1/chi_f from the exact LP, more
    than the 1/colors of any integral coloring."""
    topo = symmetric_topology(K, {(u, (u + d) % K) for u in range(K) for d in distances})
    sol = tim_solve(topo)
    assert sol.method == "coloring"
    assert sol.fractions == (fraction,) * K


def test_component_beyond_coloring_limit_is_refused(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("independent sets enumerated for an oversized component")

    monkeypatch.setattr(tim, "_maximal_independent_sets", no_enumeration)
    K = COLORING_LP_LIMIT + 1
    topo = TimTopology(K, frozenset((k, i) for k in range(K) for i in range(K) if k != i))
    with pytest.raises(BudgetOutOfRange):
        tim_solve(topo)


def test_half_rate_component_beyond_coloring_limit_is_solved():
    """The limit bounds only components that need coloring."""
    K = COLORING_LP_LIMIT + 4
    sol = tim_solve(TimTopology(K, frozenset((k, k - 1) for k in range(1, K))))
    assert sol.method == "half_rate" and sol.fractions == (Fraction(1, 2),) * K


def circulant_components(*sizes: int, K: int | None = None) -> TimTopology:
    """Disjoint conflict components C_m(1, 2), one per size m: receiver k
    of a component hears its transmitters k + 1 and k + 2 (mod m).  Users
    beyond the components, up to K, hear nothing."""
    links, base = set(), 0
    for m in sizes:
        links |= {(base + k, base + (k + d) % m) for k in range(m) for d in (1, 2)}
        base += m
    return TimTopology(base if K is None else K, links)


@pytest.mark.parametrize(
    "topo, n, entries",
    [(circulant_components(11, 13), 143, 143_143), (circulant_components(5, 7, K=13), 35, 4_900)],
)
def test_direction_entries_are_counted_exactly(monkeypatch, topo, n, entries):
    """The count checked against MAX_DIRECTION_ENTRIES is the number of
    coordinates built, n^2 for a user that hears nothing (user 12 here)."""
    sol = tim_solve(topo)
    assert sol.n == n and sum(len(vec) for dirs in sol.directions for vec in dirs) == entries
    assert entries <= tim.MAX_DIRECTION_ENTRIES
    monkeypatch.setattr(tim, "MAX_DIRECTION_ENTRIES", entries - 1)
    with pytest.raises(BudgetOutOfRange, match=f"a {n}-use block needs {entries} direction entries"):
        tim_solve(topo)


@pytest.mark.parametrize("sizes, n", [((5, 7, 11), 385), ((5, 7, 11, 13), 5005)])
def test_block_beyond_the_direction_budget_is_refused(sizes, n):
    """889,350 and 2.5e8 coordinates: refused before any is built."""
    with pytest.raises(BudgetOutOfRange, match=f"a {n}-use block needs"):
        tim_solve(circulant_components(*sizes))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_independent_sets_match_reference_scan(seed):
    """Up to 12 members, Bron-Kerbosch returns the 2^m scan's list, order
    included: the order is the exact LP's column order."""
    rng = random.Random(seed)
    members, adj = random_component(rng, rng.randint(1, 12))
    assert tim._maximal_independent_sets(members, adj) == reference_maximal_independent_sets(
        members, adj
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_independent_sets_match_networkx_beyond_twelve(seed):
    rng = random.Random(seed)
    members, adj = random_component(rng, rng.randint(13, 16))
    sets = tim._maximal_independent_sets(members, adj)
    assert set(sets) == complement_cliques(members, adj) and len(set(sets)) == len(sets)
    position = {v: i for i, v in enumerate(members)}
    masks = [sum(1 << position[v] for v in s) for s in sets]
    assert masks == sorted(masks)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_chi_f_matches_linprog_on_connected_large_components(seed):
    rng = random.Random(seed)
    members, adj = random_component(rng, rng.randint(13, COLORING_LP_LIMIT), connected=True)
    chi_f, slots = fractional_coloring(members, adj)
    assert abs(float(chi_f) - linprog_fractional_chromatic(members, adj)) <= 1e-9
    assert {v for s, _ in slots for v in s} == set(members)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_assignment_soundness(seed):
    rng = random.Random(seed)
    K = rng.randint(2, 6)
    topo = random_topology(rng, K)
    sol = tim_solve(topo)
    _, conflict = build_graphs(topo)
    for u, v in conflict:
        for du in sol.directions[u]:
            for dv in sol.directions[v]:
                assert rank_of([du, dv]) == 2
    if sol.method == "half_rate":
        alignment, _ = build_graphs(topo)
        for i, j in alignment:
            assert sol.directions[i] == sol.directions[j]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_fractions_certified_by_evaluator(seed):
    rng = random.Random(seed)
    K = rng.randint(2, 5)
    topo = random_topology(rng, K, prob=0.4)
    sol, scheme = realization(topo)
    cm = binary_channel(topo)
    _, conflict = build_graphs(topo)
    involved = {u for e in conflict for u in e}
    for k in range(K):
        achieved = user_gdof(scheme, cm, k).gdof
        if sol.method == "half_rate":
            assert achieved == (Fraction(1, 2) if k in involved else 1)
        else:
            assert achieved >= sol.fractions[k]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_adding_a_link_never_helps(seed):
    rng = random.Random(seed)
    K = rng.randint(2, 6)
    topo = random_topology(rng, K)
    missing = [
        (k, i)
        for k in range(K)
        for i in range(K)
        if k != i and (k, i) not in topo.links
    ]
    if not missing:
        return
    extra = rng.choice(missing)
    before = tim_solve(topo).fractions
    after = tim_solve(TimTopology(K, topo.links | {extra})).fractions
    assert all(b <= a for b, a in zip(after, before))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_solution_memo_matches_memo_less_solve(seed):
    """With one coloring memo shared across many topologies, tim_solve
    returns, field by field, what it returns without one, also under
    another K, and solving them again colors nothing: every coloring
    comes from the memo."""
    rng = random.Random(seed)
    memo, solved = {}, []
    for _ in range(24):
        K = rng.randint(1, 6)
        topo = random_topology(rng, K, prob=rng.choice([0.2, 0.4]))
        shared, alone = tim_solve(topo, memo), tim_solve(topo)
        for field in fields(shared):
            assert getattr(shared, field.name) == getattr(alone, field.name), field.name
        wider = tim_solve(TimTopology(K + 1, topo.links), memo)
        assert wider == tim_solve(TimTopology(K + 1, topo.links)) and len(wider.fractions) == K + 1
        solved.append((topo, shared))
    with patch.object(tim, "fractional_coloring", side_effect=AssertionError("colored again")):
        for topo, shared in solved:
            assert tim_solve(topo, memo) == shared
