"""Independent oracles and random-instance generators for the test suite.

Everything here stays deliberately separate from the library's code paths:
brute-force enumeration, direct formulas, and grid search are the ground
truth the fast implementations are checked against.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from timtin.decomp import SearchBudget, SearchReport, candidate_masks
from timtin.model import (
    ChannelMatrix, DecompositionMap, InvariantViolation, NumericalFailure, Scheme, Stream,
    integer_row, to_fraction,
)
from timtin.tim import TimTopology, tim_solve
from timtin.tin import Edge, TinSolution


def rank_of(vectors) -> int:
    """Exact rank via plain Gaussian elimination over Fractions."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < n:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def max_weight_independent_sum(pairs) -> Fraction:
    """Brute-force maximum of sum(weights) over linearly independent subsets.

    Independent subsets have at most n vectors, so only subsets up to size
    n need checking.
    """
    if not pairs:
        return Fraction(0)
    n = len(pairs[0][0])
    best = Fraction(0)
    for size in range(1, min(n, len(pairs)) + 1):
        for subset in itertools.combinations(pairs, size):
            if rank_of([v for v, _ in subset]) == size:
                total = sum((w for _, w in subset), Fraction(0))
                if total > best:
                    best = total
    return best


def integer_pairs(pairs):
    """(vector, exponent) pairs with each vector as its integer_row, the
    form logdet_exponent takes."""
    return [(integer_row(vector), exponent) for vector, exponent in pairs]


def pairwise_region(alpha) -> list[tuple[tuple[int, ...], Fraction]]:
    """Rows (coefficients c, bound b), each meaning sum_k c[k] d_k <= b, that
    every achievable GDoF tuple d of the channel with strengths ``alpha``
    satisfies: per pair of users, the two-user deterministic region of
    Bresler and Tse (2008), achievable once a genie gives both receivers
    every other user's message.  With n_ij the strength from transmitter i
    at receiver j (alpha[j][i]), a pair (i, j) bounds d_i <= n_ii,
    d_i + d_j by (n_ii - n_ij)+ + max(n_jj, n_ij) (and swapped) and by
    max(n_ji, (n_ii - n_ij)+) + max(n_ij, (n_jj - n_ji)+), and 2 d_i + d_j
    by max(n_ii, n_ji) + (n_ii - n_ij)+ + max(n_ij, (n_jj - n_ji)+) (and
    swapped).  The max(n_jj, n_ij) keeps the region valid when a cross
    strength exceeds a direct one, where n_jj alone would cut off
    achievable tuples."""
    K = len(alpha)
    n = lambda i, j: Fraction(alpha[j][i])  # transmitter i at receiver j
    pos = lambda x: max(x, Fraction(0))

    def row(coefficients: dict, bound) -> tuple[tuple[int, ...], Fraction]:
        return tuple(coefficients.get(k, 0) for k in range(K)), bound

    rows = [row({i: 1}, n(i, i)) for i in range(K)]
    for i, j in itertools.permutations(range(K), 2):
        rows.append(row({i: 1, j: 1}, pos(n(i, i) - n(i, j)) + max(n(j, j), n(i, j))))
        rows.append(row({i: 2, j: 1}, max(n(i, i), n(j, i)) + pos(n(i, i) - n(i, j))
                        + max(n(i, j), pos(n(j, j) - n(j, i)))))
        if i < j:
            rows.append(row({i: 1, j: 1}, max(n(j, i), pos(n(i, i) - n(i, j)))
                            + max(n(i, j), pos(n(j, j) - n(j, i)))))
    return rows


def inside_region(rows, d) -> bool:
    """Whether the tuple d meets every row of a pairwise_region."""
    return all(sum(c * x for c, x in zip(coefficients, d)) <= bound for coefficients, bound in rows)


def single_stream_gdof(channel: ChannelMatrix, r) -> list[Fraction]:
    """Direct n=1 formula: one stream per user, interference as noise."""
    out = []
    for k in range(channel.K):
        heard = [
            channel.alpha[k][j] + r[j]
            for j in range(channel.K)
            if j != k and channel.alpha[k][j] > 0
        ]
        noise_level = max([Fraction(0), *heard])
        out.append(max(Fraction(0), channel.alpha[k][k] + r[k] - noise_level))
    return out


def grid_tin_feasible(channel: ChannelMatrix, targets, step=Fraction(1, 20), floor=Fraction(-2)):
    """Grid-search feasibility of a target tuple over r in {0, -step, ..., floor}.

    The sweep runs vectorized in floats (all quantities live on a coarse
    lattice, so a 1e-9 comparison slack is unambiguous); any feasible grid
    point it finds is re-verified exactly before being trusted.
    """
    K = channel.K
    levels = [floor + step * m for m in range(int((0 - floor) / step) + 1)]
    axis = np.array([float(v) for v in levels])
    alpha = np.array([[float(a) for a in row] for row in channel.alpha])
    t = np.array([float(x) for x in targets])

    grids = np.meshgrid(*[axis] * K, indexing="ij")
    feasible = np.ones(grids[0].shape, dtype=bool)
    for k in range(K):
        heard = [alpha[k, j] + grids[j] for j in range(K) if j != k and alpha[k, j] > 0]
        noise = np.maximum(0.0, np.maximum.reduce(heard)) if heard else 0.0
        feasible &= alpha[k, k] + grids[k] - noise >= t[k] - 1e-9
    hits = np.argwhere(feasible)
    if hits.size == 0:
        return False
    witness = [levels[idx] for idx in hits[0]]
    exact = single_stream_gdof(channel, witness)
    assert all(v >= d for v, d in zip(exact, targets)), "float sweep mis-accepted"
    return True


def symmetric_tin_optimum(channel: ChannelMatrix) -> Fraction:
    """Largest symmetric TIN target, by enumerating every simple cycle of
    the constraint graph.

    At target t an edge leaving a user node weighs (its cost - t) and an
    edge leaving the anchor weighs 0, so a cycle of cost c with m user-node
    edges stays nonnegative exactly while t <= c / m.  The optimum is the
    minimum ratio over all cycles, clamped to [0, smallest direct strength].
    """
    K = channel.K
    a = channel.alpha
    out: dict[int, list[tuple[int, Fraction, int]]] = {K: [(k, Fraction(0), 0) for k in range(K)]}
    for k in range(K):
        out[k] = [(K, a[k][k], 1)] + [
            (j, a[k][k] - a[k][j], 1) for j in range(K) if j != k and a[k][j] > 0
        ]
    ratios = []

    def walk(start, node, cost, count, visited):
        for nxt, c, m in out[node]:
            if nxt == start:
                ratios.append((cost + c) / (count + m))
            elif nxt > start and nxt not in visited:  # each cycle once, from its lowest node
                walk(start, nxt, cost + c, count + m, visited | {nxt})

    for start in range(K + 1):
        walk(start, start, Fraction(0), 0, {start})
    return min(max(Fraction(0), min(ratios)), min(a[k][k] for k in range(K)))


# --- reference TIN solver: the library's earlier Fraction implementation,
# kept verbatim (its single_level_gdof is single_stream_gdof above).  It
# takes the TIN sub-channel (cross links outside the TIN set zeroed) where
# the library takes the channel plus its TIN link set.


def tin_subchannel(channel: ChannelMatrix, links) -> ChannelMatrix:
    """The channel with every cross link outside ``links`` zeroed."""
    return ChannelMatrix(channel.K, tuple(
        tuple(a if k == i or (k, i) in links else Fraction(0) for i, a in enumerate(row))
        for k, row in enumerate(channel.alpha)
    ))


def _reference_edges(channel: ChannelMatrix, targets: Sequence[Fraction]) -> list[Edge]:
    K = channel.K
    edges: list[Edge] = [(K, k, Fraction(0)) for k in range(K)]  # r_k <= 0
    for k in range(K):
        if targets[k] <= 0:
            continue
        edges.append((k, K, channel.alpha[k][k] - targets[k]))  # r_k >= d_k - a_kk
        for j in range(K):
            if j != k and channel.alpha[k][j] > 0:
                # r_k - r_j >= d_k - a_kk + a_kj
                edges.append((k, j, channel.alpha[k][k] - channel.alpha[k][j] - targets[k]))
    return edges


def _reference_bellman_ford(n_nodes: int, edges: list[Edge], source: int):
    """Shortest paths from source; returns (dist, None) or (None, negative_cycle).

    Weights are scaled once by the lcm of their denominators so the
    relaxation runs on Python ints; relaxation order, and so the returned
    distances and cycle, are those of the rational weights.
    """
    scale = lcm(*(w.denominator for _, _, w in edges))
    scaled = [(u, v, w.numerator * (scale // w.denominator)) for u, v, w in edges]
    dist = [None] * n_nodes
    dist[source] = 0
    pred = [-1] * n_nodes
    trigger = -1
    for round_ in range(n_nodes):
        changed = False
        for idx, (u, v, w) in enumerate(scaled):
            du = dist[u]
            if du is not None and (dist[v] is None or du + w < dist[v]):
                dist[v] = du + w
                pred[v] = idx
                changed = True
                trigger = v
        if not changed:
            return [None if d is None else Fraction(d, scale) for d in dist], None
    # still relaxing after n_nodes rounds: walk predecessors into the cycle
    x = trigger
    for _ in range(n_nodes):
        x = edges[pred[x]][0]
    cycle = []
    y = x
    while True:
        edge = edges[pred[y]]
        cycle.append(edge)
        y = edge[0]
        if y == x:
            break
    cycle.reverse()
    return None, tuple(cycle)


def reference_tin_feasible(channel: ChannelMatrix, targets: Sequence) -> TinSolution:
    """Decide whether the target GDoF tuple is achievable by power control
    with interference treated as noise."""
    d = tuple(to_fraction(t) for t in targets)
    if len(d) != channel.K:
        raise ValueError(f"expected {channel.K} targets, got {len(d)}")
    if any(t < 0 for t in d):
        raise ValueError("targets must be nonnegative")
    dist, cycle = _reference_bellman_ford(channel.K + 1, _reference_edges(channel, d), channel.K)
    # a TinSolution holds its values over their least common denominator
    if cycle is not None:
        scale = lcm(*(w.denominator for _, _, w in cycle))
        return TinSolution(False, None, tuple((u, v, int(w * scale)) for u, v, w in cycle), scale)
    if dist[channel.K] != 0:
        raise InvariantViolation("TIN anchor potential moved without a negative cycle")
    scale = lcm(*(x.denominator for x in dist[: channel.K]))
    return TinSolution(True, tuple(int(x * scale) for x in dist[: channel.K]), None, scale)


def reference_tin_symmetric(channel: ChannelMatrix) -> tuple[Fraction, TinSolution]:
    """Maximal t such that the symmetric tuple (t, ..., t) is TIN-feasible.

    Dinkelbach iteration on the constraint graph: start at the smallest
    direct strength; while (t, ..., t) has a negative cycle, lower t to
    that cycle's cost-to-count ratio, clamped at 0.  The first feasible t
    is the exact optimum: the returned solution is feasible there, and the
    last cycle found (or, when the start is feasible, the direct-link
    cycle of the weakest user) has ratio at most t, so it is negative at
    every larger target.
    """
    t = min(channel.alpha[k][k] for k in range(channel.K))
    while True:
        sol = reference_tin_feasible(channel, [t] * channel.K)
        if sol.feasible:
            return t, sol
        # Edges leaving a user node weigh (constant - t); anchor edges weigh 0.
        count = sum(1 for u, _, _ in sol.negative_cycle if u != channel.K)
        total = sum((w for _, _, w in sol.negative_cycle), Fraction(0))
        t = max(Fraction(0), (total + count * t) / count)


# --- reference decomposition search: the library's earlier eager search,
# every value a Fraction and every map's result built in full.  Its TIN
# side is the reference solver above on the TIN sub-channel, and each
# user's GDoF comes from a greedy sweep with Fraction rank tests; only the
# TIM solver and the candidate masks are the library's own.


def greedy_exponent(pairs) -> Fraction:
    """Largest weight sum over linearly independent (vector, weight) pairs
    with weight >= 0: the matroid greedy, in descending weight order, with
    an exact rank test per pair."""
    kept, total = [], Fraction(0)
    for vector, weight in sorted(pairs, key=lambda p: p[1], reverse=True):
        if weight >= 0 and rank_of(kept + [vector]) > len(kept):
            kept.append(vector)
            total += weight
    return total


def reference_user_gdof(scheme: Scheme, channel: ChannelMatrix, k: int) -> Fraction:
    """User k's GDoF: the exponent with every stream heard minus the one
    with user k's own streams removed, over the block length."""
    pairs = [(s.vector, channel.alpha[k][s.user] + s.power_exp, s.user) for s in scheme.streams]
    combined = greedy_exponent([(v, e) for v, e, _ in pairs])
    interference = greedy_exponent([(v, e) for v, e, u in pairs if u != k])
    return (combined - interference) / scheme.n


class ReferenceResult(NamedTuple):
    """A map's result with every field built eagerly, under the library
    record's public field names (DecompositionResult.FIELDS)."""

    map: DecompositionMap
    tin_fractions: tuple
    tim_fractions: tuple
    products: tuple
    scheme: Scheme
    verified: tuple
    verdict: bool
    tim_method: str
    power_exponents: tuple


def reference_evaluate_map(channel: ChannelMatrix, tim_links) -> ReferenceResult:
    tim_links = frozenset(tim_links)
    tin_links = channel.link_set - tim_links
    sub = tin_subchannel(channel, tin_links)
    r = reference_tin_symmetric(sub)[1].r
    tin_fractions = tuple(single_stream_gdof(sub, r))
    tim_sol = tim_solve(TimTopology(channel.K, tim_links))
    products = tuple(a * b for a, b in zip(tin_fractions, tim_sol.fractions))
    scheme = Scheme(tim_sol.n, tuple(
        Stream(u, tuple(map(Fraction, vector)), r[u])
        for u in range(channel.K)
        for vector in tim_sol.directions[u]
    ))
    verified = tuple(reference_user_gdof(scheme, channel, k) for k in range(channel.K))
    return ReferenceResult(
        map=DecompositionMap(tim_links, tin_links),
        tin_fractions=tin_fractions,
        tim_fractions=tim_sol.fractions,
        products=products,
        scheme=scheme,
        verified=verified,
        verdict=all(v >= p for v, p in zip(verified, products)),
        tim_method=tim_sol.method,
        power_exponents=r,
    )


def reference_search(channel: ChannelMatrix, budget: SearchBudget) -> SearchReport:
    """Every candidate map evaluated in full; per verdict, the first result
    of each verified tuple in mask order; the frontier is the passed
    tuples that no other passed tuple dominates."""
    links = channel.cross_links()
    masks = candidate_masks(channel, budget)
    passed, failed = {}, {}
    for mask in masks:
        result = reference_evaluate_map(channel, {l for b, l in enumerate(links) if mask >> b & 1})
        (passed if result.verdict else failed).setdefault(result.verified, result)
    frontier = [
        result for tup, result in passed.items()
        if not any(o != tup and all(a >= b for a, b in zip(o, tup)) for o in passed)
    ]
    return SearchReport(frontier, list(failed.values()), len(masks))


# --- reference maximal independent sets: the library's earlier 2^m subset
# scan, kept verbatim, and a networkx/scipy fractional chromatic number.


def reference_maximal_independent_sets(members: list[int], adj) -> list[frozenset[int]]:
    index = {v: i for i, v in enumerate(members)}
    m = len(members)
    mask_adj = [0] * m
    for v in members:
        for w in adj[v]:
            if w in index:
                mask_adj[index[v]] |= 1 << index[w]
    independent = [
        mask
        for mask in range(1, 1 << m)
        if all(not (mask_adj[i] & mask) for i in range(m) if mask & (1 << i))
    ]
    ind_set = set(independent)
    maximal = []
    for mask in independent:
        if any(
            not (mask & (1 << i)) and (mask | (1 << i)) in ind_set
            for i in range(m)
        ):
            continue
        maximal.append(frozenset(members[i] for i in range(m) if mask & (1 << i)))
    return maximal


def complement_cliques(members: list[int], adj) -> set[frozenset[int]]:
    """Maximal independent sets as networkx's maximal cliques of the
    complement of the subgraph induced on ``members``."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(members)
    graph.add_edges_from((u, v) for u in members for v in adj[u] if v in graph)
    return {frozenset(c) for c in nx.find_cliques(nx.complement(graph))}


def linprog_fractional_chromatic(members: list[int], adj) -> float:
    """Float optimum of the covering LP min sum x_S s.t. every member is in
    sets of total weight >= 1, over complement_cliques' sets."""
    from scipy.optimize import linprog

    sets = sorted(complement_cliques(members, adj), key=sorted)
    cover = [[-1.0 if v in s else 0.0 for s in sets] for v in members]
    result = linprog([1.0] * len(sets), A_ub=cover, b_ub=[-1.0] * len(members), bounds=(0, None))
    if result.status != 0:
        raise RuntimeError(result.message)
    return float(result.fun)


# --- reference covering LP: the library's earlier generic two-phase
# simplex (min c.x s.t. A x >= b), kept verbatim with its artificial columns.

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _reference_pivot(rows: list[list[Fraction]], obj: list[Fraction], basis: list[int], r: int, c: int):
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


def _reference_run(rows, obj, basis, allowed):
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
        if best is None:
            raise Unbounded(f"column {entering} unbounded")
        _reference_pivot(rows, obj, basis, best[1], entering)


def reference_minimize(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """Return (optimal value, x) for min c.x s.t. A x >= b, x >= 0.

    Requires b >= 0 (true for covering programs).
    """
    m, n = len(A), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("negative right-hand side")
    # columns: x (n) | surplus (m) | artificial (m) | rhs
    width = n + 2 * m + 1
    rows = []
    for i in range(m):
        row = [_ZERO] * width
        for j in range(n):
            row[j] = Fraction(A[i][j])
        row[n + i] = -_ONE
        row[n + m + i] = _ONE
        row[-1] = Fraction(b[i])
        rows.append(row)
    basis = [n + m + i for i in range(m)]

    # phase 1: minimize the artificial sum
    obj = [_ZERO] * width
    for j in range(n + m, n + 2 * m):
        obj[j] = _ONE
    for row in rows:  # zero out the basic (artificial) columns
        obj = [x - y for x, y in zip(obj, row)]
    _reference_run(rows, obj, basis, range(n + m))
    if -obj[-1] != 0:
        raise Infeasible("phase 1 ended above zero")
    for i in range(m):  # drive leftover artificials out of the basis
        if basis[i] >= n + m:
            col = next((j for j in range(n + m) if rows[i][j] != 0), None)
            if col is not None:
                _reference_pivot(rows, obj, basis, i, col)

    # phase 2: original objective over x and surplus columns
    obj = [_ZERO] * width
    for j in range(n):
        obj[j] = Fraction(c[j])
    for i, row in enumerate(rows):
        if basis[i] < n and obj[basis[i]]:
            f = obj[basis[i]]
            obj = [x - f * y for x, y in zip(obj, row)]
    _reference_run(rows, obj, basis, range(n + m))

    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return -obj[-1], x


# --- reference oracle log-det: the library's earlier arbitrary-precision
# log-det, kept verbatim, which writes its covariance through mp.matrix
# indexing one entry at a time.


def reference_logdet_mp(unit_dirs: np.ndarray, kappas: np.ndarray, P: float, keep: np.ndarray) -> float:
    from mpmath import mp

    n = unit_dirs.shape[1]
    digits = 30 + int(max(kappas.max(), 0.0) * math.log10(P)) + 2 * n
    with mp.workdps(digits):
        matrix = mp.eye(n)
        base = mp.mpf(P)
        for s in range(len(kappas)):
            if not keep[s]:
                continue
            w = base ** mp.mpf(float(kappas[s]))
            u = [mp.mpf(float(c)) for c in unit_dirs[s]]
            for i in range(n):
                for j in range(n):
                    matrix[i, j] += w * u[i] * u[j]
        det = mp.det(matrix)
        if det <= 0:
            raise NumericalFailure("covariance lost positive definiteness")
        return float(mp.log(det))


# --- random instance generators (all on coarse rational grids so exponent
# gaps stay bounded away from zero wherever float oracles are involved) ---

# Strengths over the coprime denominators 97, 101 and 103, so that TIN's
# cycle ratios mix denominators and Dinkelbach steps count several edges.
MIXED_DIAG = [Fraction(n, d) for d in (97, 101, 103) for n in (d // 2 + 7, d + 3, 3 * d // 2 + 1)]
MIXED_CROSS = [Fraction(n, d) for d in (97, 101, 103) for n in (d // 4 + 1, d // 2 + 3, 3 * d // 4 + 5)]


def random_weighted_vectors(rng: random.Random, max_m=8, max_n=4):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    pairs = []
    for _ in range(m):
        while True:
            vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            if any(c != 0 for c in vec):
                break
        weight = Fraction(rng.randint(0, 20), rng.choice([1, 2, 4, 5, 10]))
        pairs.append((vec, weight))
    return pairs


def random_channel(rng: random.Random, K: int, *, diag_choices=None, cross_choices=None,
                   cross_prob=0.5) -> ChannelMatrix:
    diag_choices = diag_choices or [Fraction(n, 4) for n in range(2, 9)]
    cross_choices = cross_choices or [Fraction(n, 4) for n in range(1, 7)]
    alpha = [[Fraction(0)] * K for _ in range(K)]
    for k in range(K):
        alpha[k][k] = rng.choice(diag_choices)
        for i in range(K):
            if i != k and rng.random() < cross_prob:
                alpha[k][i] = rng.choice(cross_choices)
    return ChannelMatrix(K, tuple(tuple(row) for row in alpha))


def random_scheme(rng: random.Random, K: int, *, max_n=3, max_streams=2,
                  power_choices=None) -> Scheme:
    power_choices = power_choices or [Fraction(-n, 4) for n in range(0, 7)]
    n = rng.randint(1, max_n)
    streams = []
    for user in range(K):
        for _ in range(rng.randint(1, max_streams)):
            while True:
                vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                if any(c != 0 for c in vec):
                    break
            streams.append(Stream(user, vec, rng.choice(power_choices)))
    return Scheme(n, tuple(streams))
