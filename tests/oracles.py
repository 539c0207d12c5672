"""Independent oracles and random-instance generators for the test suite.

Everything here stays deliberately separate from the library's code paths:
brute-force enumeration, direct formulas, and grid search are the ground
truth the fast implementations are checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from timtin.model import ChannelMatrix, Scheme, Stream


def rank_of(vectors) -> int:
    """Exact rank via plain Gaussian elimination over Fractions."""
    rows = [list(v) for v in vectors]
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


# --- random instance generators (all on coarse rational grids so exponent
# gaps stay bounded away from zero wherever float oracles are involved) ---


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
