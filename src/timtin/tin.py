"""Power-level allocation with interference treated as noise.

Feasibility of a target GDoF tuple reduces to a system of difference
constraints on the power exponents: r_k <= 0, r_k >= d_k - a_kk, and
r_k - r_j >= d_k - a_kk + a_kj for every present cross link (k, j) with a
positive target d_k (a zero target imposes nothing, since treating
everything as noise always yields at least zero).  The system is decided
by negative-cycle detection on the constraint graph; shortest-path
potentials from the zero anchor are the componentwise-maximal feasible
exponents.

For the symmetric target (t, ..., t) every edge leaving a user node
weighs a constant minus t, so a cycle with cost c (its weight at t = 0)
and count m (its edges leaving user nodes) stays nonnegative exactly
while t <= c / m.  The symmetric optimum is therefore the minimum
cost-to-count cycle ratio floored at 0 (the cyclic bounds of the TIN
region; the cycle through user k's own direct-link constraint has ratio
a_kk).  Dinkelbach's iteration finds it exactly in rational arithmetic,
with two certificates: a feasible point at t*, and a negative cycle of
ratio at most t*, which stays negative at every larger t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .model import ChannelMatrix, InvariantViolation, to_fraction

# Constraint edges are (u, v, w) meaning r_v - r_u <= w; node K is the
# anchor pinned to 0.
Edge = tuple[int, int, Fraction]

@dataclass(frozen=True)
class TinSolution:
    """Outcome of a feasibility check.

    When feasible, ``r`` holds the componentwise-maximal power exponents;
    when infeasible, ``negative_cycle`` holds constraint edges whose
    weights sum to a negative value (the infeasibility certificate).
    """

    feasible: bool
    r: tuple[Fraction, ...] | None
    negative_cycle: tuple[Edge, ...] | None


def single_level_gdof(channel: ChannelMatrix, r: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """GDoF tuple of the one-stream-per-user, single-use scheme with power
    exponents r, treating all interference as noise."""
    out = []
    for k in range(channel.K):
        interference = [
            channel.alpha[k][j] + r[j]
            for j in range(channel.K)
            if j != k and channel.alpha[k][j] > 0
        ]
        strongest = max([Fraction(0), *interference])
        out.append(max(Fraction(0), channel.alpha[k][k] + r[k] - strongest))
    return tuple(out)


def _edges(channel: ChannelMatrix, targets: Sequence[Fraction]) -> list[Edge]:
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


def _bellman_ford(n_nodes: int, edges: list[Edge], source: int):
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


def tin_feasible(channel: ChannelMatrix, targets: Sequence) -> TinSolution:
    """Decide whether the target GDoF tuple is achievable by power control
    with interference treated as noise."""
    d = tuple(to_fraction(t) for t in targets)
    if len(d) != channel.K:
        raise ValueError(f"expected {channel.K} targets, got {len(d)}")
    if any(t < 0 for t in d):
        raise ValueError("targets must be nonnegative")
    dist, cycle = _bellman_ford(channel.K + 1, _edges(channel, d), channel.K)
    if cycle is not None:
        return TinSolution(False, None, cycle)
    if dist[channel.K] != 0:
        raise InvariantViolation("TIN anchor potential moved without a negative cycle")
    return TinSolution(True, tuple(dist[: channel.K]), None)


def tin_symmetric(channel: ChannelMatrix) -> tuple[Fraction, TinSolution]:
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
        sol = tin_feasible(channel, [t] * channel.K)
        if sol.feasible:
            return t, sol
        # Edges leaving a user node weigh (constant - t); anchor edges weigh 0.
        count = sum(1 for u, _, _ in sol.negative_cycle if u != channel.K)
        total = sum((w for _, _, w in sol.negative_cycle), Fraction(0))
        t = max(Fraction(0), (total + count * t) / count)
