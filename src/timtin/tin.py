"""Power-level allocation with interference treated as noise.

Feasibility of a target GDoF tuple reduces to a system of difference
constraints on the power exponents: r_k <= 0, r_k >= d_k - a_kk, and
r_k - r_j >= d_k - a_kk + a_kj for every cross link (k, j) treated as
noise with a positive target d_k (a zero target imposes nothing, since
treating everything as noise always yields at least zero).  The system is
decided by negative-cycle detection on the constraint graph; shortest-path
potentials from the zero anchor are the componentwise-maximal feasible
exponents.  Each solver takes the channel and the cross links treated as
noise, as per-receiver heard lists (``Heard``).

For the symmetric target (t, ..., t) every edge leaving a user node
weighs a constant minus t, so a cycle with cost c (its weight at t = 0)
and count m (its edges leaving user nodes) stays nonnegative exactly
while t <= c / m.  The symmetric optimum is therefore the minimum
cost-to-count cycle ratio floored at 0 (the cyclic bounds of the TIN
region), and every cycle's ratio bounds it from above.  The cycles of one
and two users read straight off the channel: user k's direct-link cycle
has ratio a_kk, and a link (k, j) closes into a cycle through j's
direct-link constraint, ratio (a_kk - a_kj + a_jj) / 2, or, when (j, k) is
a link too, through it, ratio (a_kk - a_kj + a_jj - a_jk) / 2.
Dinkelbach's iteration starts at the smallest of these and finds the
optimum exactly, with two certificates: a feasible point at t*, and a
cycle of ratio at most t*, which is negative at every larger t.

The arithmetic runs on Python ints, scaled by the channel's S (A = S *
alpha): targets are d_k = D_k / (m * S) for one integer m, so an edge from
user k to j weighs m * (A_kk - A_kj) - D_k, and Dinkelbach keeps t as the
pair (C, m) of t = C / (m * S).  A TinSolution keeps tin_feasible's
integer potentials or cycle, over m * S reduced by their gcd, and builds
its Fraction views (r, negative_cycle) only when they are read;
single_level_scaled takes and returns numerators over one denominator,
and single_level_gdof wraps it.  tin_symmetric's SymmetricTin likewise
keeps t as (C, m * S) and builds its Fraction on first read, so a
decomposition search, which solves every map, builds no Fraction here.

Each solver takes one input form.  The links come as heard lists, which a
decomposition search builds once per receiver sub-mask and passes to
every solve of a map; tin_feasible's targets come as ``Scaled`` (m, D),
which Dinkelbach passes it directly.  ``Heard.of`` and ``Scaled.of`` are
the only places where a link set or Fraction targets become solver input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import AbstractSet, NamedTuple, Sequence

from .model import ChannelMatrix, InvariantViolation, over_lcm, to_fraction

# Constraint edges are (u, v, w) meaning r_v - r_u <= w; node K is the
# anchor pinned to 0.
Edge = tuple[int, int, Fraction]


@dataclass(frozen=True)
class TinSolution:
    """Outcome of a feasibility check, as integers over ``scale`` with no
    factor common to all, so that equal solutions have equal fields.

    When feasible, ``potentials`` are the componentwise-maximal power
    exponents times scale; when infeasible, ``cycle`` holds constraint
    edges (u, v, weight times scale) whose weights sum to a negative value
    (the infeasibility certificate).  ``r`` and ``negative_cycle`` are
    their Fraction views, built on first use.
    """

    feasible: bool
    potentials: tuple[int, ...] | None
    cycle: tuple[tuple[int, int, int], ...] | None
    scale: int

    @cached_property
    def r(self) -> tuple[Fraction, ...] | None:
        if self.potentials is not None:
            return tuple(Fraction(x, self.scale) for x in self.potentials)

    @cached_property
    def negative_cycle(self) -> tuple[Edge, ...] | None:
        if self.cycle is not None:
            return tuple((u, v, Fraction(w, self.scale)) for u, v, w in self.cycle)


@dataclass(frozen=True)
class SymmetricTin:
    """tin_symmetric's outcome: the optimum t = C / M and the solution
    feasible at it.  ``t`` is built on first read."""

    C: int
    M: int
    solution: TinSolution

    @cached_property
    def t(self) -> Fraction:
        return Fraction(self.C, self.M)


class Heard:
    """Heard lists, a link set as the solvers read it: per receiver k, the
    ascending transmitters j of the present cross links (k, j) treated as
    noise.  Any sequence of such sequences will do; ``of`` builds them."""

    @staticmethod
    def of(channel: ChannelMatrix, links: AbstractSet | None = None) -> tuple[tuple[int, ...], ...]:
        """The heard lists of the present cross links in links (all when None)."""
        present = channel.link_set if links is None else channel.link_set.intersection(links)
        heard: list[list[int]] = [[] for _ in range(channel.K)]
        for k, j in sorted(present):  # edge order decides which negative cycle is found
            heard[k].append(j)
        return tuple(map(tuple, heard))


class Scaled(NamedTuple):
    """Targets d_k = D[k] / (m * S), S the channel's scale: a target tuple
    as tin_feasible reads it."""

    m: int
    D: tuple[int, ...]

    @classmethod
    def of(cls, channel: ChannelMatrix, targets: Sequence) -> Scaled:
        """Number-like targets, one per user and each nonnegative, as a Scaled."""
        m, N = over_lcm([to_fraction(t) for t in targets])
        if len(N) != channel.K:
            raise ValueError(f"expected {channel.K} targets, got {len(N)}")
        if min(N) < 0:  # K >= 1
            raise ValueError("targets must be nonnegative")
        return cls(m, tuple(x * channel.scale for x in N))


def single_level_gdof(
    channel: ChannelMatrix, r: Sequence[Fraction], heard: Sequence[Sequence[int]]
) -> tuple[Fraction, ...]:
    """GDoF tuple of the one-stream-per-user, single-use scheme with power
    exponents r, treating the interference of the ``heard`` links as noise."""
    D, N = single_level_scaled(channel, *over_lcm(r), heard)
    return tuple(Fraction(x, D) for x in N)


def single_level_scaled(
    channel: ChannelMatrix, M: int, R: Sequence[int], heard: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...]]:
    """single_level_gdof on integers: for power exponents R[k] / M, the
    GDoF tuple as (D, N), the values N[k] / D over D = lcm(M, S)."""
    D = lcm(M, channel.scale)
    a, p = D // channel.scale, D // M
    N = []
    for k, (row, js) in enumerate(zip(channel.scaled, heard)):
        noise = max([0, *[a * row[j] + p * R[j] for j in js]])
        N.append(max(0, a * row[k] + p * R[k] - noise))
    return D, tuple(N)


def _edges(channel: ChannelMatrix, heard: Sequence[Sequence[int]], m: int, D: Sequence[int]):
    K, A = channel.K, channel.scaled
    edges = [(K, k, 0) for k in range(K)]  # r_k <= 0
    for k, js in enumerate(heard):
        if D[k] > 0:
            own = m * A[k][k] - D[k]
            edges.append((k, K, own))  # r_k >= d_k - a_kk
            edges.extend((k, j, own - m * A[k][j]) for j in js)  # r_k - r_j >= d_k - a_kk + a_kj
    return edges


def _bellman_ford(K: int, edges):
    """Shortest paths from the anchor K over _edges, whose first K edges
    (K, k, 0) give every node the potential 0 in the first pass: the
    potentials start there, the anchor's edge to k as k's predecessor.
    Returns (dist, None) or (None, negative_cycle)."""
    n_nodes = K + 1
    dist = [0] * n_nodes
    pred = [*range(K), -1]
    trigger = -1
    for _ in range(n_nodes):
        changed = False
        for idx, (u, v, w) in enumerate(edges):
            du = dist[u] + w
            if du < dist[v]:
                dist[v] = du
                pred[v] = idx
                changed = True
                trigger = v
        if not changed:
            return dist, None
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
    return None, cycle


def tin_feasible(
    channel: ChannelMatrix, targets: Scaled, heard: Sequence[Sequence[int]]
) -> TinSolution:
    """Decide whether the target GDoF tuple is achievable by power control
    with the interference of the ``heard`` links treated as noise."""
    K, S = channel.K, channel.scale
    m, D = targets
    dist, cycle = _bellman_ford(K, _edges(channel, heard, m, D))
    if cycle is not None:
        g = gcd(m * S, *(w for _, _, w in cycle))
        return TinSolution(False, None, tuple((u, v, w // g) for u, v, w in cycle), m * S // g)
    if dist[K] != 0:
        raise InvariantViolation("TIN anchor potential moved without a negative cycle")
    g = gcd(m * S, *dist)  # dist[K] is 0
    return TinSolution(True, tuple(x // g for x in dist[:K]), None, m * S // g)


def tin_symmetric(channel: ChannelMatrix, heard: Sequence[Sequence[int]]) -> SymmetricTin:
    """Maximal t such that the symmetric tuple (t, ..., t) is TIN-feasible
    with the interference of the ``heard`` links treated as noise.

    Dinkelbach iteration on the constraint graph: start at the smallest
    ratio of the one- and two-user cycles (see the module docstring),
    clamped at 0; while (t, ..., t) has a negative cycle, lower t to that
    cycle's cost-to-count ratio, clamped at 0.  Every cycle ratio is at
    least the optimum, so the first feasible t is the exact optimum: the
    returned solution is feasible there, and the last cycle found (or,
    when the start is feasible, the cycle that set the start) has ratio
    at most t, so it is negative at every larger target.
    """
    K, S, A = channel.K, channel.scale, channel.scaled
    # Start ratios as C / (2S).  A link (k, j) closes through (j, k) when
    # that is a link too (A_jk > 0 makes it the tighter cycle), else
    # through the anchor.
    C = min(
        [2 * A[k][k] for k in range(K)]
        + [
            A[k][k] - A[k][j] + A[j][j] - (A[j][k] if k in heard[j] else 0)
            for k, js in enumerate(heard)
            for j in js
        ]
    )
    C, m = max(C, 0), 2
    while True:
        sol = tin_feasible(channel, Scaled(m, (C,) * K), heard)
        if sol.feasible:
            return SymmetricTin(C, m * S, sol)
        # Edges leaving user u cost S * (a_uu - a_uv), or S * a_uu into the
        # anchor; edges leaving the anchor cost 0.
        user_edges = [(u, v) for u, v, _ in sol.cycle if u != K]
        cost = sum(A[u][u] - (A[u][v] if v != K else 0) for u, v in user_edges)
        C, m = (cost, len(user_edges)) if cost > 0 else (0, 1)
