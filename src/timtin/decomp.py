"""TIM-TIN decomposition of an interference network.

Each present cross link goes to either the vector-space (TIM) component or
the power-level (TIN) component.  The two components are solved
separately, the per-user product of their fractions is the claimed GDoF,
and the combined scheme is re-evaluated on the original channel.  Claims
are never trusted: a result whose evaluated GDoF falls short of its
product is reported with verdict=False rather than dropped.  A scheme is
fully determined by the TIM block length and integer directions plus the
TIN power exponents, so the search verifies it on those integers, once
per distinct scheme in a search (the same scheme on the same channel has
the same GDoF tuple), and builds the explicit Scheme, by
synthesize_scheme, only when a caller reads a result's ``scheme``.

A map is its bitmask over the channel's cross links, from the search to
the verdict; map_mask is the one place where a TIM link set becomes one.
Per map, the work is the TIN solve and its single-level GDoF, on Python
ints, the products and verdict as (denominator, numerators) pairs, and
one DecompositionResult.  Everything else is built once per distinct
value in a search and kept in one _Caches bound to the channel, keyed on
ints: per receiver and distinct sub-mask of its links, the heard list of
its TIN side and the alignment and conflict bits of its TIM side; per
distinct (alignment, conflict) signature, the TimSolution, all equal
solutions sharing one directions object; per distinct conflict
component, its fractional coloring; per distinct scheme, its reduced
verified (denominator, numerators).  A result's other fields, its scheme
included, are built from its integers when first read, so a search
builds them only for the results a caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from . import evaluator, tin
from .model import (
    BudgetOutOfRange,
    ChannelMatrix,
    DecompositionMap,
    DimensionMismatch,
    MapMismatch,
    Scheme,
    Stream,
    WeightMismatch,
    to_fraction,
)
from .tim import TimSolution, TimTopology, tim_solve


# Largest exhaustive_cap a search accepts.  A map costs ~0.07 ms on the
# 5-user reference network, ~0.5 ms on a seeded 9-user channel, whose
# search (`scripts/scale_probe.py 9 18`, one thread of a 2-vCPU VM) took
# 466 s at 747 MB peak RSS: 131 s for its 262,144 maps, 335 s for the
# Pareto filter over 95,341 passed tuples (1,165 MB and 486 s when the
# search held each distinct scheme).  Exhaustive masks are a lazy range;
# the search keeps one result per distinct verified tuple, and its _Caches
# one entry per distinct scheme (its verified tuple), TIM graph pair,
# conflict component and receiver sub-mask, so its memory grows with those
# counts, not with 2^L.
MAX_EXHAUSTIVE_CAP = 20


@dataclass(frozen=True)
class SearchBudget:
    """Search is exhaustive up to 2^exhaustive_cap maps; beyond that only
    strength-threshold maps and their single-link perturbations are tried."""

    exhaustive_cap: int = 16

    def __post_init__(self):
        if not 0 <= self.exhaustive_cap <= MAX_EXHAUSTIVE_CAP:
            raise BudgetOutOfRange(
                f"exhaustive_cap {self.exhaustive_cap} outside 0..{MAX_EXHAUSTIVE_CAP}"
            )


@dataclass(frozen=True)
class DecompositionResult:
    """One map's outcome.  ``verdict`` is computed with it, and
    ``tim_fractions`` and ``tim_method`` are its TimSolution ``tim``'s.
    The cached properties below are built from ``tim`` and ``ints`` on
    first read, as TinSolution.r is, ``scheme`` by synthesize_scheme;
    those fields determine them, so two results are equal when the
    dataclass fields are."""

    verdict: bool
    tim: TimSolution
    # the channel, its cross links and the map's bitmask over them, and the
    # map's single-level GDoF, products, power exponents and verified tuple
    # as (denominator, numerators) pairs, the verified one reduced
    ints: tuple = field(repr=False)

    tim_fractions = property(lambda r: r.tim.fractions)
    tim_method = property(lambda r: r.tim.method)
    scheme = cached_property(lambda r: synthesize_scheme(r.ints[5], r.tim))
    map = cached_property(lambda r: split(r.ints[0], _tim_links(*r.ints[1:3])))
    tin_fractions = cached_property(lambda r: _as_fractions(r.ints[3]))
    products = cached_property(lambda r: _as_fractions(r.ints[4]))
    power_exponents = cached_property(lambda r: _as_fractions(r.ints[5]))
    verified = cached_property(lambda r: _as_fractions(r.ints[6]))


class SearchReport(NamedTuple):
    """What one search found: the Pareto frontier over the verified GDoF
    tuples and the failed-verdict results (each deduplicated by verified
    tuple and in map bitmask order), and how many maps it evaluated."""

    frontier: list[DecompositionResult]
    failed: list[DecompositionResult]
    evaluated: int


def split(channel: ChannelMatrix, tim_links: Iterable[tuple[int, int]]) -> DecompositionMap:
    """The map that sends ``tim_links`` to the TIM component and every other
    present cross link to the TIN component (treated as noise).  A link
    that is not a pair of ints equal to a present cross link of the
    channel, such as an absent or a self link or (1.0, 0), is a
    MapMismatch: TimTopology checks each one's type."""
    try:
        tim = TimTopology(channel.K, tim_links).links
    except ValueError as exc:
        raise MapMismatch(str(exc)) from None
    if not tim <= channel.link_set:
        extra = sorted(tim - channel.link_set)
        raise MapMismatch(f"links {extra} are not present cross links of the channel")
    return DecompositionMap(tim, channel.link_set - tim)


def map_mask(channel: ChannelMatrix, tim_links: Iterable[tuple[int, int]]) -> int:
    """The bitmask over ``channel.cross_links()`` of the map whose TIM side
    is ``tim_links``, as evaluate_map takes it; split checks the links."""
    tim = split(channel, tim_links).tim_links
    return sum(1 << b for b, link in enumerate(channel.cross_links()) if link in tim)


def synthesize_scheme(power: tuple[int, Sequence[int]], tim_sol: TimSolution) -> Scheme:
    """Combine the two component solutions into one explicit scheme: each
    user u sends one stream per assigned direction, all at its power-level
    exponent R[u] / M for ``power`` (M, R) (the fraction lives in the
    dimension count, not the power).  The Stream and Scheme check each
    stream: a power exponent at most 0 and a nonzero direction of the
    block length, and the exponents' denominator lcm."""
    M, R = power
    return Scheme(tim_sol.n, tuple(
        Stream(u, row, Fraction(R[u], M)) for u, rows in enumerate(tim_sol.directions) for row in rows
    ))


class _Caches:
    """What evaluate_map derives from ``channel``, filled per distinct value
    seen, never as an eager 2^links table.  One search builds one and
    passes it with every map; evaluate_map refuses one built for another
    channel.

    - ``receivers[k]``: the shift and width of receiver k's links' bits in
      a map bitmask, its transmitters in ascending order, and the dict
      that maps each sub-mask of its links (bit b for its b-th
      transmitter) that go to TIM to the heard tuple of the rest, as
      Heard.of orders it, and the signature bits of k's alignment pairs
      (a, b), bit a * K + b, and conflict edges {k, j}, bit K * K + min *
      K + max;
    - ``canonical``: each distinct (n, directions) of a TimSolution to a
      small int, its index in order of first sight, and that first
      directions object;
    - ``tim``: a map's signature, the OR over receivers, to its
      TimSolution, holding the canonical directions object, and the index
      of its (n, directions);
    - ``colorings``: tim_solve's coloring memo;
    - ``verified``: keyed by that index and the reduced power exponents,
      which together fix the scheme, its verified tuple as a reduced
      (denominator, numerators) pair."""

    def __init__(self, channel: ChannelMatrix):
        self.channel, self.K, self.links = channel, channel.K, channel.cross_links()
        self.tim, self.canonical, self.colorings, self.verified = {}, {}, {}, {}
        self.receivers = []
        for k in range(self.K):
            js = [j for r, j in self.links if r == k]
            self.receivers.append((sum(r < k for r, _ in self.links), (1 << len(js)) - 1, js, {}))

    def view(self, k: int, sub: int) -> tuple[tuple[int, ...], int]:
        K, (_, _, js, views) = self.K, self.receivers[k]
        tim = [j for b, j in enumerate(js) if sub >> b & 1]
        bits = sum(1 << a * K + b for a, b in combinations(tim, 2))
        bits += sum(1 << K * K + min(k, j) * K + max(k, j) for j in tim)
        return views.setdefault(sub, (tuple(j for j in js if j not in tim), bits))


def evaluate_map(
    channel: ChannelMatrix, mask: int, caches: _Caches | None = None
) -> DecompositionResult:
    """Solve both components of one map and verify the per-user products
    on the original channel with the combined scheme.

    The map is its bitmask over ``channel.cross_links()`` (bit b set sends
    link b to TIM; map_mask gives it for a TIM link set).  A mask that is
    not an int in 0..2^L - 1 (a bool is not), or ``caches`` built for
    another channel, is a MapMismatch, raised before any solve.

    What is built where:
    - per map: the TIN solve on the map's heard lists and its single-level
      GDoF, the products and the verdict on ints, and the result;
    - per distinct value, in ``caches`` (a fresh _Caches when None), each
      keyed on ints: the heard tuple and signature bits of each receiver
      sub-mask, the TimSolution of each signature, each coloring, and each
      scheme's verified tuple, from its streams as ints;
    - per read: the result's map, tin_fractions, products, verified,
      power_exponents and scheme; the Stream and Scheme checks of the
      scheme run then.
    """
    caches = _Caches(channel) if caches is None else caches
    if caches.channel != channel:
        raise MapMismatch("the caches were built for another channel")
    if type(mask) is not int or not 0 <= mask < 1 << len(caches.links):
        raise MapMismatch(f"map bitmask {mask!r} is not in 0..2^{len(caches.links)} - 1")
    views, signature = [], 0
    for k, (shift, width, _, cached) in enumerate(caches.receivers):
        sub = mask >> shift & width
        view = cached.get(sub) or caches.view(k, sub)
        views.append(view[0])
        signature |= view[1]
    tin_sol = tin.tin_symmetric(channel, views).solution  # views are the map's heard lists
    # The canonical (componentwise-maximal) exponents may exceed the
    # symmetric objective for slack users; report what they actually give.
    power = tin_sol.scale, tin_sol.potentials  # reduced, as a TinSolution holds them
    D, N = tin.single_level_scaled(channel, *power, views)
    solved = caches.tim.get(signature)
    if solved is None:
        tim_sol = tim_solve(TimTopology(channel.K, _tim_links(caches.links, mask)), caches.colorings)
        key = tim_sol.n, tim_sol.directions
        index, directions = caches.canonical.setdefault(key, (len(caches.canonical), key[1]))
        solved = caches.tim[signature] = replace(tim_sol, directions=directions), index
    tim_sol, index = solved
    B, F = tim_sol.scaled_fractions
    products = D * B, tuple([x * y for x, y in zip(N, F)])
    verified = caches.verified.get((index, power))
    if verified is None:
        M, R = power
        users = [u for u, rows in enumerate(tim_sol.directions) for _ in rows]
        rows = [row for rows in tim_sol.directions for row in rows]
        scaled = evaluator.scaled_gdof(tim_sol.n, (users, rows, (M, [R[u] for u in users])), channel)
        verified = caches.verified[index, power] = _reduced(*scaled)
    return DecompositionResult(
        _dominates(verified, products), tim_sol,
        (channel, caches.links, mask, (D, N), products, power, verified),
    )


def _reduced(D: int, N: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The values N[k] / D as (D, N) with no factor common to all: equal
    exactly when the values are, and hashed without Fraction arithmetic."""
    g = gcd(D, *N)
    return (D, tuple(N)) if g == 1 else (D // g, tuple([x // g for x in N]))


def _as_fractions(values: tuple[int, Sequence[int]]) -> tuple[Fraction, ...]:
    """The values N[k] / D of (D, N) as Fractions."""
    D, N = values
    return tuple(Fraction(x, D) for x in N)


def _dominates(a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]]) -> bool:
    """Whether the values given by (D, N) a are componentwise at least b's."""
    (ad, an), (bd, bn) = a, b
    return all([x * bd >= y * ad for x, y in zip(an, bn)])


def _tim_links(links: Sequence[tuple[int, int]], mask: int) -> frozenset[tuple[int, int]]:
    """The TIM side of a map bitmask: link b of ``links`` when bit b is set."""
    return frozenset([l for b, l in enumerate(links) if mask >> b & 1])


def candidate_masks(channel: ChannelMatrix, budget: SearchBudget) -> Sequence[int]:
    """Map bitmasks the search will evaluate, in ascending order (bit b set
    means cross link b goes to the TIM component): a lazy range in
    exhaustive mode, a sorted list in threshold mode."""
    links = channel.cross_links()
    L = len(links)
    if L <= budget.exhaustive_cap:
        return range(1 << L)
    masks = {0}
    for tau in sorted({channel.alpha[k][i] for k, i in links}):
        base = sum(1 << b for b, (k, i) in enumerate(links) if channel.alpha[k][i] >= tau)
        masks.add(base)
        masks.update(base ^ (1 << b) for b in range(L))
    return sorted(masks)


def search(channel: ChannelMatrix, budget: SearchBudget | None = None) -> SearchReport:
    """Evaluate each candidate decomposition once and report the Pareto
    frontier over the evaluator-verified GDoF tuples, the failed-verdict
    results (so that synthesis defects stay visible) and the number of
    maps evaluated."""
    budget = budget or SearchBudget()
    # candidate_masks ascends and each verified tuple keeps the first result
    # seen, so both dicts (insertion-ordered) are already in mask order.
    # They are keyed on the reduced (denominator, numerators) pair of the
    # verified tuple, which is one pair per value.
    passed, failed = {}, {}
    # Receiver sub-masks, TIM graph pairs and subproblems repeat across
    # maps, and so do schemes and verified tuples.
    caches = _Caches(channel)
    masks = candidate_masks(channel, budget)
    for mask in masks:
        result = evaluate_map(channel, mask, caches)
        (passed if result.verdict else failed).setdefault(result.ints[6], result)
    # A dominator has a strictly larger sum and dominance is transitive, so
    # in descending-sum order each tuple need only be tested against the
    # undominated tuples kept before it.
    undominated: list[tuple] = []
    for key in sorted(passed, key=lambda v: Fraction(sum(v[1]), v[0]), reverse=True):
        if not any(_dominates(other, key) for other in undominated):
            undominated.append(key)
    kept = set(undominated)
    frontier = [res for key, res in passed.items() if key in kept]
    return SearchReport(frontier, list(failed.values()), len(masks))


def time_share(results: Sequence, weights: Sequence) -> tuple[Fraction, ...]:
    """Convex combination of GDoF tuples (such as each result's ``verified``)."""
    w = [to_fraction(x) for x in weights]
    if len(w) != len(results):
        raise WeightMismatch(f"{len(w)} weights for {len(results)} results")
    if any(x < 0 for x in w):
        raise WeightMismatch("weights must be nonnegative")
    if sum(w) != 1:
        raise WeightMismatch(f"weights sum to {sum(w)}, expected 1")
    tuples = [tuple(map(to_fraction, r)) for r in results]
    K = len(tuples[0]) if tuples else 0
    if any(len(t) != K for t in tuples):
        raise DimensionMismatch("GDoF tuples have differing lengths")
    return tuple(sum((wi * t[k] for wi, t in zip(w, tuples)), Fraction(0)) for k in range(K))
