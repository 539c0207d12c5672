"""TIM-TIN decomposition of an interference network.

Each present cross link goes to either the vector-space (TIM) component or
the power-level (TIN) component.  The two components are solved
separately, the per-user product of their fractions is the claimed GDoF,
and an explicit combined scheme is synthesized and re-evaluated on the
original channel.  Claims are never trusted: a result whose evaluated
GDoF falls short of its product is reported with verdict=False rather
than dropped.  Within one search, maps that yield the same scheme share
one synthesis and one verification: a scheme is fully determined by the
TIM block length and integer directions plus the TIN power exponents, so
those values key the memo, and the same scheme on the same channel has
the same GDoF tuple.

Per map, the search stays on Python ints from the TIN potentials to the
verdict: power exponents, single-level GDoF, products and verified
tuples are (denominator, numerators) pairs reduced by their gcd, which
are equal exactly when the values are.  Fractions are built only for
what a result reports, once per distinct value in a search: each
reported tuple is interned under its reduced pair, each distinct scheme
is synthesized and verified once, and each distinct stream is built
once, its Stream checking that the power exponent is at most 0 and the
direction nonzero, while each Scheme checks its streams' length.  A map
still builds its own DecompositionMap and DecompositionResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    WeightMismatch,
    over_lcm,
    to_fraction,
)
from .tim import TimSolution, TimTopology, tim_solve


# Largest exhaustive_cap a search accepts: 2^20 maps at ~0.1 ms each (the
# 5-user reference network on a 2-vCPU VM; more users cost more) is
# already ~2 minutes.
# Exhaustive masks are a lazy range; the search keeps one result per
# distinct verified tuple, one memo entry per distinct scheme and one per
# distinct TIM graph pair, so its memory grows with those counts, not
# with 2^L.
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
    map: DecompositionMap
    tin_fractions: tuple[Fraction, ...]
    tim_fractions: tuple[Fraction, ...]
    products: tuple[Fraction, ...]
    scheme: Scheme
    verified: tuple[Fraction, ...]
    verdict: bool
    tim_method: str
    power_exponents: tuple[Fraction, ...]


class SearchReport(NamedTuple):
    """What one search found: the Pareto frontier over the verified GDoF
    tuples and the failed-verdict results (each deduplicated by verified
    tuple and in map bitmask order), and how many maps it evaluated."""

    frontier: list[DecompositionResult]
    failed: list[DecompositionResult]
    evaluated: int


def split(
    channel: ChannelMatrix, tim_links: Iterable[tuple[int, int]] | TimTopology
) -> DecompositionMap:
    """The map that sends ``tim_links`` to the TIM component and every other
    present cross link to the TIN component (treated as noise).  A link
    that is not a pair of ints equal to a present cross link of the
    channel, such as an absent or a self link or (1.0, 0), is a
    MapMismatch.  The links may come as a TimTopology, which has checked
    each one's type."""
    if not isinstance(tim_links, TimTopology):
        try:
            tim_links = TimTopology(channel.K, tim_links)
        except ValueError as exc:
            raise MapMismatch(str(exc)) from None
    tim = tim_links.links
    if not tim <= channel.link_set:
        extra = sorted(tim - channel.link_set)
        raise MapMismatch(f"links {extra} are not present cross links of the channel")
    return DecompositionMap(tim, channel.link_set - tim)


def synthesize_scheme(
    power_exponents: Sequence[Fraction], tim_sol: TimSolution, interned: dict | None = None
) -> Scheme:
    """Combine the two component solutions into one explicit scheme: each
    user sends one stream per assigned direction, all at its power-level
    exponent (the fraction lives in the dimension count, not the power).
    The Scheme checks each stream: a power exponent at most 0 and a
    nonzero direction of the block length.  Streams are shared through
    ``interned`` as Scheme.from_rows describes."""
    users = enumerate(zip(power_exponents, tim_sol.directions))
    streams = ((user, vector, power) for user, (power, vectors) in users for vector in vectors)
    return Scheme.from_rows(tim_sol.n, streams, interned)


def evaluate_map(
    channel: ChannelMatrix,
    tim_links: Iterable[tuple[int, int]],
    memo: dict | None = None,
    verifications: dict | None = None,
) -> DecompositionResult:
    """Solve both components of the decomposition that sends ``tim_links``
    to the TIM component (see split), synthesize the combined scheme, and
    verify the per-user products on the original channel.
    ``memo`` is handed to tim_solve as its solution and coloring memo.
    ``verifications`` holds what depends only on distinct values, so that
    search, which passes one dict per call, computes each once per search:
    keyed by (block length, TIM directions, reduced power exponents), the
    synthesized scheme and its verified tuple; keyed by a reduced
    (denominator, numerators) pair, the tuple of Fractions a result
    reports; and keyed by a (user, direction, power exponent) triple, the
    scheme's Stream.  Per map, everything from the TIN potentials to the
    verdict stays on ints."""
    verifications = {} if verifications is None else verifications
    topology = TimTopology(channel.K, tim_links)  # a bad link fails before any solve
    dmap = split(channel, topology)
    heard = tin.Heard.of(channel, dmap.tin_links)  # shared by every TIN solve of this map
    _, tin_sol = tin.tin_symmetric(channel, heard)
    # The canonical (componentwise-maximal) exponents may exceed the
    # symmetric objective for slack users; report what they actually give.
    power = tin_sol.scale, tin_sol.potentials  # reduced, as a TinSolution holds them
    D, N = tin.single_level_scaled(channel, *power, heard)
    tim_sol = tim_solve(topology, memo)
    B, F = tim_sol.scaled_fractions
    products = _reduced(D * B, [x * y for x, y in zip(N, F)])
    key = (tim_sol.n, tim_sol.directions, power)
    verification = verifications.get(key)
    power_exponents = _fractions(verifications, power)
    if verification is None:
        scheme = synthesize_scheme(power_exponents, tim_sol, verifications)
        verified = _reduced(*evaluator.scaled_gdof(scheme, channel))
        verification = verifications[key] = scheme, verified, _fractions(verifications, verified)
    scheme, verified, verified_fractions = verification
    return DecompositionResult(
        map=dmap,
        tin_fractions=_fractions(verifications, _reduced(D, N)),
        tim_fractions=tim_sol.fractions,
        products=_fractions(verifications, products),
        scheme=scheme,
        verified=verified_fractions,
        verdict=_dominates(verified, products),
        tim_method=tim_sol.method,
        power_exponents=power_exponents,
    )


def _reduced(D: int, N: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The values N[k] / D as (D, N) with no factor common to all: equal
    exactly when the values are, and hashed without Fraction arithmetic."""
    g = gcd(D, *N)
    return (D, tuple(N)) if g == 1 else (D // g, tuple([x // g for x in N]))


def _fractions(interned: dict, values: tuple[int, tuple[int, ...]]) -> tuple[Fraction, ...]:
    """The Fractions of reduced values (D, N), built once per dict."""
    fractions = interned.get(values)
    if fractions is None:
        D, N = values
        fractions = interned[values] = tuple(Fraction(x, D) for x in N)
    return fractions


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
    links = channel.cross_links()
    # candidate_masks ascends and each verified tuple keeps the first result
    # seen, so both dicts (insertion-ordered) are already in mask order.
    # evaluate_map interns the tuples in verifications, so equal tuples are
    # one object, and its id keys them.
    passed, failed = {}, {}
    # TIM graph pairs and subproblems repeat across maps, and so do schemes
    # and reported values.
    memo, verifications = {}, {}
    masks = candidate_masks(channel, budget)
    for mask in masks:
        result = evaluate_map(channel, _tim_links(links, mask), memo, verifications)
        (passed if result.verdict else failed).setdefault(id(result.verified), result)
    # A dominator has a strictly larger sum and dominance is transitive, so
    # in descending-sum order each tuple need only be tested against the
    # undominated tuples kept before it.
    scaled = {key: over_lcm(res.verified) for key, res in passed.items()}
    undominated: list[tuple] = []
    for D, N in sorted(scaled.values(), key=lambda v: Fraction(sum(v[1]), v[0]), reverse=True):
        if not any(_dominates(other, (D, N)) for other in undominated):
            undominated.append((D, N))
    kept = set(undominated)
    frontier = [res for key, res in passed.items() if scaled[key] in kept]
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
