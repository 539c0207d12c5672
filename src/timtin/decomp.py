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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    to_fraction,
)
from .tim import TimSolution, TimTopology, tim_solve


# Largest exhaustive_cap a search accepts: 2^20 maps at ~0.2 ms each (the
# 5-user reference network on a 2-vCPU VM; more users cost more) is
# already ~3.5 minutes.
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


def split(channel: ChannelMatrix, tim_links: Iterable[tuple[int, int]]) -> DecompositionMap:
    """The map that sends ``tim_links`` to the TIM component and every other
    present cross link to the TIN component (treated as noise).  A link
    that is not a present cross link of the channel, such as an absent or
    a self link, is a MapMismatch."""
    tim = frozenset(tim_links)  # a frozenset is kept as is
    if not tim <= channel.link_set:
        extra = sorted(tim - channel.link_set, key=repr)
        raise MapMismatch(f"links {extra} are not present cross links of the channel")
    return DecompositionMap(tim, channel.link_set - tim)


def synthesize_scheme(
    tin_sol: tin.TinSolution, tim_sol: TimSolution, channel: ChannelMatrix
) -> Scheme:
    """Combine the two component solutions into one explicit scheme: each
    user sends one stream per assigned direction, all at its power-level
    exponent (the fraction lives in the dimension count, not the power)."""
    if not tin_sol.feasible or tin_sol.r is None:
        raise ValueError("cannot synthesize from an infeasible power allocation")
    return Scheme.from_rows(
        tim_sol.n,
        (
            (user, vector, tin_sol.r[user])
            for user in range(channel.K)
            for vector in tim_sol.directions[user]
        ),
    )


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
    ``verifications`` maps (block length, TIM directions, power exponents
    as numerator/denominator pairs), the values that determine the
    synthesized scheme, to that scheme and its verified tuple on this
    channel; search passes one dict per call, so each distinct scheme is
    synthesized and verified once per search and maps that share it share
    one Scheme object.  Products and the verdict are still computed per
    map."""
    dmap = split(channel, tim_links)
    tim_topology = TimTopology(channel.K, dmap.tim_links)  # a bad link fails before any solve
    heard = tin.Heard.of(channel, dmap.tin_links)  # shared by every TIN solve of this map
    _, tin_sol = tin.tin_symmetric(channel, heard)
    # The canonical (componentwise-maximal) exponents may exceed the
    # symmetric objective for slack users; report what they actually give.
    tin_fractions = tin.single_level_gdof(channel, tin_sol.r, heard)
    tim_sol = tim_solve(tim_topology, memo)
    # Products and the verdict on numerator/denominator pairs: one Fraction
    # per product, built for the result, and no Fraction arithmetic.
    pairs = [
        (a.numerator * b.numerator, a.denominator * b.denominator)
        for a, b in zip(tin_fractions, tim_sol.fractions)
    ]
    if verifications is None:
        verifications = {}
    key = (tim_sol.n, tim_sol.directions, _pairs(tin_sol.r))
    verification = verifications.get(key)
    if verification is None:
        scheme = synthesize_scheme(tin_sol, tim_sol, channel)
        verified = tuple(evaluator.user_gdof(scheme, channel, k).gdof for k in range(channel.K))
        verification = verifications[key] = scheme, verified, _pairs(verified)
    scheme, verified, verified_pairs = verification
    return DecompositionResult(
        map=dmap,
        tin_fractions=tin_fractions,
        tim_fractions=tim_sol.fractions,
        products=tuple(Fraction(n, d) for n, d in pairs),
        scheme=scheme,
        verified=verified,
        verdict=_dominates(verified_pairs, pairs),
        tim_method=tim_sol.method,
        power_exponents=tin_sol.r,
    )


def _pairs(values: Sequence[Fraction]) -> tuple[tuple[int, int], ...]:
    """Exact values as (numerator, denominator) pairs: equal exactly when the
    values are, and hashed without Fraction arithmetic."""
    return tuple((x.numerator, x.denominator) for x in values)


def _dominates(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]) -> bool:
    """Whether the values given by pairs a are componentwise at least b's."""
    return all(an * bd >= bn * ad for (an, ad), (bn, bd) in zip(a, b))


def _tim_links(links: Sequence[tuple[int, int]], mask: int) -> frozenset[tuple[int, int]]:
    """The TIM side of a map bitmask: link b of ``links`` when bit b is set."""
    return frozenset(l for b, l in enumerate(links) if mask >> b & 1)


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
    # They are keyed on the tuple's (numerator, denominator) pairs.
    passed: dict[tuple, DecompositionResult] = {}
    failed: dict[tuple, DecompositionResult] = {}
    memo: dict = {}  # TIM graph pairs and subproblems repeat across maps
    verifications: dict = {}  # and so do synthesized schemes
    masks = candidate_masks(channel, budget)
    for mask in masks:
        result = evaluate_map(channel, _tim_links(links, mask), memo, verifications)
        (passed if result.verdict else failed).setdefault(_pairs(result.verified), result)
    # A dominator has a strictly larger sum and dominance is transitive, so
    # in descending-sum order each tuple need only be tested against the
    # undominated tuples kept before it.
    undominated: list[tuple] = []
    for key in sorted(passed, key=lambda key: sum(passed[key].verified), reverse=True):
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
