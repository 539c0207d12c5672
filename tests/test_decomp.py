import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MIXED_CROSS, MIXED_DIAG, random_channel, reference_search
from timtin import decomp, evaluator, tin
from timtin.fixtures import BASELINE_TIM_LINKS
from timtin.model import (
    ChannelMatrix,
    MapMismatch,
    WeightMismatch,
    emit_scheme,
    validate_channel,
    validate_scheme,
)
from timtin.tim import TimTopology, tim_solve


def test_split_reference_components(network5):
    dmap = decomp.split(network5, BASELINE_TIM_LINKS)
    # TIN side keeps the weak links only
    assert (0, 1) in dmap.tin_links and (0, 3) not in dmap.tin_links
    assert {network5.alpha[k][i] for k, i in dmap.tin_links} == {Fraction(1, 2)}
    assert dmap.tim_links == BASELINE_TIM_LINKS


def test_split_is_lossless(network5):
    rng = random.Random(3)
    links = network5.cross_links()
    for _ in range(20):
        tim = frozenset(l for l in links if rng.random() < 0.5)
        dmap = decomp.split(network5, tim)
        assert dmap.tim_links | dmap.tin_links == set(links)
        assert dmap.tim_links.isdisjoint(dmap.tin_links)
        assert dmap.tim_links == tim


def test_split_rejects_wrong_map(network5):
    # an absent link, a self link and a user out of range, then links equal
    # to the present cross link (0, 1) but not pairs of ints, which once
    # passed split's subset test ((0.0, 1) became [[1.0, 2]] in a map file)
    assert (0, 1) in network5.link_set
    for tim_links in (
        {(0, 2)}, {(0, 3), (1, 1)}, {(0, 3), (5, 0)}, {(0.0, 1)}, {(False, 1)}, {(0, 1.0)}
    ):
        with pytest.raises(MapMismatch):
            decomp.split(network5, tim_links)


def test_all_links_to_tin_gives_empty_tim(network5):
    dmap = decomp.split(network5, frozenset())
    assert dmap.tim_links == frozenset() and dmap.tin_links == network5.link_set


@pytest.mark.parametrize("links", [{(1.7, 0)}, {(True, 2)}, {(1.0, 0)}, {(0, 1, 2)}])
def test_evaluate_map_rejects_non_int_tim_links(links, monkeypatch):
    """evaluate_map refuses a link that is not a pair of ints (TimTopology's
    ValueError) or not a present cross link (split's MapMismatch) before
    either solve."""
    # such links used to be truncated: {(1.7, 0)} became {(1, 0)}, {(True, 2)} {(1, 2)}
    def solve(*args):
        raise AssertionError("solved a map with a bad link")

    monkeypatch.setattr(tin, "tin_symmetric", solve)
    monkeypatch.setattr(decomp, "tim_solve", solve)
    cm = validate_channel([["1", "1", "1"], ["1", "1", "1"], ["1", "1", "1"]])
    with pytest.raises((MapMismatch, ValueError)):
        decomp.evaluate_map(cm, links)


def test_baseline_map_products(baseline_result):
    assert baseline_result.tin_fractions == (Fraction(3, 5),) * 5
    assert baseline_result.tim_fractions == (Fraction(1, 2),) * 5
    assert baseline_result.products == (Fraction(3, 10),) * 5
    assert baseline_result.verified == (Fraction(3, 10),) * 5
    assert baseline_result.verdict is True
    assert baseline_result.tim_method == "half_rate"


def test_improved_map_products(improved_result):
    assert improved_result.products == (Fraction(1, 3),) * 5
    assert improved_result.verified == (Fraction(1, 3),) * 5
    assert improved_result.verdict is True


def test_baseline_scheme_shape(baseline_result):
    scheme = baseline_result.scheme
    assert scheme.n == 2 and len(scheme.streams) == 5
    directions = [s.vector for s in scheme.streams]
    assert directions[1] == directions[4]  # aligned pair
    assert len(set(directions)) == 4
    assert baseline_result.power_exponents == (
        0,
        Fraction(-1, 10),
        Fraction(-1, 5),
        Fraction(-3, 10),
        Fraction(-2, 5),
    )


def test_improved_scheme_shape(improved_result):
    scheme = improved_result.scheme
    assert scheme.n == 2 and len(scheme.streams) == 5
    directions = [s.vector for s in scheme.streams]
    assert directions[0] == directions[2]
    assert directions[1] == directions[4]
    assert len(set(directions)) == 3
    assert improved_result.power_exponents == (
        0,
        Fraction(-1, 6),
        0,
        Fraction(-1, 6),
        Fraction(-1, 3),
    )


def test_interference_free_channel_products():
    cm = validate_channel([["1", "0"], ["0", "1.5"]])
    result = decomp.evaluate_map(cm, frozenset())
    assert result.tin_fractions == (1, Fraction(3, 2))
    assert result.tim_fractions == (1, 1)
    assert result.products == (1, Fraction(3, 2))
    assert result.verified == (1, Fraction(3, 2))
    assert result.scheme.n == 1


def test_single_user_trivial():
    cm = validate_channel([["1"]])
    result = decomp.evaluate_map(cm, frozenset())
    assert result.scheme.n == 1
    assert result.scheme.streams[0].power_exp == 0
    assert result.verified == (1,)


def test_search_frontier_contains_improved_value(network5):
    report = decomp.search(network5)
    # every one of the 2^11 maps verified at or above its product
    assert report.failed == []
    assert all(r.verdict for r in report.frontier)
    assert max(min(r.verified) for r in report.frontier) >= Fraction(1, 3)
    # the naive strong-links-to-TIM split is strictly dominated
    baseline = decomp.evaluate_map(network5, BASELINE_TIM_LINKS)
    assert min(baseline.verified) == Fraction(3, 10) < Fraction(1, 3)


def test_exhaustive_frontier_dominates_threshold_family(network5):
    exhaustive = [r.verified for r in decomp.search(network5).frontier]
    tight = decomp.search(network5, decomp.SearchBudget(exhaustive_cap=4))
    for r in tight.frontier + tight.failed:
        assert any(
            all(e >= v for e, v in zip(point, r.verified)) for point in exhaustive
        )


def test_search_is_deterministic():
    cm = validate_channel([["1", "0.5", "0"], ["1", "1", "0.5"], ["0", "0.5", "1"]])
    first = decomp.search(cm)
    second = decomp.search(cm)
    assert first == second


def test_search_verdicts_hold_on_random_channels():
    rng = random.Random(9)
    for _ in range(6):
        K = rng.randint(2, 3)
        cm = random_channel(rng, K, cross_prob=0.6)
        report = decomp.search(cm)
        for r in report.frontier + report.failed:
            assert r.verdict, (cm.alpha, r.map, r.products, r.verified)


def test_search_no_cross_links():
    cm = validate_channel([["1", "0"], ["0", "0.75"]])
    report = decomp.search(cm)
    assert (len(report.frontier), report.failed, report.evaluated) == (1, [], 1)
    assert report.frontier[0].products == (1, Fraction(3, 4))


def test_threshold_family_when_over_budget(network5):
    budget = decomp.SearchBudget(exhaustive_cap=4)
    masks = decomp.candidate_masks(network5, budget)
    assert 0 in masks  # the all-TIN map is always tried
    assert len(masks) <= 2 + 2 * 11 + 11 * 2
    report = decomp.search(network5, budget)
    assert all(r.verdict for r in report.frontier + report.failed)


@pytest.mark.parametrize("cap", [decomp.SearchBudget().exhaustive_cap, 4])
def test_search_reports_the_maps_it_evaluated(network5, monkeypatch, cap):
    """evaluated counts the evaluate_map calls of the one pass, which are
    the candidate masks: all 2^11 maps, or the threshold family at cap 4."""
    budget = decomp.SearchBudget(exhaustive_cap=cap)
    masks = decomp.candidate_masks(network5, budget)
    assert (len(masks) == 1 << 11) == (cap >= 11)  # L = 11 cross links
    evaluate, calls = decomp.evaluate_map, []

    def counted_evaluate(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(decomp, "evaluate_map", counted_evaluate)
    assert decomp.search(network5, budget).evaluated == len(calls) == len(masks)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_synthesized_schemes_are_already_normalized(seed):
    """synthesize_scheme skips validate_scheme: every TIM direction leads
    with 1, so normalizing a searched scheme changes nothing."""
    rng = random.Random(seed)
    K = rng.randint(2, 6)
    links = frozenset(
        (k, i) for k in range(K) for i in range(K) if k != i and rng.random() < 0.4
    )
    for user_dirs in tim_solve(TimTopology(K, links)).directions:
        for vec in user_dirs:
            assert all(type(c) is int for c in vec)  # TIM directions are integral
            assert next(c for c in vec if c != 0) == 1
    cm = random_channel(rng, K, cross_prob=min(0.5, 6 / (K * (K - 1))))
    report = decomp.search(cm, decomp.SearchBudget(exhaustive_cap=7))
    for r in report.frontier + report.failed:
        assert validate_scheme(r.scheme, cm) == r.scheme
        # the model boundary is unchanged: scheme coordinates are Fractions
        assert all(type(c) is Fraction for s in r.scheme.streams for c in s.vector)


def _mask_of(result, links) -> int:
    return sum(1 << b for b, link in enumerate(links) if link in result.map.tim_links)


@pytest.mark.parametrize("cap", [decomp.SearchBudget().exhaustive_cap, 3])
def test_search_results_in_mask_order(cap):
    """The frontier and the failed results each ascend in map bitmask,
    each verified tuple is represented by the lowest mask that reaches it,
    and each list holds only results of its own verdict."""
    cm = random_channel(random.Random(7), 4, cross_prob=0.6)
    links = cm.cross_links()
    budget = decomp.SearchBudget(exhaustive_cap=cap)
    first_mask = {}
    for mask in decomp.candidate_masks(cm, budget):
        verified = decomp.evaluate_map(cm, decomp._tim_links(links, mask)).verified
        first_mask.setdefault(verified, mask)
    report = decomp.search(cm, budget)
    for group, verdict in ((report.frontier, True), (report.failed, False)):
        masks = [_mask_of(r, links) for r in group]
        assert masks == sorted(masks)
        assert masks == [first_mask[r.verified] for r in group]
        assert all(r.verdict is verdict for r in group)


def test_search_verifies_each_distinct_scheme_once(monkeypatch):
    """Maps that yield the same scheme share one synthesis and one
    verification: search synthesizes exactly the distinct schemes that
    memo-less evaluation finds over every mask, and hands each to the
    evaluator's integer verification once, right after synthesizing it."""
    cm = random_channel(random.Random(7), 4, cross_prob=0.6)
    links = cm.cross_links()
    distinct = {
        decomp.evaluate_map(cm, decomp._tim_links(links, mask)).scheme
        for mask in range(1 << len(links))
    }
    synthesize, scaled_gdof = decomp.synthesize_scheme, evaluator.scaled_gdof
    schemes, verified = [], []

    def record_scheme(*args):
        schemes.append(synthesize(*args))
        return schemes[-1]

    def record_verification(scheme, channel):
        verified.append(scheme)
        return scaled_gdof(scheme, channel)

    monkeypatch.setattr(decomp, "synthesize_scheme", record_scheme)
    monkeypatch.setattr(evaluator, "scaled_gdof", record_verification)
    decomp.search(cm)
    assert len(schemes) == len(set(schemes))  # no scheme is synthesized twice
    assert set(schemes) == distinct
    assert len(schemes) < 1 << len(links)  # some maps share a scheme
    assert [id(s) for s in verified] == [id(s) for s in schemes]  # each verified once


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_shared_memos_match_memo_less_evaluation(seed):
    """evaluate_map with one memo/verifications pair shared across
    every mask returns, field by field, what it returns without memos."""
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K, cross_prob=rng.choice([0.3, 0.6]))
    links = cm.cross_links()
    memo, verifications = {}, {}
    for mask in decomp.candidate_masks(cm, decomp.SearchBudget(exhaustive_cap=6)):
        tim_links = decomp._tim_links(links, mask)
        shared = decomp.evaluate_map(cm, tim_links, memo, verifications)
        alone = decomp.evaluate_map(cm, tim_links)
        for field in fields(shared):
            assert getattr(shared, field.name) == getattr(alone, field.name), (field.name, mask)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_frontier_equals_all_pairs_dominance_filter(seed):
    """search's frontier is the passed tuples no other passed tuple
    dominates, each from its first (lowest) mask, in mask order."""
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K, cross_prob=rng.choice([0.3, 0.6]))
    budget = decomp.SearchBudget(exhaustive_cap=6)
    links = cm.cross_links()
    passed = {}
    for mask in decomp.candidate_masks(cm, budget):
        result = decomp.evaluate_map(cm, decomp._tim_links(links, mask))
        if result.verdict:
            passed.setdefault(result.verified, result)
    expected = [
        res for tup, res in passed.items()
        if not any(o != tup and all(a >= b for a, b in zip(o, tup)) for o in passed)
    ]
    assert decomp.search(cm, budget).frontier == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.sampled_from([6, 3]), st.booleans())
def test_search_equals_the_eager_fraction_reference(seed, K, cap, mixed):
    """search's report, field by field and in order, with every scheme's
    emitted text, equals the eager reference that builds every value of
    every map as a Fraction: exhaustive while the cross links do not
    exceed the cap (6 or 3), the threshold family beyond."""
    rng = random.Random(seed)
    options = {"diag_choices": MIXED_DIAG, "cross_choices": MIXED_CROSS} if mixed else {}
    cm = random_channel(rng, K, cross_prob=rng.choice([0.3, 0.5]), **options)
    budget = decomp.SearchBudget(exhaustive_cap=cap)
    got, want = decomp.search(cm, budget), reference_search(cm, budget)
    assert got.evaluated == want.evaluated
    for group, expected in ((got.frontier, want.frontier), (got.failed, want.failed)):
        assert len(group) == len(expected)
        for result, reference in zip(group, expected):
            for field in fields(result):
                assert getattr(result, field.name) == getattr(reference, field.name), field.name
            assert emit_scheme(result.scheme) == emit_scheme(reference.scheme)


QUARTERS = [Fraction(n, 4) for n in range(9)]


@st.composite
def tin_optimal_channels(draw):
    """Channels in which every user k has alpha_kk >= max_{j != k} alpha_jk
    + max_{i != k} alpha_ki, the condition under which the polyhedral TIN
    region is the whole GDoF region (Geng, Naderializadeh, Avestimehr and
    Jafar, arXiv:1305.4610).  K <= 5 and at most 8 cross links, so that a
    search is exhaustive."""
    K = draw(st.integers(1, 5))
    pairs = [(k, i) for k in range(K) for i in range(K) if k != i]
    links = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    alpha = [[Fraction(0)] * K for _ in range(K)]
    for k, i in links:
        alpha[k][i] = draw(st.sampled_from(QUARTERS[1:]))
    for k in range(K):
        heard = max(alpha[k][i] for i in range(K) if i != k) if K > 1 else 0
        caused = max(alpha[j][k] for j in range(K) if j != k) if K > 1 else 0
        alpha[k][k] = max(heard + caused + draw(st.sampled_from(QUARTERS[:5])), QUARTERS[1])
    return ChannelMatrix(K, tuple(map(tuple, alpha)))


@settings(max_examples=60, deadline=None)
@given(tin_optimal_channels())
def test_no_verified_tuple_leaves_the_tin_region_where_tin_is_optimal(channel):
    """Where TIN is GDoF-optimal, every tuple the search verifies, and every
    product a passing result claims, is TIN-feasible with every link heard:
    a tuple outside would be an evaluator or synthesis defect."""
    report = decomp.search(channel)
    assert report.evaluated == 1 << len(channel.link_set)
    for result in report.frontier + report.failed:
        assert tin.tin_feasible(channel, result.verified).feasible, result.verified
        if result.verdict:
            assert tin.tin_feasible(channel, result.products).feasible, result.products


def test_time_share_identity_and_mixing(baseline_result, improved_result):
    assert decomp.time_share([baseline_result.verified], [1]) == (Fraction(3, 10),) * 5
    assert decomp.time_share([(1, 0), (0, 1)], ["1/2", "1/2"]) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    mixed = decomp.time_share(
        [baseline_result.verified, improved_result.verified], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert mixed == (Fraction(19, 60),) * 5


def test_time_share_rejects_bad_weights(baseline_result):
    with pytest.raises(WeightMismatch):
        decomp.time_share([baseline_result.verified], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(WeightMismatch):
        decomp.time_share([baseline_result.verified], [Fraction(1, 2)])
    with pytest.raises(WeightMismatch):
        decomp.time_share([baseline_result.verified] * 2, [2, -1])
