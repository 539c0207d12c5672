import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MIXED_CROSS,
    MIXED_DIAG,
    inside_region,
    pairwise_region,
    random_channel,
    reference_search,
)
from timtin import decomp, evaluator, tin
from timtin.fixtures import BASELINE_TIM_LINKS
from timtin.model import (
    MAX_LCM_BITS,
    ChannelMatrix,
    MapMismatch,
    Scheme,
    Stream,
    WeightMismatch,
    emit_scheme,
    validate_channel,
    validate_scheme,
)
from timtin.tim import TimSolution, TimTopology, tim_solve

# a result's public fields, in the order of its decompose document
FIELDS = (
    "map", "tin_fractions", "tim_fractions", "products", "scheme", "verified", "verdict",
    "tim_method", "power_exponents",
)


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
    """map_mask, the one way from a TIM link set to evaluate_map, refuses a
    link that is not a pair of ints (TimTopology's ValueError) or not a
    present cross link (split's MapMismatch) before either solve."""
    # such links used to be truncated: {(1.7, 0)} became {(1, 0)}, {(True, 2)} {(1, 2)}
    def solve(*args):
        raise AssertionError("solved a map with a bad link")

    monkeypatch.setattr(tin, "tin_symmetric", solve)
    monkeypatch.setattr(decomp, "tim_solve", solve)
    cm = validate_channel([["1", "1", "1"], ["1", "1", "1"], ["1", "1", "1"]])
    with pytest.raises((MapMismatch, ValueError)):
        decomp.evaluate_map(cm, decomp.map_mask(cm, links))


def test_baseline_map_products(baseline_result):
    assert baseline_result.tin_fractions == (Fraction(3, 5),) * 5
    assert baseline_result.tim_fractions == (Fraction(1, 2),) * 5
    assert baseline_result.products == (Fraction(3, 10),) * 5
    assert baseline_result.verified == (Fraction(3, 10),) * 5
    assert baseline_result.verdict is True
    assert baseline_result.tim_method == "half_rate"


def test_verified_is_built_on_first_read(network5):
    result = decomp.evaluate_map(network5, decomp.map_mask(network5, BASELINE_TIM_LINKS))
    assert "verified" not in vars(result)  # no Fraction until verified is read
    assert result.verified is result.verified == (Fraction(3, 10),) * 5


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
    result = decomp.evaluate_map(cm, 0)
    assert result.tin_fractions == (1, Fraction(3, 2))
    assert result.tim_fractions == (1, 1)
    assert result.products == (1, Fraction(3, 2))
    assert result.verified == (1, Fraction(3, 2))
    assert result.scheme.n == 1


def test_single_user_trivial():
    cm = validate_channel([["1"]])
    result = decomp.evaluate_map(cm, 0)
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
    baseline = decomp.evaluate_map(network5, decomp.map_mask(network5, BASELINE_TIM_LINKS))
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
    """Every TIM direction is an int row that leads with 1, so it is its
    own integer_row: each synthesized stream holds the TIM row as given,
    at its user's power exponent in lowest terms."""
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
        assert validate_scheme(r.scheme, cm) is r.scheme
        assert all(type(c) is int for s in r.scheme.streams for c in s.vector)
        directions = tim_solve(TimTopology(cm.K, r.map.tim_links)).directions
        assert [s.vector for s in r.scheme.streams] == [v for vs in directions for v in vs]
        assert r.scheme.users == tuple(u for u, vs in enumerate(directions) for _ in vs)
        assert [s.power_exp for s in r.scheme.streams] == [r.power_exponents[u] for u in r.scheme.users]
    # an explicit case: exponents -2/4 and 0/4 enter in lowest terms
    rows = ((1, 0, 3), (0, 0, 1)), ((0, 1, -2),)
    sol = TimSolution((Fraction(2, 3), Fraction(1, 3)), "coloring", 3, rows)
    built = decomp.synthesize_scheme((4, (-2, 0)), sol)
    expected = Scheme(3, (
        Stream(0, (1, 0, 3), Fraction(-1, 2)),
        Stream(0, (0, 0, 1), Fraction(-1, 2)),
        Stream(1, (0, 1, -2), 0),
    ))
    assert built == expected and repr(built) == repr(expected)
    assert [s.power_exp.as_integer_ratio() for s in built.streams] == [(-1, 2), (-1, 2), (0, 1)]
    assert built.users == (0, 0, 1)
    assert built.scaled_powers == (2, (-1, -1, 0))


def _mask_of(result, links) -> int:
    return sum(1 << b for b, link in enumerate(links) if link in result.map.tim_links)


@pytest.mark.parametrize("cap", [decomp.SearchBudget().exhaustive_cap, 3])
def test_search_results_in_mask_order(cap, monkeypatch):
    """The frontier and the failed results each ascend in map bitmask,
    each verified tuple is represented by the lowest mask of its verdict
    that reaches it, and each list holds only results of its own verdict.
    No test network fails a verdict, so a second, lossy pass takes 1 off
    user 0's verified numerator on even blocks, which fails many maps with
    few distinct tuples."""
    cm = random_channel(random.Random(7), 4, cross_prob=0.6)
    links = cm.cross_links()
    budget = decomp.SearchBudget(exhaustive_cap=cap)
    scaled_gdof = evaluator.scaled_gdof

    def lossy_gdof(n, streams, channel):
        D, N = scaled_gdof(n, streams, channel)
        return (D, (N[0] - 1, *N[1:])) if n % 2 == 0 else (D, N)

    for lossy in (False, True):
        if lossy:
            monkeypatch.setattr(evaluator, "scaled_gdof", lossy_gdof)
        first_mask = {}
        for mask in decomp.candidate_masks(cm, budget):
            result = decomp.evaluate_map(cm, mask)
            first_mask.setdefault((result.verdict, result.verified), mask)
        report = decomp.search(cm, budget)
        assert bool(report.failed) is lossy
        for group, verdict in ((report.frontier, True), (report.failed, False)):
            masks = [_mask_of(r, links) for r in group]
            assert masks == sorted(masks)
            assert masks == [first_mask[verdict, r.verified] for r in group]
            assert all(r.verdict is verdict for r in group)


def test_search_verifies_each_distinct_scheme_once(monkeypatch):
    """Maps that yield the same scheme share one verification: search hands
    the evaluator's integer verification the int form of exactly the
    distinct schemes that memo-less evaluation finds over every mask, each
    once, and builds no scheme.  A result builds its scheme by
    synthesize_scheme, looked up at call time, on its first read only."""
    cm = random_channel(random.Random(7), 4, cross_prob=0.6)
    links = cm.cross_links()
    distinct = {decomp.evaluate_map(cm, mask).scheme for mask in range(1 << len(links))}
    synthesize, scaled_gdof = decomp.synthesize_scheme, evaluator.scaled_gdof
    schemes, verified = [], []

    def record_scheme(*args):
        schemes.append(synthesize(*args))
        return schemes[-1]

    def record_verification(n, streams, channel):
        users, rows, (Q, N) = streams
        verified.append((n, tuple(users), tuple(rows), tuple(Fraction(p, Q) for p in N)))
        return scaled_gdof(n, streams, channel)

    monkeypatch.setattr(decomp, "synthesize_scheme", record_scheme)
    monkeypatch.setattr(evaluator, "scaled_gdof", record_verification)
    report = decomp.search(cm)
    assert schemes == []
    assert len(verified) == len(set(verified)) == len(distinct) < 1 << len(links)
    assert set(verified) == {
        (s.n, s.users, tuple(x.vector for x in s.streams), tuple(x.power_exp for x in s.streams))
        for s in distinct
    }
    result = report.frontier[0]
    first = result.scheme
    assert schemes == [first]
    assert result.scheme is first and schemes == [first]  # a second read builds nothing
    assert first == decomp.evaluate_map(cm, _mask_of(result, links)).scheme


def test_a_scheme_is_checked_when_read():
    """A search verifies each map on ints and builds no scheme, so a map
    whose scheme the Scheme refuses (its power exponents' denominator lcm
    one bit over MAX_LCM_BITS, as a TIN solve halves a target on a channel
    at the limit) is still evaluated: reading its scheme raises, and a
    search whose frontier holds only other maps succeeds."""
    d0, d1, d2 = 2**10925 + 5, 2**10921 + 3, 2**10921 + 9
    weak = Fraction(7 * d1 // 10, d1), Fraction(7 * d2 // 10, d2)
    cm = ChannelMatrix(2, ((1, weak[0]), (weak[1], 1 - Fraction(1, d0))))
    assert cm.scale.bit_length() == MAX_LCM_BITS
    result = decomp.evaluate_map(cm, 0)  # both links treated as noise
    assert result.ints[5][0].bit_length() == MAX_LCM_BITS + 1
    with pytest.raises(ValueError, match="power exponents' denominator lcm passes"):
        result.scheme
    report = decomp.search(cm)
    assert [_mask_of(r, cm.cross_links()) for r in report.frontier] == [3] and report.failed == []
    assert report.frontier[0].scheme.n == 2


def test_equal_tim_solutions_share_one_directions_object():
    """Signatures whose TimSolutions have equal (n, directions) hold one
    directions object, the first seen, and the verification cache holds
    only reduced (denominator, numerators) ints, no scheme."""
    cm = random_channel(random.Random(7), 4, cross_prob=0.6)
    caches = decomp._Caches(cm)
    for mask in range(1 << len(caches.links)):
        decomp.evaluate_map(cm, mask, caches)
    first = {}
    for tim_sol, index in caches.tim.values():
        kept = first.setdefault((tim_sol.n, tim_sol.directions), tim_sol.directions)
        assert tim_sol.directions is kept
        assert caches.canonical[tim_sol.n, kept] == (index, kept)
    assert len(first) == len(caches.canonical) < len(caches.tim)  # signatures share solutions
    for D, N in caches.verified.values():
        assert type(D) is int and all(type(x) is int for x in N)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_shared_memos_match_memo_less_evaluation(seed):
    """evaluate_map with one _Caches shared across every mask returns,
    field by field, what it returns with a fresh one."""
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K, cross_prob=rng.choice([0.3, 0.6]))
    caches = decomp._Caches(cm)
    for mask in decomp.candidate_masks(cm, decomp.SearchBudget(exhaustive_cap=6)):
        shared = decomp.evaluate_map(cm, mask, caches)
        alone = decomp.evaluate_map(cm, mask)
        for name in FIELDS:
            assert getattr(shared, name) == getattr(alone, name), (name, mask)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([6, 3]), st.booleans())
def test_mask_and_link_set_evaluations_agree(seed, cap, mixed):
    """map_mask turns a map's TIM link set back into its bitmask, and
    evaluate_map on that mask returns, field by field, the same result with
    one shared _Caches (as a search passes it) and with a fresh one,
    exhaustive up to the cap and the threshold family beyond it."""
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    options = {"diag_choices": MIXED_DIAG, "cross_choices": MIXED_CROSS} if mixed else {}
    cm = random_channel(rng, K, cross_prob=rng.choice([0.3, 0.6]), **options)
    links = cm.cross_links()
    caches = decomp._Caches(cm)
    for mask in decomp.candidate_masks(cm, decomp.SearchBudget(exhaustive_cap=cap)):
        tim_links = decomp._tim_links(links, mask)
        assert decomp.map_mask(cm, tim_links) == mask
        results = [decomp.evaluate_map(cm, mask, caches), decomp.evaluate_map(cm, mask)]
        assert results[0].map.tim_links == tim_links
        for name in FIELDS:
            assert len({repr(getattr(r, name)) for r in results}) == 1, (name, mask)
        assert results[0] == results[1]


def test_caches_of_another_channel_are_a_map_mismatch():
    """Two channels with the same cross links share no caches: evaluate_map
    refuses one channel's _Caches for the other (sharing them once gave
    the second channel the first one's verified tuple, (1/2, 1/2) here),
    takes them for an equal channel, and alone gives each its own value."""
    weak = validate_channel([["1", "1/2"], ["1/2", "1"]])
    strong = validate_channel([["1", "9/10"], ["9/10", "1"]])
    caches = decomp._Caches(weak)
    assert decomp.evaluate_map(weak, 0, caches).verified == (Fraction(1, 2),) * 2
    with pytest.raises(MapMismatch):
        decomp.evaluate_map(strong, 0, caches)
    assert decomp.evaluate_map(validate_channel(weak.alpha), 0, caches).verified == (Fraction(1, 2),) * 2
    assert decomp.evaluate_map(strong, 0).verified == (Fraction(1, 10),) * 2


@pytest.mark.parametrize("mask", [True, False, -1, 1 << 11, 1 << 40])
def test_evaluate_map_rejects_a_mask_outside_the_maps(network5, mask, monkeypatch):
    """A map bitmask is an int in 0..2^L - 1 (L = 11 here); a bool, a
    negative mask or one of 2^L or more is a MapMismatch before any solve."""
    def solve(*args):
        raise AssertionError("solved a map with a bad mask")

    monkeypatch.setattr(tin, "tin_symmetric", solve)
    monkeypatch.setattr(decomp, "tim_solve", solve)
    with pytest.raises(MapMismatch):
        decomp.evaluate_map(network5, mask)


def test_threshold_search_caches_only_the_sub_masks_it_sees(monkeypatch):
    """A threshold-mode search whose receiver 0 hears 20 transmitters fills
    each receiver's sub-mask cache with one entry per distinct sub-mask
    of its links among the masks evaluated, not a 2^20 table."""
    K = 21
    alpha = [["1" if k == i else "0" for i in range(K)] for k in range(K)]
    alpha[0][1:] = [["1/4", "1/2", "3/4"][i % 3] for i in range(K - 1)]
    cm = validate_channel(alpha)
    evaluate, calls = decomp.evaluate_map, []

    def recorded(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(decomp, "evaluate_map", recorded)
    report = decomp.search(cm, decomp.SearchBudget(exhaustive_cap=3))
    masks, caches = [mask for _, mask, _ in calls], calls[0][2]
    assert report.evaluated == len(masks) < 100 and all(c[2] is caches for c in calls)
    assert caches.receivers[0][:2] == (0, (1 << 20) - 1)  # receiver 0 holds every link
    for shift, width, _, views in caches.receivers:
        assert set(views) == {mask >> shift & width for mask in masks}
    assert len(caches.tim) <= len(set(masks))


def test_a_search_hashes_no_fraction(network5, monkeypatch):
    """After a warm-up search, a fixture5 search hashes no Fraction and
    builds at most 1,398: none per map, as tin_symmetric's t and the
    results' lazy fields, their schemes included, are never read."""
    decomp.search(network5)
    counts = {"__new__": 0, "__hash__": 0}

    def counted(name):
        original = getattr(Fraction, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    for name in counts:
        monkeypatch.setattr(Fraction, name, counted(name))
    decomp.search(network5)
    monkeypatch.undo()
    assert counts["__hash__"] == 0 and counts["__new__"] <= 1398, counts


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_frontier_equals_all_pairs_dominance_filter(seed):
    """search's frontier is the passed tuples no other passed tuple
    dominates, each from its first (lowest) mask, in mask order."""
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K, cross_prob=rng.choice([0.3, 0.6]))
    budget = decomp.SearchBudget(exhaustive_cap=6)
    passed = {}
    for mask in decomp.candidate_masks(cm, budget):
        result = decomp.evaluate_map(cm, mask)
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
            for name in FIELDS:
                assert getattr(result, name) == getattr(reference, name), name
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
    heard = tin.Heard.of(channel)
    feasible = lambda d: tin.tin_feasible(channel, tin.Scaled.of(channel, d), heard).feasible
    for result in report.frontier + report.failed:
        assert feasible(result.verified), result.verified
        if result.verdict:
            assert feasible(result.products), result.products


STRENGTHS = [Fraction(n, 4) for n in range(1, 13)]  # quarters up to 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_every_verified_tuple_lies_in_every_pairwise_region(seed):
    """An upper bound from outside the library: every tuple a search
    verifies is achievable, so it lies in the two-user region of every pair
    of users (oracles.pairwise_region).  K <= 4, direct and cross strengths
    in quarters up to 3, so cross links above direct ones occur; exhaustive
    up to 6 cross links, the threshold family beyond."""
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K, diag_choices=STRENGTHS, cross_choices=STRENGTHS,
                        cross_prob=rng.choice([0.3, 0.6]))
    report = decomp.search(cm, decomp.SearchBudget(exhaustive_cap=6))
    rows = pairwise_region(cm.alpha)
    for result in report.frontier + report.failed:
        assert inside_region(rows, result.verified), (cm.alpha, result.verified)


def test_strong_interference_z_channel_stays_in_its_pairwise_region():
    """Transmitter 0 reaches receiver 1 at 3, above both direct strengths
    (2 and 1).  The pair's sum bound is then (2 - 3)+ + max(1, 3) = 3; its
    weak-interference form, n_11 = 1 in place of max(n_11, n_01), would cut
    off the verified (2, 0), user 0 at its full direct strength."""
    cm = validate_channel([["2", "0"], ["3", "1"]])
    rows = pairwise_region(cm.alpha)
    assert rows[:3] == [((1, 0), 2), ((0, 1), 1), ((1, 1), 3)]
    report = decomp.search(cm)
    verified = [r.verified for r in report.frontier + report.failed]
    assert verified == [(2, 0), (1, Fraction(1, 2))]
    assert all(inside_region(rows, v) for v in verified)


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
