import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MIXED_CROSS,
    MIXED_DIAG,
    grid_tin_feasible,
    random_channel,
    reference_tin_feasible,
    reference_tin_symmetric,
    single_stream_gdof,
    symmetric_tin_optimum,
    tin_subchannel,
)
from timtin import decomp, tin
from timtin.fixtures import BASELINE_TIM_LINKS, IMPROVED_TIM_LINKS, five_user_network
from timtin.model import validate_channel
from timtin.tin import Heard, Scaled, single_level_gdof, tin_symmetric


def tin_component(tim_links):
    """The reference network and the heard lists of the TIN side of the
    map whose TIM side is ``tim_links``."""
    network = five_user_network()
    return network, Heard.of(network, decomp.split(network, tim_links).tin_links)


def tin_feasible(cm, targets, heard=None):
    """tin.tin_feasible on number-like targets, every link heard by default."""
    return tin.tin_feasible(cm, Scaled.of(cm, targets), Heard.of(cm) if heard is None else heard)


def symmetric(cm, heard=None):
    """tin_symmetric's (t, solution), every link heard by default."""
    sym = tin_symmetric(cm, Heard.of(cm) if heard is None else heard)
    return sym.t, sym.solution


def test_no_cross_links_full_targets_feasible():
    cm = validate_channel([["1", "0"], ["0", "0.7"]])
    sol = tin_feasible(cm, [1, Fraction(7, 10)])
    assert sol.feasible and sol.r == (0, 0)


def test_reference_weak_component_symmetric():
    cm, links = tin_component(BASELINE_TIM_LINKS)
    d, sol = symmetric(cm, links)
    assert d == Fraction(3, 5)
    assert sol.r == (0, Fraction(-1, 10), Fraction(-1, 5), Fraction(-3, 10), Fraction(-2, 5))
    assert tin_feasible(cm, [Fraction(3, 5)] * 5, links).feasible
    assert not tin_feasible(cm, [Fraction(3, 5) + Fraction(1, 10**6)] * 5, links).feasible


def test_reference_reduced_component_symmetric():
    cm, links = tin_component(IMPROVED_TIM_LINKS)
    d, sol = symmetric(cm, links)
    assert d == Fraction(2, 3)
    assert sol.r == (0, Fraction(-1, 6), 0, Fraction(-1, 6), Fraction(-1, 3))


def test_symmetric_optimum_is_built_on_first_read():
    cm, links = tin_component(BASELINE_TIM_LINKS)
    sym = tin_symmetric(cm, links)
    assert "t" not in vars(sym)  # no Fraction until t is read
    assert sym.t is sym.t == Fraction(3, 5) and sym.solution.feasible


def test_single_user_symmetric():
    d, sol = symmetric(validate_channel([["1"]]))
    assert d == 1 and sol.r == (0,)


def test_zero_targets_are_always_feasible():
    # strong mutual interference: nothing positive is feasible, zero is
    cm = validate_channel([["1", "2"], ["2", "1"]])
    assert tin_feasible(cm, [0, 0]).feasible
    assert not tin_feasible(cm, [Fraction(1, 100), Fraction(1, 100)]).feasible
    d, _ = symmetric(cm)
    assert d == 0


def test_zero_target_user_imposes_nothing():
    # user 1 suffers overwhelming interference but only user 2 has a target
    cm = validate_channel([["1", "3"], ["0.5", "1"]])
    sol = tin_feasible(cm, [0, 1])
    assert sol.feasible
    achieved = single_level_gdof(cm, sol.r, Heard.of(cm))
    assert achieved[1] >= 1


def test_feasibility_certificate_via_formula():
    rng = random.Random(5)
    for _ in range(50):
        K = rng.randint(1, 4)
        cm = random_channel(rng, K)
        targets = [Fraction(rng.randint(0, 4), 8) for _ in range(K)]
        sol = tin_feasible(cm, targets)
        if sol.feasible:
            achieved = single_stream_gdof(cm, sol.r)
            assert all(a >= t for a, t in zip(achieved, targets))
            assert all(x <= 0 for x in sol.r)


def test_infeasibility_certificate_is_negative_cycle():
    rng = random.Random(6)
    seen = 0
    for _ in range(200):
        K = rng.randint(2, 4)
        cm = random_channel(rng, K, cross_prob=0.8)
        targets = [Fraction(rng.randint(0, 8), 8) for _ in range(K)]
        sol = tin_feasible(cm, targets)
        if not sol.feasible:
            seen += 1
            assert sum((w for _, _, w in sol.negative_cycle), Fraction(0)) < 0
            # the cycle is closed
            assert [u for u, _, _ in sol.negative_cycle] == [
                v for _, v, _ in sol.negative_cycle
            ][-1:] + [v for _, v, _ in sol.negative_cycle][:-1]
    assert seen > 10


def test_symmetric_gap_contract():
    rng = random.Random(7)
    for _ in range(25):
        K = rng.randint(1, 4)
        cm = random_channel(rng, K)
        d, sol = symmetric(cm)
        assert sol.feasible
        assert tin_feasible(cm, [d] * K).feasible
        assert not tin_feasible(cm, [d + Fraction(1, 10**6)] * K).feasible


def test_monotonicity_in_links_and_strengths():
    base = validate_channel([["1", "0", "0.5"], ["0", "1", "0"], ["0", "0.5", "1"]])
    with_link = validate_channel([["1", "0.5", "0.5"], ["0", "1", "0"], ["0", "0.5", "1"]])
    stronger = validate_channel([["1", "0", "0.9"], ["0", "1", "0"], ["0", "0.5", "1"]])
    d0, _ = symmetric(base)
    assert symmetric(with_link)[0] <= d0
    assert symmetric(stronger)[0] <= d0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_agrees_with_grid_search(seed):
    rng = random.Random(seed)
    K = rng.randint(2, 3)
    cm = random_channel(
        rng,
        K,
        diag_choices=[Fraction(n, 20) for n in range(20, 31)],
        cross_choices=[Fraction(n, 20) for n in range(1, 11)],
        cross_prob=0.7,
    )
    eps = Fraction(1, 1000)
    targets = [Fraction(rng.randint(0, 12), 20) - eps for _ in range(K)]
    targets = [max(t, Fraction(0)) for t in targets]
    assert tin_feasible(cm, targets).feasible == grid_tin_feasible(cm, targets)


def assert_symmetric_optimum(cm):
    d, sol = symmetric(cm)
    assert d == symmetric_tin_optimum(cm)
    # the returned solution is a feasible point at d itself
    assert sol.feasible and all(x <= 0 for x in sol.r)
    assert all(g >= d for g in single_stream_gdof(cm, sol.r))
    return d


def test_symmetric_optimum_is_exact_on_mixed_denominators():
    # A Z channel with strengths over 97, 101 and 103: the optimum is the
    # ratio of the cycle through both users, 507228/1009091.
    cm = validate_channel([["74/97", "0", "0"], ["52/101", "78/103", "0"], ["0", "0", "88/103"]])
    assert assert_symmetric_optimum(cm) == Fraction(507228, 1009091)


def counted_feasible(monkeypatch):
    """Route tin_symmetric's feasibility checks through a call counter."""
    calls = []
    feasible = tin.tin_feasible

    def counting(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(tin, "tin_feasible", counting)
    return calls


def test_binding_two_cycle_is_the_start(monkeypatch):
    # Both users hear each other at 3/4: the 2-cycle ratio
    # (1 - 3/4 + 1 - 3/4) / 2 = 1/4 is the optimum, so the start is feasible.
    calls = counted_feasible(monkeypatch)
    cm = validate_channel([["1", "3/4"], ["3/4", "1"]])
    d, sol = symmetric(cm)
    assert d == Fraction(1, 4) == symmetric_tin_optimum(cm)
    assert sol.feasible and len(calls) == 1


def test_binding_three_cycle_needs_a_dinkelbach_step(monkeypatch):
    # Receiver k hears transmitter k + 1 at 1/2: every one- and two-user
    # cycle ratio is at least 3/4, the 3-cycle's is 1/2.
    calls = counted_feasible(monkeypatch)
    cm = validate_channel([["1", "1/2", "0"], ["0", "1", "1/2"], ["1/2", "0", "1"]])
    d, sol = symmetric(cm)
    assert d == Fraction(1, 2) == symmetric_tin_optimum(cm)
    assert sol.feasible and len(calls) >= 2


MIXED = [Fraction(n, q) for q in (97, 101, 103) for n in range(q // 4, q)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda K: st.tuples(
            st.lists(st.sampled_from(MIXED[len(MIXED) // 2 :]), min_size=K, max_size=K),
            st.lists(
                st.one_of(st.just(Fraction(0)), st.sampled_from(MIXED)),
                min_size=K * K,
                max_size=K * K,
            ),
        )
    )
)
def test_symmetric_optimum_is_the_minimum_cycle_ratio(drawn):
    diag, cross = drawn
    K = len(diag)
    alpha = [[diag[k] if k == i else cross[k * K + i] for i in range(K)] for k in range(K)]
    assert_symmetric_optimum(validate_channel(alpha))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_integer_core_matches_fraction_reference(seed):
    """Mixed denominators, a random TIN link subset: the integer core gives
    the reference's t*, exponents, fractions and certificates, also when
    the link set carries pairs that are not present cross links of the
    channel (an absent pair, a self link, out-of-range and negative
    indices), which Heard.of drops."""
    rng = random.Random(seed)
    K = rng.randint(1, 5)
    cm = random_channel(rng, K, diag_choices=MIXED_DIAG, cross_choices=MIXED_CROSS,
                        cross_prob=0.6)
    links = frozenset(l for l in cm.cross_links() if rng.random() < 0.6)
    absent = [(k, i) for k in range(K) for i in range(K) if k != i and cm.alpha[k][i] == 0]
    junk = {(0, 0), (K, 0), (-1, 0), *rng.sample(absent, min(1, len(absent)))}
    sub = tin_subchannel(cm, links)
    t_ref, sol_ref = reference_tin_symmetric(sub)
    targets = [rng.choice([0, *MIXED_CROSS]) for _ in range(K)]
    # Heard.of keeps only the present cross links of the set it is given
    assert Heard.of(cm, links | junk) == Heard.of(cm, links)
    for heard in (Heard.of(cm, links), Heard.of(cm, links | junk)):
        t, sol = symmetric(cm, heard)
        assert (t, sol.r) == (t_ref, sol_ref.r)
        assert single_level_gdof(cm, sol.r, heard) == tuple(single_stream_gdof(sub, sol_ref.r))
        # t = C / (m * S) as the scaled targets Dinkelbach passes
        scaled = Scaled(t.denominator, (t.numerator * cm.scale,) * K)
        assert Scaled.of(cm, [t] * K) == scaled
        assert tin.tin_feasible(cm, scaled, heard) == tin_feasible(cm, [t] * K, heard)

        above = [t + Fraction(1, 10**9)] * K
        for d in (above, targets):
            got, want = tin_feasible(cm, d, heard), reference_tin_feasible(sub, d)
            assert got == want
            if not got.feasible:
                cycle = got.negative_cycle
                assert all(type(w) is Fraction for _, _, w in cycle)
                assert sum(w for _, _, w in cycle) < 0
                assert [v for _, v, _ in cycle] == [u for u, _, _ in cycle[1:] + cycle[:1]]
        assert not tin_feasible(cm, above, heard).feasible


def test_targets_become_scaled_only_through_scaled_of():
    """Scaled.of puts number-like targets over one denominator times the
    channel's scale, and refuses a wrong count or a negative target."""
    cm = validate_channel([["1", "1/3"], ["1/2", "1"]])  # S = 6
    assert Scaled.of(cm, ["1/4", 0]) == Scaled(4, (6, 0))
    for bad in ([Fraction(1, 4)], [0, 0, 0], [Fraction(-1, 4), 0]):
        with pytest.raises(ValueError):
            Scaled.of(cm, bad)
