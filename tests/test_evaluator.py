import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MIXED_CROSS,
    MIXED_DIAG,
    max_weight_independent_sum,
    random_channel,
    random_scheme,
    random_weighted_vectors,
    single_stream_gdof,
)
from timtin import evaluator
from timtin.evaluator import (
    gdof_report,
    logdet_exponent,
    user_gdof,
)
from timtin.model import DimensionMismatch, Scheme, Stream, validate_channel


def chain_rule_split(scheme, cm, k):
    """User k's per-stream GDoF by the chain rule, read off user_gdof's
    combined exponent once each prefix of k's streams is left out."""
    own = [i for i, s in enumerate(scheme.streams) if s.user == k]
    combined = [
        user_gdof(
            Scheme(scheme.n, tuple(s for i, s in enumerate(scheme.streams) if i not in own[:l])),
            cm,
            k,
        ).combined_exp
        for l in range(len(own) + 1)
    ]
    return tuple((combined[l] - combined[l + 1]) / scheme.n for l in range(len(own)))


def wv(vec, exp):
    return (tuple(Fraction(c) for c in vec), Fraction(exp))


def pairs_from(raw):
    return [wv(vec, exp) for vec, exp in raw]


def test_single_vector():
    assert logdet_exponent([wv([1, 0], Fraction(1, 2))]) == Fraction(1, 2)


def test_two_strongest_span_plane():
    raw = [
        ([1, 0], Fraction(1)),
        ([0, 1], Fraction(4, 5)),
        ([1, 1], Fraction(1, 2)),
        ([1, 1], Fraction(3, 10)),
        ([1, 2], Fraction(1, 5)),
    ]
    pairs = pairs_from(raw)
    assert logdet_exponent(pairs) == Fraction(9, 5)
    assert max_weight_independent_sum(pairs) == Fraction(9, 5)


def test_independent_pair_both_kept():
    raw = [([1, 1], Fraction(7, 10)), ([1, 2], Fraction(2, 5))]
    pairs = pairs_from(raw)
    assert logdet_exponent(pairs) == Fraction(11, 10)
    assert max_weight_independent_sum(pairs) == Fraction(11, 10)


def test_empty_family_is_zero():
    # the int zero: a receiver that hears no stream gives an integer exponent
    assert type(logdet_exponent([])) is int and logdet_exponent([]) == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        logdet_exponent([wv([1, 0], 1), wv([1], 1)])


def test_skips_below_noise_pair():
    # a pair below the noise floor adds nothing, even when independent of the rest
    assert logdet_exponent([wv([1], Fraction(-1, 2))]) == 0
    assert logdet_exponent([wv([1, 0], 1), wv([0, 1], Fraction(-1, 2))]) == 1


def test_matches_brute_force_on_random_instances():
    rng = random.Random(7)
    for _ in range(100):
        raw = random_weighted_vectors(rng)
        assert logdet_exponent(raw) == max_weight_independent_sum(raw)


def _rational_scheme(rng: random.Random, K: int) -> Scheme:
    """Rational coordinates and power exponents over mixed denominators;
    some streams arrive below the noise floor at some receivers."""
    n = rng.randint(1, 3)
    streams = []
    for user in range(K):
        for _ in range(rng.randint(0, 2)):
            vector = [Fraction(0)] * n
            while not any(vector):
                vector = [Fraction(rng.randint(-4, 4), rng.choice([1, 3, 7, 97])) for _ in range(n)]
            power = Fraction(-rng.randint(0, 160), rng.choice([4, 97, 101, 103]))
            streams.append(Stream(user, tuple(vector), power))
    rng.shuffle(streams)
    return Scheme(n, tuple(streams))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_rational_schemes_match_brute_force(seed):
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K, diag_choices=MIXED_DIAG, cross_choices=MIXED_CROSS)
    scheme = _rational_scheme(rng, K)
    report = gdof_report(scheme, cm)
    for k in range(K):
        pairs = [(s.vector, cm.alpha[k][s.user] + s.power_exp) for s in scheme.streams]
        own = [i for i, s in enumerate(scheme.streams) if s.user == k]
        # exponents after decoding the first l own streams, l = 0..b
        exps = [
            max_weight_independent_sum([p for i, p in enumerate(pairs) if i not in own[:l]])
            for l in range(len(own) + 1)
        ]
        assert logdet_exponent(pairs) == exps[0]
        u = user_gdof(scheme, cm, k)
        assert (u.combined_exp, u.interference_exp) == (exps[0], exps[-1])
        assert u.gdof == (exps[0] - exps[-1]) / scheme.n
        assert report.users[k] == u
        assert report.per_stream[k] == tuple(
            (exps[l] - exps[l + 1]) / scheme.n for l in range(len(own))
        )


def test_single_user_single_use():
    cm = validate_channel([["1"]])
    scheme = Scheme(1, (Stream(0, (1,), 0),))
    u = user_gdof(scheme, cm, 0)
    assert (u.combined_exp, u.interference_exp, u.gdof) == (1, 0, 1)


def test_reference_network_receiver_split(network5, baseline_result):
    # per-receiver exponent splits of the synthesized baseline scheme
    expected = {
        0: (Fraction(17, 10), Fraction(11, 10)),
        4: (Fraction(13, 10), Fraction(7, 10)),
    }
    for k, (combined, interference) in expected.items():
        u = user_gdof(baseline_result.scheme, network5, k)
        assert (u.combined_exp, u.interference_exp) == (combined, interference)
        assert u.gdof == Fraction(3, 10)


def test_reference_network_all_users(network5, baseline_result):
    for k in range(5):
        assert user_gdof(baseline_result.scheme, network5, k).gdof == Fraction(3, 10)


def test_successive_sums_to_user_gdof(network5, baseline_result):
    sc = gdof_report(baseline_result.scheme, network5).per_stream[2]
    assert sum(sc) == Fraction(3, 10)
    assert len(sc) == 1  # single-stream user: one entry equal to d_k


def test_successive_two_stream_example():
    # 3 users over 2 uses; receiver 1 sees its own two streams above two
    # aligned interferers and one more independent interferer
    cm = validate_channel(
        [["1", "0.3", "0.5"], ["0", "1", "0"], ["0", "0", "1"]]
    )
    scheme = Scheme(
        2,
        (
            Stream(0, (1, 0), 0),
            Stream(0, (0, 1), Fraction(-1, 5)),
            Stream(1, (1, 1), 0),
            Stream(1, (1, 2), Fraction(-1, 10)),
            Stream(2, (1, 1), 0),
        ),
    )
    report = gdof_report(scheme, cm)
    sc = report.per_stream[0]
    assert sc == (Fraction(1, 4), Fraction(3, 10))
    assert sc == chain_rule_split(scheme, cm, 0)
    assert sum(sc) == report.gdof[0] == user_gdof(scheme, cm, 0).gdof == Fraction(11, 20)


def test_below_noise_streams_are_dropped():
    cm = validate_channel([["1", "0.2"], ["0.2", "1"]])
    scheme = Scheme(
        1, (Stream(0, (1,), 0), Stream(1, (1,), Fraction(-1, 2)))
    )
    # interferer arrives at exponent 0.2 - 0.5 < 0: no GDoF impact
    assert user_gdof(scheme, cm, 0).gdof == 1
    assert user_gdof(scheme, cm, 0).interference_exp == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_chain_rule_consistency(seed):
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K)
    scheme = random_scheme(rng, K)
    report = gdof_report(scheme, cm)
    for k in range(K):
        assert report.per_stream[k] == chain_rule_split(scheme, cm, k)
        assert sum(report.per_stream[k], Fraction(0)) == user_gdof(scheme, cm, k).gdof


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_order_of_pairs_and_of_other_users_streams_is_irrelevant(seed):
    # the greedy value does not depend on how equal exponents are ordered,
    # so neither does the report when users' streams are interleaved
    # differently (each user's own decoding order kept)
    rng = random.Random(seed)
    raw = random_weighted_vectors(rng)
    assert logdet_exponent(rng.sample(raw, len(raw))) == logdet_exponent(raw)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K)
    scheme = random_scheme(rng, K)
    slots = [s.user for s in scheme.streams]
    rng.shuffle(slots)
    own = {u: iter([s for s in scheme.streams if s.user == u]) for u in range(K)}
    interleaved = Scheme(scheme.n, tuple(next(own[u]) for u in slots))
    assert gdof_report(interleaved, cm) == gdof_report(scheme, cm)


def test_gdof_report_takes_each_determinant_once(monkeypatch):
    logdet = evaluator.logdet_exponent
    calls = []

    def counted_logdet(pairs):
        calls.append(pairs)
        return logdet(pairs)

    rng = random.Random(11)
    for _ in range(30):
        K = rng.randint(1, 4)
        cm = random_channel(rng, K)
        scheme = random_scheme(rng, K)
        if rng.random() < 0.3:  # a user without streams
            silent = rng.randrange(K)
            scheme = Scheme(scheme.n, tuple(s for s in scheme.streams if s.user != silent))
        calls.clear()
        monkeypatch.setattr(evaluator, "logdet_exponent", counted_logdet)
        report = gdof_report(scheme, cm)
        monkeypatch.undo()
        assert len(calls) == sum(scheme.users.count(k) + 1 for k in range(K))
        assert report.users == tuple(user_gdof(scheme, cm, k) for k in range(K))
        assert report.per_stream == tuple(chain_rule_split(scheme, cm, k) for k in range(K))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=13))
def test_scaling_invariance(seed, scale):
    rng = random.Random(seed)
    K = rng.randint(1, 3)
    cm = random_channel(rng, K)
    scheme = random_scheme(rng, K)
    target = rng.randrange(len(scheme.streams))
    scaled_streams = tuple(
        Stream(s.user, tuple(scale * c for c in s.vector), s.power_exp) if i == target else s
        for i, s in enumerate(scheme.streams)
    )
    scaled = Scheme(scheme.n, scaled_streams)
    assert gdof_report(scheme, cm) == gdof_report(scaled, cm)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_subset_monotonicity_and_bounds(seed):
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K)
    scheme = random_scheme(rng, K)
    for k in range(K):
        u = user_gdof(scheme, cm, k)
        assert u.combined_exp >= u.interference_exp
        assert 0 <= u.gdof <= cm.alpha[k][k]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_single_stream_single_use_reduction(seed):
    rng = random.Random(seed)
    K = rng.randint(1, 4)
    cm = random_channel(rng, K)
    r = [Fraction(-rng.randint(0, 8), 4) for _ in range(K)]
    scheme = Scheme(1, tuple(Stream(u, (1,), r[u]) for u in range(K)))
    expected = single_stream_gdof(cm, r)
    for k in range(K):
        assert user_gdof(scheme, cm, k).gdof == expected[k]


INVARIANT_UNDER_O = """
from timtin import evaluator
from timtin.fixtures import BASELINE_TIM_LINKS, five_user_network
from timtin.decomp import evaluate_map
from timtin.model import InvariantViolation

network = five_user_network()
scheme = evaluate_map(network, BASELINE_TIM_LINKS).scheme
evaluator.logdet_exponent = lambda pairs: -len(pairs)  # more pairs, smaller exponent
try:
    evaluator.user_gdof(scheme, network, 0)
except InvariantViolation as exc:
    print("raised:", exc)
"""


def test_invariants_survive_python_O():
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_UNDER_O],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: user 0:")
