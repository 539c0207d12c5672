import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_channel, random_scheme, reference_logdet_mp
from timtin import evaluator
from timtin.evaluator import (
    finite_p_rate,
    slope_estimate,
    user_gdof,
)
from timtin.model import Scheme, Stream, validate_channel


def test_single_user_closed_form():
    cm = validate_channel([["1"]])
    scheme = Scheme(1, (Stream(0, (1,), 0),))
    rate = finite_p_rate(scheme, cm, 1e6)[0]
    assert rate == pytest.approx(math.log2(1 + 1e6), abs=1e-9)


def test_single_user_slope():
    cm = validate_channel([["1"]])
    scheme = Scheme(1, (Stream(0, (1,), 0),))
    slope = slope_estimate(scheme, cm, 1e6, 1e10)[0]
    assert slope == pytest.approx(1.0, abs=1e-3)


def test_reference_baseline_slope(network5, baseline_result):
    slopes = slope_estimate(baseline_result.scheme, network5, 1e6, 1e10)
    for s in slopes:
        assert abs(s - 0.3) <= 0.05


def test_reference_improved_slope(network5, improved_result):
    slopes = slope_estimate(improved_result.scheme, network5, 1e6, 1e10)
    for s in slopes:
        assert abs(s - 1 / 3) <= 0.05


def test_signal_at_noise_floor_has_zero_slope():
    cm = validate_channel([["1", "0.5"], ["0.5", "1"]])
    scheme = Scheme(1, (Stream(0, (1,), -1), Stream(1, (1,), -1)))
    for s in slope_estimate(scheme, cm, 1e6, 1e10):
        assert abs(s) <= 0.05


def test_slope_tracks_exact_gdof_on_random_schemes():
    rng = random.Random(11)
    for _ in range(8):
        K = rng.randint(1, 3)
        cm = random_channel(rng, K)
        scheme = random_scheme(rng, K)
        slopes = slope_estimate(scheme, cm, 1e6, 1e10)
        for k in range(K):
            exact = float(user_gdof(scheme, cm, k).gdof)
            assert abs(slopes[k] - exact) <= 0.05


def test_power_validation():
    cm = validate_channel([["1"]])
    scheme = Scheme(1, (Stream(0, (1,), 0),))
    with pytest.raises(ValueError):
        finite_p_rate(scheme, cm, 0.5)
    with pytest.raises(ValueError):
        finite_p_rate(scheme, cm, 1e13)
    with pytest.raises(ValueError):
        slope_estimate(scheme, cm, 1e10, 1e6)


def test_same_seed_same_rates(network5, baseline_result):
    a = finite_p_rate(baseline_result.scheme, network5, 1e7, seed=3)
    b = finite_p_rate(baseline_result.scheme, network5, 1e7, seed=3)
    assert a == b


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_logdet_mp_matches_reference_to_the_bit(seed):
    """The list-built mp covariance gives the same float as the earlier
    entry-by-entry mp.matrix build, on the oracle's own ranges."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 4), rng.randint(1, 10)
    dirs = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(m)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    kappas = np.array([float(Fraction(rng.randint(-12, 24), 12)) for _ in range(m)])
    P = 10 ** rng.uniform(10, 12)
    keep = np.array([rng.random() < 0.6 for _ in range(m)])
    keep[rng.randrange(m)] = True
    assert evaluator._logdet_mp(dirs, kappas, P, keep) == reference_logdet_mp(dirs, kappas, P, keep)


coordinates = st.one_of(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
    st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e, st.integers(-10**20, 10**20), st.integers(-60, 60)),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_oracle_directions_match_the_normalized_fractions(data):
    """Each stream holds an integer row, and the oracle divides it by its
    first nonzero coordinate: the same doubles as float() of the rational
    vector scaled so that its first nonzero coordinate is 1."""
    n = data.draw(st.integers(1, 4))
    vector = st.lists(coordinates, min_size=n, max_size=n).filter(any)
    vectors = data.draw(st.lists(vector, min_size=1, max_size=4))
    scheme = Scheme(n, tuple(Stream(0, tuple(v), 0) for v in vectors))
    directions, _, _ = evaluator._oracle_inputs(scheme, validate_channel([["1"]]), 1e6)
    pivots = [next(c for c in v if c) for v in vectors]
    expected = np.array([[float(c / pivot) for c in v] for v, pivot in zip(vectors, pivots)])
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.array_equal(directions, expected)
