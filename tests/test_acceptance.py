"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Random-instance criteria draw from seeded generators on coarse rational
grids, so the whole suite is deterministic.
"""

import random
import time
from fractions import Fraction

from oracles import (
    grid_tin_feasible,
    integer_pairs,
    max_weight_independent_sum,
    random_weighted_vectors,
    single_stream_gdof,
)
from timtin import decomp, tin
from timtin.evaluator import (
    gdof_report,
    logdet_exponent,
    slope_estimate,
    user_gdof,
)
from timtin.fixtures import BASELINE_TIM_LINKS, IMPROVED_TIM_LINKS
from timtin.model import Scheme, Stream
from timtin.tim import TimTopology, tim_solve


def _report(number: int, description: str, ok: bool, elapsed: float | None = None):
    stamp = "" if elapsed is None else f" [{elapsed:.2f} s]"
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}{stamp}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_tin_symmetric_value(network5):
    start = time.perf_counter()
    tin_links = decomp.split(network5, BASELINE_TIM_LINKS).tin_links
    d_sym = tin.tin_symmetric(network5, tin.Heard.of(network5, tin_links)).t
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"weak-link TIN component symmetric GDoF = {d_sym} (want 3/5, exact)",
        d_sym == Fraction(3, 5) and elapsed < 1.0,
        elapsed,
    )


def test_criterion_2_tim_half_rate_values(network5):
    start = time.perf_counter()
    outcomes = []
    for tim_links in (BASELINE_TIM_LINKS, IMPROVED_TIM_LINKS):
        solution = tim_solve(TimTopology(network5.K, tim_links))
        outcomes.append(
            solution.method == "half_rate"
            and solution.fractions == (Fraction(1, 2),) * 5
        )
    elapsed = time.perf_counter() - start
    _report(
        2,
        "both reference TIM components solve to 1/2 via half_rate",
        all(outcomes) and elapsed < 1.0,
        elapsed,
    )


def test_criterion_3_products_and_search(network5):
    start = time.perf_counter()
    base = decomp.evaluate_map(network5, decomp.map_mask(network5, BASELINE_TIM_LINKS))
    moved = decomp.evaluate_map(network5, decomp.map_mask(network5, IMPROVED_TIM_LINKS))
    frontier = decomp.search(network5).frontier  # exhaustive: 2^11 maps
    elapsed = time.perf_counter() - start
    ok = (
        base.products == (Fraction(3, 10),) * 5
        and base.verified == (Fraction(3, 10),) * 5
        and base.verdict
        and moved.products == (Fraction(1, 3),) * 5
        and moved.verified == (Fraction(1, 3),) * 5
        and moved.verdict
        and all(r.verdict for r in frontier)
        and max(min(r.verified) for r in frontier) >= Fraction(1, 3)
        and elapsed < 10.0
    )
    _report(3, "products 3/10 and 1/3 verified; frontier reaches 1/3", ok, elapsed)


def test_criterion_4_per_receiver_breakdown(network5, baseline_result):
    bullets = [
        (Fraction(1), Fraction(4, 10)),
        (Fraction(9, 10), Fraction(3, 10)),
        (Fraction(8, 10), Fraction(2, 10)),
        (Fraction(7, 10), Fraction(1, 10)),
        (Fraction(6, 10), Fraction(0)),
    ]
    ok = True
    for k, (signal, residual) in enumerate(bullets):
        u = user_gdof(baseline_result.scheme, network5, k)
        ok &= u.gdof == (signal - residual) / 2 == Fraction(3, 10)
        ok &= u.combined_exp - u.interference_exp == signal - residual
    _report(4, "each receiver's split matches its decode bullet, all 3/10", ok)


def test_criterion_5_greedy_equals_brute_force():
    rng = random.Random(2024)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        raw = random_weighted_vectors(rng, max_m=8, max_n=4)
        ok &= logdet_exponent(integer_pairs(raw)) == max_weight_independent_sum(raw)
    elapsed = time.perf_counter() - start
    _report(5, "greedy exponent sum = brute force on 500 instances", ok and elapsed < 30, elapsed)


def _random_channel_and_scheme(rng, *, max_k=4, max_n=3, coarse=False):
    from oracles import random_channel, random_scheme

    K = rng.randint(1, max_k)
    if coarse:
        # half-integer grids keep exponent gaps >= 1/2 so finite-power
        # slopes converge well within the 0.05 tolerance
        channel = random_channel(
            rng,
            K,
            diag_choices=[Fraction(n, 2) for n in (2, 3, 4)],
            cross_choices=[Fraction(n, 2) for n in (1, 2, 3)],
        )
        scheme = random_scheme(
            rng, K, max_n=max_n, power_choices=[Fraction(-n, 2) for n in range(0, 4)]
        )
    else:
        channel = random_channel(rng, K)
        scheme = random_scheme(rng, K, max_n=max_n)
    return K, channel, scheme


def test_criterion_6_chain_rule_exact():
    rng = random.Random(2025)
    ok = True
    for _ in range(200):
        K, channel, scheme = _random_channel_and_scheme(rng)
        per_stream = gdof_report(scheme, channel).per_stream
        for k in range(K):
            total = user_gdof(scheme, channel, k).gdof
            ok &= sum(per_stream[k], Fraction(0)) == total
    _report(6, "per-stream values sum to the user GDoF on 200 schemes", ok)


def test_criterion_7_oracle_convergence(network5, baseline_result, improved_result):
    rng = random.Random(2026)
    start = time.perf_counter()
    cases = [
        (network5, baseline_result.scheme),
        (network5, improved_result.scheme),
    ]
    for _ in range(20):
        _, channel, scheme = _random_channel_and_scheme(rng, coarse=True)
        cases.append((channel, scheme))
    ok = True
    for channel, scheme in cases:
        exact = [float(user_gdof(scheme, channel, k).gdof) for k in range(channel.K)]
        votes = [0] * channel.K
        for seed in (0, 1, 2):
            slopes = slope_estimate(scheme, channel, 1e6, 1e10, seed=seed)
            for k in range(channel.K):
                votes[k] += abs(slopes[k] - exact[k]) <= 0.05
        ok &= all(v >= 2 for v in votes)  # majority over the three seeds
    elapsed = time.perf_counter() - start
    _report(7, "slope within 0.05 of exact GDoF on 22 schemes", ok and elapsed < 60, elapsed)


def test_criterion_8_single_level_reduction():
    rng = random.Random(2027)
    from oracles import random_channel

    ok = True
    for _ in range(200):
        K = rng.randint(1, 4)
        channel = random_channel(rng, K)
        r = [Fraction(-rng.randint(0, 8), 4) for _ in range(K)]
        scheme = Scheme(1, tuple(Stream(u, (1,), r[u]) for u in range(K)))
        expected = single_stream_gdof(channel, r)
        for k in range(K):
            ok &= user_gdof(scheme, channel, k).gdof == expected[k]
    _report(8, "single-use single-stream GDoF equals the noise-max formula", ok)


def test_criterion_9_feasibility_matches_grid_search():
    rng = random.Random(2028)
    from oracles import random_channel

    start = time.perf_counter()
    disagreements = 0
    eps = Fraction(1, 1000)
    for _ in range(100):
        K = rng.randint(2, 4)
        channel = random_channel(
            rng,
            K,
            diag_choices=[Fraction(n, 20) for n in range(20, 31)],
            cross_choices=[Fraction(n, 20) for n in range(1, 11)],
            cross_prob=0.7,
        )
        targets = [max(Fraction(0), Fraction(rng.randint(0, 12), 20) - eps) for _ in range(K)]
        heard = tin.Heard.of(channel)
        fast = tin.tin_feasible(channel, tin.Scaled.of(channel, targets), heard).feasible
        slow = grid_tin_feasible(channel, targets)
        disagreements += fast != slow
    elapsed = time.perf_counter() - start
    _report(
        9,
        f"tin_feasible vs grid search on 100 channels ({disagreements} disagreements)",
        disagreements == 0,
        elapsed,
    )
