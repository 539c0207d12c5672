"""GDoF evaluation of beamforming schemes.

The exact path works at the exponent level: the high-power exponent of a
log-determinant of a weighted sum of rank-one terms equals the maximum,
over linearly independent subsets of the beamforming vectors, of the sum
of their receive power exponents.  A greedy sweep in descending exponent
order with an exact rational rank test attains that maximum (linear
matroid + sorted weights), so no epsilon ever enters the GDoF path.

A finite-power numerical oracle evaluates the actual achievable rates in
floating point for cross-checking slopes against exact GDoF values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import (
    ChannelMatrix,
    DimensionMismatch,
    GDoFReport,
    InvariantViolation,
    NumericalFailure,
    Scheme,
    UserGdof,
)

# Beyond this power the spread of covariance eigenvalues exhausts double
# precision, so the oracle refuses rather than returning noise.
MAX_ORACLE_POWER = 1e12


@dataclass(frozen=True)
class WeightedVector:
    """A beamforming direction with its receive power exponent and a stable
    (user, stream position) source label used for deterministic tie-breaks."""

    vector: tuple[Fraction, ...]
    exponent: Fraction
    source: tuple[int, int]

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("below-noise pairs must be dropped before construction")


def logdet_exponent(pairs: Sequence[WeightedVector]) -> Fraction:
    """High-power exponent of log det(I + sum_i P^{e_i} v_i v_i^T).

    Pairs are sorted by exponent descending (ties by source label) and kept
    greedily iff linearly independent of the pairs already kept; the result
    is the sum of kept exponents.  Greedy on a linear matroid with sorted
    weights maximizes the sum, so the tie-break never changes the value.
    """
    if not pairs:
        return Fraction(0)
    n = len(pairs[0].vector)
    for p in pairs:
        if len(p.vector) != n:
            raise DimensionMismatch(
                f"vector of length {len(p.vector)} in a {n}-dimensional family"
            )
    ordered = sorted(pairs, key=lambda p: (-p.exponent, p.source))
    basis: list[list[int]] = []  # gcd-reduced integer echelon rows
    pivots: list[int] = []
    total = Fraction(0)
    for p in ordered:
        scale = math.lcm(*(c.denominator for c in p.vector))
        v = [c.numerator * (scale // c.denominator) for c in p.vector]
        for row, j in zip(basis, pivots):
            c = v[j]
            if c:
                a = row[j]
                v = [a * x - c * y for x, y in zip(v, row)]
        pivot = next((i for i, c in enumerate(v) if c != 0), None)
        if pivot is None:
            continue
        g = math.gcd(*v)
        basis.append([c // g for c in v])
        pivots.append(pivot)
        total += p.exponent
        if len(basis) == n:
            break
    return total


def receiver_view(
    scheme: Scheme,
    channel: ChannelMatrix,
    k: int,
    decoded_own: int = 0,
    include_own: bool = True,
) -> list[WeightedVector]:
    """Streams as seen by receiver k, excluding those below the noise floor.

    Own streams with position < decoded_own are treated as already decoded
    and subtracted; ``include_own=False`` removes all of user k's streams
    (the interference-plus-noise view).
    """
    pairs = []
    position = [0] * channel.K
    for s in scheme.streams:
        l = position[s.user]
        position[s.user] += 1
        if s.user == k and (not include_own or l < decoded_own):
            continue
        exponent = channel.alpha[k][s.user] + s.power_exp
        if exponent < 0:
            continue  # below the noise floor: no GDoF impact
        pairs.append(WeightedVector(s.vector, exponent, (s.user, l)))
    return pairs


def user_gdof(scheme: Scheme, channel: ChannelMatrix, k: int) -> UserGdof:
    """GDoF of user k: exponents of the two determinants and their scaled
    difference."""
    combined = logdet_exponent(receiver_view(scheme, channel, k))
    interference = logdet_exponent(receiver_view(scheme, channel, k, include_own=False))
    if combined < interference:  # interference pairs are a subset
        raise InvariantViolation(f"user {k}: combined exponent below interference exponent")
    return UserGdof(combined, interference, (combined - interference) / scheme.n)


def successive_gdof(scheme: Scheme, channel: ChannelMatrix, k: int) -> tuple[Fraction, ...]:
    """Per-stream GDoF of user k under decode-and-subtract, in decoding order.

    Stream l's value is the drop in the combined exponent when stream l is
    moved from the undecoded to the decoded side; the values telescope so
    their sum equals user_gdof(k) exactly.
    """
    b = len(scheme.streams_of(k))
    exps = [
        logdet_exponent(receiver_view(scheme, channel, k, decoded_own=l))
        for l in range(b + 1)
    ]
    return tuple((exps[l] - exps[l + 1]) / scheme.n for l in range(b))


def gdof_report(scheme: Scheme, channel: ChannelMatrix) -> GDoFReport:
    """Full per-user and per-stream GDoF report with invariant checks."""
    users = []
    per_stream = []
    for k in range(channel.K):
        u = user_gdof(scheme, channel, k)
        sc = successive_gdof(scheme, channel, k)
        if sum(sc, Fraction(0)) != u.gdof:
            raise InvariantViolation(f"user {k}: per-stream GDoF does not sum to the user GDoF")
        if not 0 <= u.gdof <= channel.alpha[k][k]:
            raise InvariantViolation(f"user {k}: GDoF {u.gdof} outside [0, direct strength]")
        users.append(u)
        per_stream.append(sc)
    return GDoFReport(tuple(users), tuple(per_stream))


# --- finite-power numerical oracle ---

# Largest covariance spread the double-precision path can resolve against
# the unit noise floor; beyond it the log-det is recomputed with an
# arbitrary-precision LU so trailing eigenvalues near 1 survive.
DOUBLE_SPREAD_LIMIT = 1e13


def _logdet_double(unit_dirs: np.ndarray, kappas: np.ndarray, P: float, keep: np.ndarray) -> float:
    n = unit_dirs.shape[1]
    weights = np.where(keep, P**kappas, 0.0)
    matrix = np.eye(n) + np.einsum("s,si,sj->ij", weights, unit_dirs, unit_dirs)
    try:
        chol = np.linalg.cholesky(matrix)
        return 2.0 * float(np.sum(np.log(np.diag(chol))))
    except np.linalg.LinAlgError:
        sign, value = np.linalg.slogdet(matrix)
        if sign <= 0 or not np.isfinite(value):
            raise NumericalFailure("covariance lost positive definiteness") from None
        return float(value)


def _logdet_mp(unit_dirs: np.ndarray, kappas: np.ndarray, P: float, keep: np.ndarray) -> float:
    from mpmath import mp

    n = unit_dirs.shape[1]
    digits = 30 + int(max(kappas.max(), 0.0) * math.log10(P)) + 2 * n
    with mp.workdps(digits):
        matrix = mp.eye(n)
        base = mp.mpf(P)
        for s in range(len(kappas)):
            if not keep[s]:
                continue
            w = base ** mp.mpf(float(kappas[s]))
            u = [mp.mpf(float(c)) for c in unit_dirs[s]]
            for i in range(n):
                for j in range(n):
                    matrix[i, j] += w * u[i] * u[j]
        det = mp.det(matrix)
        if det <= 0:
            raise NumericalFailure("covariance lost positive definiteness")
        return float(mp.log(det))


def _logdet(unit_dirs: np.ndarray, kappas: np.ndarray, P: float, keep: np.ndarray) -> float:
    """log det(I + sum_kept P^kappa_s u_s u_s^T) in nats."""
    if not np.any(keep):
        return 0.0
    spread = P ** max(float(kappas[keep].max()), 0.0)
    if spread <= DOUBLE_SPREAD_LIMIT:
        return _logdet_double(unit_dirs, kappas, P, keep)
    return _logdet_mp(unit_dirs, kappas, P, keep)


def _oracle_inputs(scheme: Scheme, channel: ChannelMatrix, P: float, seed: int):
    """Unit-norm float directions and receive exponents per (receiver, stream).

    The per-link phases multiply whole rank-one terms by unit-modulus
    scalars, so they cancel inside every covariance; they are still drawn
    for a seed-stable interface.
    """
    if not P > 1:
        raise ValueError("P must exceed 1")
    if P > MAX_ORACLE_POWER:
        raise ValueError(f"P capped at {MAX_ORACLE_POWER:.0e} for double precision")
    rng = np.random.default_rng(seed)
    rng.uniform(0.0, 2.0 * math.pi, size=(channel.K, channel.K))  # phase draw
    directions = np.array(
        [np.array([float(c) for c in s.vector]) for s in scheme.streams]
    )
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    users = np.array([s.user for s in scheme.streams])
    r = np.array([float(s.power_exp) for s in scheme.streams])
    alpha = np.array([[float(a) for a in row] for row in channel.alpha])
    kappas = alpha[:, users] + r  # kappas[k, s]: receive exponent at receiver k
    return directions, users, kappas


def finite_p_rate(
    scheme: Scheme, channel: ChannelMatrix, P: float, seed: int = 0
) -> list[float]:
    """Per-user achievable rate in bits per channel use at finite power P."""
    directions, users, kappas = _oracle_inputs(scheme, channel, P, seed)
    n = scheme.n
    rates = []
    for k in range(channel.K):
        combined = _logdet(directions, kappas[k], P, np.ones(len(users), dtype=bool))
        noise_int = _logdet(directions, kappas[k], P, users != k)
        rates.append((combined - noise_int) / (n * math.log(2)))
    return rates


def finite_p_stream_rates(
    scheme: Scheme, channel: ChannelMatrix, k: int, P: float, seed: int = 0
) -> list[float]:
    """Conditional per-stream rates of user k (decode-and-subtract order);
    they sum to finite_p_rate(k) up to float roundoff."""
    directions, users, kappas = _oracle_inputs(scheme, channel, P, seed)
    n = scheme.n
    b = int(np.sum(users == k))
    own_position = np.cumsum(users == k) - 1  # position of each own stream
    logdets = [
        _logdet(directions, kappas[k], P, (users != k) | (own_position >= decoded))
        for decoded in range(b + 1)
    ]
    return [(logdets[l] - logdets[l + 1]) / (n * math.log(2)) for l in range(b)]


def slope_estimate(
    scheme: Scheme,
    channel: ChannelMatrix,
    P_low: float,
    P_high: float,
    seed: int = 0,
) -> list[float]:
    """Finite-difference GDoF surrogate between two power levels, using the
    same phase draw at both."""
    if not 1 < P_low < P_high:
        raise ValueError("need 1 < P_low < P_high")
    low = finite_p_rate(scheme, channel, P_low, seed)
    high = finite_p_rate(scheme, channel, P_high, seed)
    span = math.log2(P_high) - math.log2(P_low)
    return [(h - l) / span for h, l in zip(high, low)]
