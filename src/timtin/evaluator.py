"""GDoF evaluation of beamforming schemes.

The exact path works at the exponent level: the high-power exponent of a
log-determinant of a weighted sum of rank-one terms equals the maximum,
over linearly independent subsets of the beamforming vectors, of the sum
of their receive power exponents.  A greedy sweep in descending exponent
order with an exact rank test attains that maximum (linear matroid +
sorted weights), so no epsilon ever enters the GDoF path.  The sweep runs
on Python ints: each stream holds its direction as an integer row, built
when the stream is, and receiver k's exponents are scaled by one lcm E
of the channel's strength scale and the power-exponent denominators.  One
int core, ``_exponents_after``, reads a scheme's integer directions and
integer receive exponents; user_gdof and gdof_report wrap it and make
Fractions of the GDoF values they report, and ``scaled_gdof`` wraps it
with no Fraction at all, which a decomposition search calls once per
distinct scheme.

A finite-power numerical oracle evaluates the actual achievable rates in
floating point for cross-checking slopes against exact GDoF values.  Its
``seed`` argument does not change the rates yet: the oracle's channel is
the strength matrix itself, with no random per-link magnitudes.  Only the
oracle functions import numpy and mpmath, on their first call, so the
exact path (and ``import timtin``) runs on the standard library alone.

Both paths decide which streams receiver k still hears after it has
decoded some of its own streams with the same mask, ``_undecoded``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .model import (
    ChannelMatrix,
    DimensionMismatch,
    GDoFReport,
    InvariantViolation,
    NumericalFailure,
    Scheme,
    UserGdof,
)

if TYPE_CHECKING:
    import numpy as np

# Beyond this power the spread of covariance eigenvalues exhausts double
# precision, so the oracle refuses rather than returning noise.
MAX_ORACLE_POWER = 1e12
# Longest block the oracle takes: each log-det is of an n x n matrix, by an
# O(n^3) mpmath LU at high power.  One such log-det of n dense directions
# takes 0.22 s at n = 32, 1.45 s at n = 64 and 12.9 s at n = 128 (one
# thread of a 2-vCPU VM), and a double-path n = 2000 one-stream pass
# peaks at 128 MB RSS.
MAX_ORACLE_BLOCK = 64
MAX_ORACLE_COORDINATE = 1e150  # its square, summed over a direction, stays a double
_MAX_COORDINATE_EXACT = int(MAX_ORACLE_COORDINATE)  # the double's exact value, for int compares


def logdet_exponent(pairs: Sequence[tuple[Sequence[int], Fraction | int]]) -> Fraction | int:
    """High-power exponent of log det(I + sum_i P^{e_i} v_i v_i^T).

    ``pairs`` are (v_i, e_i), each v_i a row of ints (a rational direction
    enters as its integer_row, which spans the same line).  Pairs with
    e_i < 0 sit below the unit noise floor and are skipped.  The rest are
    sorted by exponent descending and kept greedily iff linearly
    independent of the pairs already kept; the result is the sum of kept
    exponents, so integer exponents (as the evaluator passes) give an
    integer.  Greedy on a linear matroid with sorted weights maximizes the
    sum, so the order among equal exponents never changes the value.
    """
    if not pairs:
        return 0
    n = len(pairs[0][0])
    for vector, _ in pairs:
        if len(vector) != n:
            raise DimensionMismatch(
                f"vector of length {len(vector)} in a {n}-dimensional family"
            )
    # reverse keeps equal exponents in their given order, as a stable sort does
    ordered = sorted([p for p in pairs if p[1] >= 0], key=itemgetter(1), reverse=True)
    basis: list[tuple[Sequence[int], int]] = []  # gcd-reduced integer echelon rows, pivots
    total = 0 * pairs[0][1]  # zero of the exponents' type
    for v, exponent in ordered:
        for row, j in basis:
            c = v[j]
            if c:
                a = row[j]
                v = [a * x - c * y for x, y in zip(v, row)]
        for pivot, c in enumerate(v):
            if c:
                break
        else:  # dependent on the rows kept
            continue
        g = math.gcd(*v)
        basis.append((v if g == 1 else [c // g for c in v], pivot))
        total += exponent
        if len(basis) == n:
            break
    return total


def _undecoded(users: Sequence[int], k: int, decoded: int) -> list[bool]:
    """Which streams (given by their users, in scheme order) receiver k
    still hears once it has decoded and subtracted the first ``decoded`` of
    its own streams: every other user's stream, and user k's streams from
    position ``decoded`` on.  ``decoded`` 0 is the combined view; all of
    user k's streams decoded is the interference-plus-noise view."""
    own, heard = 0, []
    for u in users:
        own += u == k
        heard.append(u != k or own > decoded)
    return heard


def _exponents_after(
    scheme: Scheme, channel: ChannelMatrix, k: int, decodeds: Sequence[int]
) -> tuple[list[int], int]:
    """The int core of every GDoF the evaluator gives: receiver k's log-det
    exponents after each number in ``decodeds`` of its own streams decoded
    (running from none to all of them), as integers over one denominator
    E, returned alongside.  The scheme's users and scaled powers are
    cached on it and its streams hold integer rows, so only the receive
    strengths are read per receiver."""
    S, (Q, powers), users = channel.scale, scheme.scaled_powers, scheme.users
    E = math.lcm(S, Q)
    row, per_strength, per_power = channel.scaled[k], E // S, E // Q
    pairs = [
        (s.vector, row[u] * per_strength + p * per_power)
        for s, u, p in zip(scheme.streams, users, powers)
    ]
    # with none decoded, receiver k hears every stream
    views = (list(compress(pairs, _undecoded(users, k, d))) if d else pairs for d in decodeds)
    exps = [logdet_exponent(view) for view in views]
    if exps[0] < exps[-1]:  # the streams heard after decoding are a subset
        raise InvariantViolation(f"user {k}: combined exponent below interference exponent")
    return exps, E


def scaled_gdof(scheme: Scheme, channel: ChannelMatrix) -> tuple[int, tuple[int, ...]]:
    """Every user's GDoF as integers (D, N), the values N[k] / D: what
    user_gdof gives, with no Fraction built."""
    exps = [_exponents_after(scheme, channel, k, (0, scheme.users.count(k))) for k in range(channel.K)]
    return scheme.n * exps[0][1], tuple(c - i for (c, i), _ in exps)  # one E for every receiver


def _user_from(combined: int, interference: int, n: int, E: int) -> UserGdof:
    """A user's GDoF from the exponents (over E) with none and all of its
    streams decoded."""
    return UserGdof(
        Fraction(combined, E), Fraction(interference, E), Fraction(combined - interference, n * E)
    )


def user_gdof(scheme: Scheme, channel: ChannelMatrix, k: int) -> UserGdof:
    """GDoF of user k: exponents of the two determinants and their scaled
    difference."""
    b = scheme.users.count(k)
    (combined, interference), E = _exponents_after(scheme, channel, k, (0, b))
    return _user_from(combined, interference, scheme.n, E)


def gdof_report(scheme: Scheme, channel: ChannelMatrix) -> GDoFReport:
    """Full per-user and per-stream GDoF report with invariant checks.

    Each user's exponents after 0..b decoded streams are taken once; the
    user GDoF comes from the two ends.  Stream l's value is the exponent's
    drop when it is decoded, so each user's values telescope to its GDoF."""
    users = []
    per_stream = []
    for k in range(channel.K):
        b = scheme.users.count(k)
        exps, E = _exponents_after(scheme, channel, k, range(b + 1))
        u = _user_from(exps[0], exps[b], scheme.n, E)
        sc = tuple(Fraction(exps[l] - exps[l + 1], scheme.n * E) for l in range(b))
        if sum(sc, Fraction(0)) != u.gdof:
            raise InvariantViolation(f"user {k}: per-stream GDoF does not sum to the user GDoF")
        if not 0 <= u.gdof <= channel.alpha[k][k]:
            raise InvariantViolation(f"user {k}: GDoF {u.gdof} outside [0, direct strength]")
        users.append(u)
        per_stream.append(sc)
    return GDoFReport(tuple(users), tuple(per_stream))


# --- finite-power numerical oracle ---

# Largest covariance spread the double-precision path takes; beyond it the
# log-det is recomputed with an arbitrary-precision LU so trailing
# eigenvalues near 1 survive.  At the limit itself the double path is
# already off by up to 8e-4 nats per log-det (rates by ~1e-4 bits, far
# inside a 0.05 slope tolerance); lowering the limit would change oracle
# documents and make more receivers pay for mpmath.
DOUBLE_SPREAD_LIMIT = 1e13


def _logdet_double(unit_dirs: np.ndarray, kappas: np.ndarray, P: float, keep: np.ndarray) -> float:
    import numpy as np

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
        rows = [[mp.one if i == j else mp.zero for j in range(n)] for i in range(n)]
        base = mp.mpf(P)
        for s in range(len(kappas)):
            if not keep[s]:
                continue
            w = base ** mp.mpf(float(kappas[s]))
            u = [mp.mpf(float(c)) for c in unit_dirs[s]]
            for row, ui in zip(rows, u):
                wu = w * ui
                for j in range(n):
                    row[j] += wu * u[j]
        det = mp.det(mp.matrix(rows))
        if det <= 0:
            raise NumericalFailure("covariance lost positive definiteness")
        return float(mp.log(det))


def _logdet(unit_dirs: np.ndarray, kappas: np.ndarray, P: float, keep: np.ndarray) -> float:
    """log det(I + sum_kept P^kappa_s u_s u_s^T) in nats."""
    if not keep.any():
        return 0.0
    if max(float(kappas[keep].max()), 0.0) * math.log(P) <= math.log(DOUBLE_SPREAD_LIMIT):
        return _logdet_double(unit_dirs, kappas, P, keep)
    return _logdet_mp(unit_dirs, kappas, P, keep)


def _oracle_inputs(scheme: Scheme, channel: ChannelMatrix, P: float):
    """Unit-norm float directions, stream users and receive exponents per
    (receiver, stream).

    Each receive exponent kappa = alpha + r lies between a power exponent
    r <= 0 and a strength alpha >= 0; refusing those with |x| log10 P > 308
    keeps every P^kappa a double and bounds the mpmath precision.

    Nothing here is random, so the oracle's seed does not change the rates
    until per-link magnitudes are drawn from it.
    """
    import numpy as np

    if not P > 1:
        raise ValueError("P must exceed 1")
    if P > MAX_ORACLE_POWER:
        raise ValueError(f"P capped at {MAX_ORACLE_POWER:.0e} for double precision")
    if scheme.n > MAX_ORACLE_BLOCK:
        raise ValueError(f"block length {scheme.n} exceeds the oracle's limit of {MAX_ORACLE_BLOCK}")
    users = [s.user for s in scheme.streams]
    strengths = [[row[u] for u in users] for row in channel.alpha]
    reach = sys.float_info.max_10_exp / math.log10(P)
    exponents = [-s.power_exp for s in scheme.streams] + [a for row in strengths for a in row]
    if max(exponents, default=0) > reach:
        raise ValueError(f"a receive exponent beyond ±{reach:.6g} leaves double range at P={P:g}")
    # each row over its first nonzero coordinate; an int quotient is correctly rounded
    rows = [(s.vector, next(c for c in s.vector if c)) for s in scheme.streams]
    if any(max(map(abs, row)) > _MAX_COORDINATE_EXACT * lead for row, lead in rows):
        raise ValueError(f"a coordinate beyond {MAX_ORACLE_COORDINATE:.0e} leaves double range")
    directions = np.array([[c / lead for c in row] for row, lead in rows])
    directions = directions.reshape(-1, scheme.n)  # shape (0, n) when there are no streams
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    r = np.array([float(s.power_exp) for s in scheme.streams])
    alpha = np.array([[float(a) for a in row] for row in strengths]).reshape(channel.K, len(users))
    kappas = alpha + r  # kappas[k, s]: receive exponent at receiver k
    return directions, users, kappas


def finite_p_rate(
    scheme: Scheme, channel: ChannelMatrix, P: float, seed: int = 0
) -> list[float]:
    """Per-user achievable rate in bits per channel use at finite power P:
    receiver k's log-det with none and with all of its streams decoded."""
    import numpy as np

    directions, users, kappas = _oracle_inputs(scheme, channel, P)
    rates = []
    for k in range(channel.K):
        combined, noise_int = [
            _logdet(directions, kappas[k], P, np.array(_undecoded(users, k, d), dtype=bool))
            for d in (0, users.count(k))
        ]
        rates.append((combined - noise_int) / (scheme.n * math.log(2)))
    return rates


def slopes_from_rates(powers: Sequence[float], rates: Sequence[Sequence[float]]) -> list[float]:
    """Finite-difference GDoF surrogate from per-user rates at (P_low, P_high)."""
    (P_low, P_high), (low, high) = powers, rates
    if not 1 < P_low < P_high:
        raise ValueError("need 1 < P_low < P_high")
    span = math.log2(P_high) - math.log2(P_low)
    return [(h - l) / span for h, l in zip(high, low)]


def slope_estimate(
    scheme: Scheme,
    channel: ChannelMatrix,
    P_low: float,
    P_high: float,
    seed: int = 0,
) -> list[float]:
    """Finite-difference GDoF surrogate between two power levels."""
    powers = (P_low, P_high)
    return slopes_from_rates(powers, [finite_p_rate(scheme, channel, P, seed) for P in powers])
