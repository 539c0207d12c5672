"""Core data types: channel strength matrices, beamforming schemes, GDoF
reports and decomposition maps, plus validation and exact JSON round-trips.

Strength and power exponents are `fractions.Fraction` at every interface,
and a channel also carries an integer form, built on first use, for the
TIN solver and the exact evaluator.  A stream holds its direction as the
primitive integer row on its line, built with the stream.  Decimal text
such as "0.3" is parsed as the exact decimal fraction 3/10; binary floats
only appear in the finite-power oracle.  All types are frozen after
construction and safe to share between concurrent workers.

Users are indexed 0-based in memory; the JSON file formats are 1-based.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, log10
from typing import Sequence


class DomainError(Exception):
    """Base for contract violations raised by this package."""


class NonSquare(DomainError):
    """Channel matrix input is not a square K x K grid."""


class ZeroDirectLink(DomainError):
    """A user's direct link has zero strength after clamping."""

    def __init__(self, user: int):
        self.user = user
        super().__init__(f"user {user} has zero direct-link strength")


class DimensionMismatch(DomainError):
    """Vector length or user index does not match the declared dimensions."""


class PositivePowerExponent(DomainError):
    """Stream power exponent exceeds 0 (transmit power above the constraint)."""


class EmptyVector(DomainError):
    """Beamforming vector is empty or all-zero."""


class MapMismatch(DomainError):
    """A decomposition map's TIM side holds a link that is not a present
    cross link of the channel."""


class WeightMismatch(DomainError):
    """Time-sharing weights are malformed."""


class NumericalFailure(DomainError):
    """Floating-point log-det evaluation lost positive definiteness."""


class MalformedDocument(DomainError):
    """An input JSON document does not have the documented structure."""


class InvariantViolation(DomainError):
    """An internal consistency check failed (a defect, not bad input)."""


class BudgetOutOfRange(DomainError):
    """A search budget is outside the range the search can afford."""


# Largest decimal exponent magnitude a number may spell: CPython's default
# int-string digit limit, which already refuses a 4,301-digit integer.  An
# unbounded one would build 10^exponent (1e999999999: a ~415-MB integer).
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)$", re.IGNORECASE)  # digits as Fraction reads them


def to_fraction(value: object) -> Fraction:
    """Convert a number-like value to an exact Fraction.

    Strings may be decimal ("0.3" -> 3/10, "2e-1" -> 1/5) or "p/q", q != 0;
    a decimal exponent beyond MAX_DECIMAL_EXPONENT in magnitude is a
    ValueError.  Floats go through their shortest decimal repr, so 0.3
    means 3/10 rather than the underlying binary double.  A Fraction is
    immutable and comes back as the same object.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent and int(exponent[1]) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent in {text!r} exceeds {MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


# Most digits one integer of the output may spell: CPython's default
# int-string limit, fixed here so that output does not depend on the
# interpreter's setting.
MAX_OUTPUT_DIGITS = 4300
_OUTPUT_BOUND = 10**MAX_OUTPUT_DIGITS


def _digits(n: int) -> str:
    """The decimal digits of ``n``, or ValueError if there are more than
    MAX_OUTPUT_DIGITS of them."""
    if abs(n) < _OUTPUT_BOUND:
        return str(n)
    size = int(log10(abs(n)))  # floor(log10 |n|), give or take one
    size += abs(n) >= 10 ** (size + 1)
    size -= abs(n) < 10**size
    raise ValueError(
        f"a {size + 1}-digit number exceeds the {MAX_OUTPUT_DIGITS}-digit output limit"
    )


def format_rational(x: Fraction) -> str:
    """Canonical text form: finite decimal when the denominator is 2^a 5^b,
    otherwise "p/q".  A numerator, a denominator or a decimal's digits
    beyond MAX_OUTPUT_DIGITS are a ValueError."""
    num, den = x.numerator, x.denominator
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{_digits(num)}/{_digits(den)}"
    digits = max(twos, fives)
    if digits == 0:
        return _digits(num)
    scaled = abs(num) * 10**digits // den
    text = _digits(scaled).rjust(digits + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class ChannelMatrix:
    """K x K grid of channel strength exponents.

    ``alpha[k][i]`` is the strength exponent of the link from transmitter
    ``i`` to receiver ``k``.  A zero entry means the link is absent (at or
    below the noise floor); diagonal entries must be positive.
    """

    K: int
    alpha: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "alpha", tuple(tuple(to_fraction(x) for x in row) for row in self.alpha)
        )
        if self.K < 1 or len(self.alpha) != self.K:
            raise NonSquare(f"expected {self.K} rows, got {len(self.alpha)}")
        for k, row in enumerate(self.alpha):
            if len(row) != self.K:
                raise NonSquare(f"row {k} has {len(row)} entries, expected {self.K}")
            for entry in row:
                if entry < 0:
                    raise ValueError("negative strength exponent; use validate_channel to clamp")
        for k in range(self.K):
            if self.alpha[k][k] <= 0:
                raise ZeroDirectLink(k)

    @cached_property
    def scale(self) -> int:
        """S, the lcm of the strength denominators."""
        return lcm(*(x.denominator for row in self.alpha for x in row))

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], ...]:
        """A = S * alpha: the strengths as integers."""
        S = self.scale
        return tuple(tuple(x.numerator * (S // x.denominator) for x in row) for row in self.alpha)

    def cross_links(self) -> tuple[tuple[int, int], ...]:
        """Present cross links as sorted (receiver, transmitter) pairs."""
        return tuple(
            (k, i)
            for k in range(self.K)
            for i in range(self.K)
            if k != i and self.alpha[k][i] > 0
        )

    @cached_property
    def link_set(self) -> frozenset[tuple[int, int]]:
        """The present cross links as a set."""
        return frozenset(self.cross_links())


def validate_channel(raw) -> ChannelMatrix:
    """Build a ChannelMatrix from a raw square grid of number-like entries.

    Negative entries are clamped to zero (below the noise floor); a zero
    diagonal after clamping is rejected.  Idempotent: feeding a validated
    matrix back yields an equal matrix.
    """
    if isinstance(raw, ChannelMatrix):
        raw = raw.alpha
    rows = list(raw)
    K = len(rows)
    if K == 0:
        raise NonSquare("empty matrix")
    parsed = []
    for row in rows:
        entries = [to_fraction(x) for x in row]
        if len(entries) != K:
            raise NonSquare(f"row of length {len(entries)} in a {K}-user matrix")
        parsed.append(tuple(e if e > 0 else Fraction(0) for e in entries))
    return ChannelMatrix(K, tuple(parsed))


def over_lcm(values: Sequence) -> tuple[int, tuple[int, ...]]:
    """Rationals as (m, N): m the lcm of their denominators and N[i] the
    integer values[i] * m.  For reduced values, m and N share no factor."""
    m = lcm(*(c.denominator for c in values))
    return m, tuple(c.numerator * (m // c.denominator) for c in values)


# Most bits the lcm of one direction's denominators may have: the widest
# denominator one number may spell, 10^8600 (4,300 decimals at e-4300), has
# 28,569.  Unbounded, rows grow with the file: 400 coordinates
# 1/(10^1000 + i), a 403-KB scheme, took `eval` 250 s.
MAX_ROW_DENOMINATOR_BITS = 32768


def integer_row(vector: Sequence) -> tuple[int, ...]:
    """The primitive integer row on a nonzero rational vector's line: the
    vector times the lcm of its denominators, divided by the gcd of the
    result, with its first nonzero coordinate positive.  Vectors on one
    line give one row.  A denominator lcm of more than
    MAX_ROW_DENOMINATOR_BITS bits is a ValueError, raised as it passes them."""
    m = 1
    for c in vector:
        m = lcm(m, c.denominator)
        if m.bit_length() > MAX_ROW_DENOMINATOR_BITS:
            raise ValueError(f"a direction's denominator lcm passes {MAX_ROW_DENOMINATOR_BITS} bits")
    # a prime of m divides some c's denominator and so not its numerator:
    # the gcd of the numerators is that of the row
    g = gcd(*(c.numerator for c in vector))
    g = g if next(c for c in vector if c) > 0 else -g
    return tuple([c.numerator // g * (m // c.denominator) for c in vector])


@dataclass(frozen=True)
class Stream:
    """One scalar data stream: user index, beamforming direction over the
    block, and transmit power exponent (power is P^power_exp).  The
    direction may be given as any nonzero rational vector on its line;
    ``vector`` holds its integer_row."""

    user: int
    vector: tuple[int, ...]
    power_exp: Fraction

    def __post_init__(self):
        vector = tuple(map(to_fraction, self.vector))
        object.__setattr__(self, "power_exp", to_fraction(self.power_exp))
        if not any(vector):
            raise EmptyVector(f"stream of user {self.user} has no direction")
        if self.power_exp > 0:
            raise PositivePowerExponent(
                f"stream of user {self.user} has power exponent {self.power_exp} > 0"
            )
        object.__setattr__(self, "vector", integer_row(vector))


@dataclass(frozen=True)
class Scheme:
    """Beamforming scheme over an n-use block.

    Within each user, stream order is the successive-cancellation decoding
    order and is preserved.
    """

    n: int
    streams: tuple[Stream, ...]

    def __post_init__(self):
        object.__setattr__(self, "streams", tuple(self.streams))
        if self.n < 1:
            raise ValueError(f"block length must be positive, got {self.n}")
        for s in self.streams:
            if len(s.vector) != self.n:
                raise DimensionMismatch(
                    f"stream of user {s.user} has {len(s.vector)} coordinates, block is {self.n}"
                )

    @cached_property
    def users(self) -> tuple[int, ...]:
        """Each stream's user, in stream order."""
        return tuple(s.user for s in self.streams)

    @cached_property
    def scaled_powers(self) -> tuple[int, tuple[int, ...]]:
        """(Q, N): Q the lcm of the power-exponent denominators and N each
        stream's power exponent times Q, in stream order."""
        return over_lcm([s.power_exp for s in self.streams])


def validate_scheme(scheme: Scheme, channel: ChannelMatrix) -> Scheme:
    """Check that every stream's user is a user of the channel and return
    the scheme.  Vector length, power exponent and nonzero direction are
    already enforced by the Stream and Scheme constructors, and each
    direction is already its canonical row."""
    for s in scheme.streams:
        if not 0 <= s.user < channel.K:
            raise DimensionMismatch(f"stream user {s.user} out of range for K={channel.K}")
    return scheme


@dataclass(frozen=True)
class UserGdof:
    """GDoF split for one receiver: the exponents of det(desired +
    interference + noise) and det(interference + noise), and their scaled
    difference."""

    combined_exp: Fraction
    interference_exp: Fraction
    gdof: Fraction


@dataclass(frozen=True)
class GDoFReport:
    """Per-user GDoF values plus the per-stream successive-cancellation
    breakdown (rows sum exactly to the user GDoF)."""

    users: tuple[UserGdof, ...]
    per_stream: tuple[tuple[Fraction, ...], ...]

    @property
    def gdof(self) -> tuple[Fraction, ...]:
        return tuple(u.gdof for u in self.users)


@dataclass(frozen=True)
class DecompositionMap:
    """Assignment of each present cross link (receiver, transmitter) to the
    vector-space (TIM) component or the power-level (TIN) component, as
    ``decomp.split`` builds it: the TIN side is every present cross link
    that the TIM side does not hold."""

    tim_links: frozenset[tuple[int, int]]
    tin_links: frozenset[tuple[int, int]]


# --- JSON file formats (1-based user indices on disk) ---


def loads(text: str):
    """JSON text with each number that has a fraction or exponent read as
    the exact Fraction it spells (0.1 is 1/10), never a binary double.
    Nesting too deep for the parser is a MalformedDocument."""
    try:
        return json.loads(text, parse_float=to_fraction)
    except RecursionError:
        raise MalformedDocument("JSON nested too deeply") from None


def document_list(value, what: str) -> list:
    """``value`` if it is a JSON list, else MalformedDocument naming ``what``."""
    if not isinstance(value, list):
        raise MalformedDocument(f"{what} must be a list, got {type(value).__name__}")
    return value


def document_int(value, what: str) -> int:
    """``value`` if it is an integer-valued JSON number (2 or 2.0), else
    MalformedDocument naming ``what``; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise MalformedDocument(f"{what} must be an integer, got {type(value).__name__}")
    if value % 1:  # also true for inf and nan
        raise MalformedDocument(f"{what} must be an integer, got {value}")
    return int(value)


def parse_links(value, what: str) -> frozenset[tuple[int, int]]:
    """A JSON list of 1-based [receiver, transmitter] pairs, as 0-based tuples."""
    pairs = document_list(value, what)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise MalformedDocument("each link must be a [receiver, transmitter] pair")
    return frozenset(
        (document_int(k, "link user index") - 1, document_int(i, "link user index") - 1)
        for k, i in pairs
    )


def link_list(links) -> list[list[int]]:
    """0-based (receiver, transmitter) pairs as a sorted 1-based JSON list."""
    return sorted([k + 1, i + 1] for k, i in links)


def dumps(doc) -> str:
    """Deterministic JSON emission used for every document this package writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_topology(text: str) -> ChannelMatrix:
    doc = loads(text)
    if not isinstance(doc, dict) or "alpha" not in doc:
        raise NonSquare('topology file must be {"K": int, "alpha": [[...]]}')
    rows = [document_list(row, "alpha row") for row in document_list(doc["alpha"], "alpha")]
    try:
        channel = validate_channel(rows)
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"topology: {exc}") from None
    declared = document_int(doc.get("K", channel.K), "K")
    if declared != channel.K:
        raise NonSquare(f'declared K={doc["K"]} but alpha is {channel.K}x{channel.K}')
    return channel


def emit_topology(channel: ChannelMatrix) -> str:
    return dumps(
        {
            "K": channel.K,
            "alpha": [[format_rational(x) for x in row] for row in channel.alpha],
        }
    )


def parse_scheme(text: str) -> Scheme:
    doc = loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "streams" not in doc:
        raise DimensionMismatch('scheme file must be {"n": int, "streams": [...]}')
    entries = document_list(doc["streams"], "streams")
    if not all(isinstance(entry, dict) for entry in entries):
        raise MalformedDocument("streams entries must be objects")
    try:
        streams = [
            Stream(
                user=document_int(entry["user"], "stream user") - 1,
                vector=tuple(to_fraction(c) for c in document_list(entry["vector"], "vector")),
                power_exp=to_fraction(entry["power_exp"]),
            )
            for entry in entries
        ]
        return Scheme(document_int(doc["n"], "n"), tuple(streams))
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"scheme: {exc}") from None


def emit_scheme(scheme: Scheme) -> str:
    return dumps(
        {
            "n": scheme.n,
            "streams": [
                {
                    "user": s.user + 1,
                    "vector": [format_rational(c) for c in s.vector],
                    "power_exp": format_rational(s.power_exp),
                }
                for s in scheme.streams
            ],
        }
    )


def emit_decomposition_map(dmap: DecompositionMap) -> str:
    return dumps({"tim_links": link_list(dmap.tim_links), "tin_links": link_list(dmap.tin_links)})
