import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from timtin.decomp import split
from timtin.fixtures import five_user_network
from timtin.model import (
    MAX_LCM_BITS,
    DimensionMismatch,
    EmptyVector,
    MalformedDocument,
    MapMismatch,
    NonSquare,
    PositivePowerExponent,
    Scheme,
    Stream,
    ZeroDirectLink,
    emit_decomposition_map,
    emit_scheme,
    emit_topology,
    format_rational,
    integer_row,
    link_list,
    loads,
    parse_links,
    parse_scheme,
    parse_topology,
    to_fraction,
    validate_channel,
    validate_scheme,
)

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas"
rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def test_to_fraction_exact_decimal():
    assert to_fraction("0.3") == Fraction(3, 10)
    assert to_fraction(0.3) == Fraction(3, 10)  # via shortest repr, not the double
    assert to_fraction("2e-1") == Fraction(1, 5)
    assert to_fraction("1/3") == Fraction(1, 3)
    assert to_fraction(7) == 7


@pytest.mark.parametrize("text, exponent", [("1e4300", 4300), ("1e0004300", 4300), ("-1E-4300", -4300)])
def test_decimal_exponent_at_the_bound_parses(text, exponent):
    x = to_fraction(text)
    assert abs(x) == Fraction(10) ** exponent
    assert loads(f"[{text}]") == [x]


@pytest.mark.parametrize("text", ["1e4301", "1E+4301", "-2.5e-4301", " 3e00004301 "])
def test_decimal_exponent_beyond_the_bound_is_refused(text):
    # refused before 10^exponent is built, in option strings and in JSON numbers alike
    with pytest.raises(ValueError, match="exponent"):
        to_fraction(text)
    with pytest.raises(ValueError, match="exponent"):
        loads(f'{{"alpha": [[{text.strip()}]]}}')


def test_a_run_of_digits_beyond_the_input_limit_is_refused():
    # each run of digits is bounded, not the number: two 4,300-digit runs
    # are read, and one more digit in any run is refused with one message
    assert to_fraction("7" * 4300 + "/" + "9" * 4300) == Fraction(int("7" * 4300), int("9" * 4300))
    message = "^a run of 4301 digits exceeds the 4300-digit input limit$"
    for text in ("7" * 4301, "0." + "7" * 4301, "1/" + "7" * 4301, "1e" + "0" * 4300 + "1"):
        with pytest.raises(ValueError, match=message):
            to_fraction(text)
    with pytest.raises(MalformedDocument, match=message):
        loads("[%s]" % ("7" * 4301))


def test_strength_and_power_exponent_lcms_are_bounded():
    # a lone 1e-4300 is read, and so is the widest denominator one number
    # may spell, 10^8600, as a strength and as a power exponent
    for entry in ("1e-4300", "0." + "7" * 4300 + "e-4300"):
        x = to_fraction(entry)
        channel = parse_topology(json.dumps({"K": 2, "alpha": [["1", entry], ["0", "1"]]}))
        assert channel.scale == x.denominator
        stream = {"user": 1, "vector": ["1"], "power_exp": "-" + entry}
        scheme = parse_scheme(json.dumps({"n": 1, "streams": [stream]}))
        assert scheme.scaled_powers == (x.denominator, (-x.numerator,))
    # three coprime 4,300-digit denominators are refused, in a document and
    # when the channel is built outside one
    fractions = [f"1/{10**4299 + d}" for d in (1, 3, 7)]
    alpha = [["1", *fractions[:2]], [fractions[2], "1", "0"], ["0", "0", "1"]]
    with pytest.raises(MalformedDocument, match="^topology: the strengths' denominator lcm passes 32768 bits$"):
        parse_topology(json.dumps({"K": 3, "alpha": alpha}))
    with pytest.raises(ValueError, match=f"strengths' denominator lcm passes {MAX_LCM_BITS} bits"):
        validate_channel(alpha)
    streams = [{"user": 1, "vector": ["1"], "power_exp": "-" + f} for f in fractions]
    with pytest.raises(MalformedDocument, match="^scheme: the power exponents' denominator lcm passes"):
        parse_scheme(json.dumps({"n": 1, "streams": streams}))


def test_to_fraction_returns_a_fraction_unchanged():
    x = Fraction(7, 3)
    assert to_fraction(x) is x
    with pytest.raises(TypeError):
        to_fraction(True)


def test_format_rational():
    assert format_rational(Fraction(3, 10)) == "0.3"
    assert format_rational(Fraction(-2, 5)) == "-0.4"
    assert format_rational(Fraction(17, 10)) == "1.7"
    assert format_rational(Fraction(7, 4)) == "1.75"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-1, 6)) == "-1/6"
    # up to the output digit limit
    assert format_rational(10**4299) == "1" + "0" * 4299  # 4,300 digits
    text = format_rational(Fraction(1, 10**4300))
    assert text == "0." + "0" * 4299 + "1" and len(text) == 4302
    assert format_rational(Fraction(-(10**4300 - 2), 3)) == "-" + "9" * 4299 + "8/3"


@pytest.mark.parametrize(
    "x, digits",
    [
        (10**4300, 4301),
        (-(10**4300), 4301),
        (Fraction(1, 3 * 10**4300), 4301),  # the denominator of a p/q
        (Fraction(10**4300 + 1, 10**4300), 4301),  # a decimal's digits
        (Fraction(3, 2**14000), 9787),  # a short denominator, a long decimal
    ],
    ids=["integer", "negative", "denominator", "decimal", "long-decimal"],
)
def test_format_rational_refuses_numbers_beyond_the_output_digit_limit(x, digits):
    with pytest.raises(ValueError, match=f"^a {digits}-digit number exceeds the 4300-digit output limit$"):
        format_rational(x)


@given(rationals)
def test_format_parse_round_trip(x):
    assert to_fraction(format_rational(x)) == x


def test_validate_channel_single_user():
    cm = validate_channel([[1.0]])
    assert cm.K == 1 and cm.alpha[0][0] == 1


def test_validate_channel_clamps_negative():
    cm = validate_channel([["1.0", "-0.3"], ["0.5", "1.0"]])
    assert cm.alpha == ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1)))


def test_validate_channel_accepts_reference_network():
    raw = [[str(x) for x in row] for row in five_user_network().alpha]
    assert validate_channel(raw) == five_user_network()


def test_validate_channel_rejects_zero_diagonal():
    with pytest.raises(ZeroDirectLink):
        validate_channel([["1", "0"], ["0", "-2"]])


def test_validate_channel_rejects_non_square():
    with pytest.raises(NonSquare):
        validate_channel([[1, 0]])
    with pytest.raises(NonSquare):
        validate_channel([])


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_validate_channel_idempotent(rows):
    for k in range(3):
        rows[k][k] = abs(rows[k][k]) + 1
    once = validate_channel(rows)
    assert validate_channel(once) == once


def test_cross_links():
    cm = validate_channel([["1", "0.5", "0"], ["0", "1", "0"], ["0.2", "0", "1"]])
    assert cm.cross_links() == ((0, 1), (2, 0))


def test_stream_rejects_positive_power():
    with pytest.raises(PositivePowerExponent):
        Stream(0, (Fraction(1),), Fraction(1, 10))


def test_stream_rejects_zero_vector():
    with pytest.raises(EmptyVector):
        Stream(0, (Fraction(0), Fraction(0)), Fraction(0))


def test_scheme_rejects_wrong_vector_length():
    with pytest.raises(DimensionMismatch):
        Scheme(2, (Stream(0, (Fraction(1),), Fraction(0)),))


def test_validate_scheme_trivial_tin_shape():
    cm = validate_channel([["1", "0.5"], ["0.5", "1"]])
    scheme = Scheme(1, (Stream(0, (1,), 0), Stream(1, (1,), 0)))
    assert validate_scheme(scheme, cm) == scheme


def test_validate_scheme_normalizes_leading_coordinate():
    cm = validate_channel([["1"]])
    scheme = Scheme(2, (Stream(0, (Fraction(2), Fraction(4)), 0),))
    normalized = validate_scheme(scheme, cm)
    assert normalized.streams[0].vector == (Fraction(1), Fraction(2))


def test_validate_scheme_rejects_unknown_user():
    cm = validate_channel([["1"]])
    with pytest.raises(DimensionMismatch):
        validate_scheme(Scheme(1, (Stream(3, (1,), 0),)), cm)


def test_decomposition_map_rejects_self_link():
    with pytest.raises(MapMismatch):
        split(validate_channel([["1", "1"], ["1", "1"]]), {(1, 1)})


def test_decomposition_map_keeps_int_links():
    dmap = split(validate_channel([["1", "1"], ["1", "1"]]), {(0, 1)})
    assert dmap.tim_links == frozenset({(0, 1)}) and isinstance(dmap.tim_links, frozenset)
    assert dmap.tin_links == frozenset({(1, 0)})


def test_topology_round_trip():
    cm = five_user_network()
    assert parse_topology(emit_topology(cm)) == cm


def test_topology_parses_plain_numbers_exactly():
    cm = parse_topology('{"K": 2, "alpha": [[1, 0.3], [0.5, 1]]}')
    assert cm.alpha[0][1] == Fraction(3, 10)
    assert cm.alpha[1][0] == Fraction(1, 2)


@given(st.data())
def test_scheme_round_trip(data):
    n = data.draw(st.integers(1, 3))
    streams = []
    for user in range(data.draw(st.integers(1, 3))):
        vec = data.draw(
            st.lists(rationals, min_size=n, max_size=n).filter(
                lambda v: any(c != 0 for c in v)
            )
        )
        power = -abs(data.draw(rationals))
        streams.append(Stream(user, tuple(vec), power))
    scheme = Scheme(n, tuple(streams))
    assert parse_scheme(emit_scheme(scheme)) == scheme


@given(st.data())
def test_stream_holds_the_primitive_row_on_its_line(data):
    n = data.draw(st.integers(1, 4))
    vector = data.draw(st.lists(rationals, min_size=n, max_size=n).filter(any))
    c = data.draw(rationals.filter(bool))
    power = -abs(data.draw(rationals))
    stream = Stream(0, tuple(vector), power)
    assert Stream(0, tuple(c * x for x in vector), power) == stream
    row = stream.vector
    assert all(type(x) is int for x in row)
    assert math.gcd(*row) == 1 and next(x for x in row if x) > 0
    # the same line: row[i] / vector[i] is one positive or negative constant
    ratios = {Fraction(x) / y for x, y in zip(row, vector) if y}
    assert len(ratios) == 1 and all(x == 0 for x, y in zip(row, vector) if not y)


def test_integer_row_refuses_a_denominator_lcm_beyond_the_limit():
    # 1e-4300 alone is read, and so is the widest denominator one number
    # may spell: 4,300 decimals at exponent -4300, 10^8600
    assert integer_row([Fraction("1e-4300"), Fraction(1, 3)]) == (3, 10**4300)
    widest = "0." + "7" * 4300 + "e-4300"
    assert to_fraction(widest).denominator == 10**8600
    text = json.dumps({"n": 2, "streams": [{"user": 1, "vector": [widest, "1"], "power_exp": "0"}]})
    assert parse_scheme(text).streams[0].vector == (7 * (10**4300 - 1) // 9, 10**8600)
    # denominators whose lcm passes the limit are refused
    big = [Fraction(1, 2**MAX_LCM_BITS - 1), Fraction(1, 2**MAX_LCM_BITS + 1)]
    assert integer_row(big[:1]) == (1,)
    with pytest.raises(ValueError, match=f"{MAX_LCM_BITS} bits"):
        integer_row(big)
    # in a document, two coprime 4,300-digit denominators are read, and
    # three are refused
    denominators = [10**4299 + d for d in (1, 3, 7)]
    for count in (2, 3):
        vector = [f"1/{d}" for d in denominators[:count]]
        text = json.dumps({"n": count, "streams": [{"user": 1, "vector": vector, "power_exp": "0"}]})
        if count == 2:
            assert parse_scheme(text).streams[0].vector == (denominators[1], denominators[0])
        else:
            with pytest.raises(MalformedDocument, match="bits"):
                parse_scheme(text)


def test_map_output_matches_its_schema():
    # present cross links (0, 1), (0, 3) and (1, 0)
    cm = validate_channel([
        ["1", "1", "0", "1"],
        ["1", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ])
    dmap = split(cm, {(0, 3), (1, 0)})
    doc = json.loads(emit_decomposition_map(dmap))
    jsonschema.validate(doc, json.loads((SCHEMA_DIR / "decomposition_map.schema.json").read_text()))
    assert doc == {"tim_links": link_list(dmap.tim_links), "tin_links": link_list(dmap.tin_links)}
    assert doc == {"tim_links": [[1, 4], [2, 1]], "tin_links": [[1, 2]]}


def test_indices_accept_integral_numbers_only():
    assert parse_topology('{"K": 1.0, "alpha": [["1"]]}').K == 1
    scheme = parse_scheme('{"n": 1.0, "streams": [{"user": 2.0, "vector": [1], "power_exp": 0}]}')
    assert scheme.n == 1 and scheme.streams[0].user == 1
    assert parse_links(loads("[[1.0, 2]]"), "links") == frozenset({(0, 1)})
    for text in ("[[1.5, 2]]", "[[true, 2]]", '[["1", 2]]', "[[1, 2, 3]]", "5"):
        with pytest.raises(MalformedDocument):
            parse_links(loads(text), "links")
