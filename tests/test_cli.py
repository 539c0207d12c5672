import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from timtin import cli, decomp, evaluator
from timtin.fixtures import BASELINE_TIM_LINKS, five_user_network
from timtin.model import emit_scheme, emit_topology, parse_scheme, parse_topology, to_fraction

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas"


def schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    network = five_user_network()
    topo = root / "topo.json"
    topo.write_text(emit_topology(network))
    result = decomp.evaluate_map(network, decomp.map_mask(network, BASELINE_TIM_LINKS))
    scheme = root / "scheme.json"
    scheme.write_text(emit_scheme(result.scheme))
    tiny_topo = root / "tiny.json"
    tiny_topo.write_text('{"K": 1, "alpha": [["1"]]}')
    tiny_scheme = root / "tiny_scheme.json"
    tiny_scheme.write_text(
        '{"n": 1, "streams": [{"user": 1, "vector": ["1"], "power_exp": "0"}]}'
    )
    small_topo = root / "small.json"
    small_topo.write_text('{"K": 3, "alpha": [["1", "0.5", "0"], ["1", "1", "0.5"], ["0", "0.5", "1"]]}')
    return root


def test_eval_reference(files, capsys):
    code, out = run(capsys, "eval", "-t", str(files / "topo.json"), "-s", str(files / "scheme.json"))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("gdof_report.schema.json"))
    assert [to_fraction(x) for x in doc["gdof"]] == [Fraction(3, 10)] * 5
    assert [to_fraction(x) for x in doc["combined_exp"]] == [
        Fraction(17, 10), Fraction(19, 10), Fraction(17, 10), Fraction(17, 10), Fraction(13, 10),
    ]


def test_eval_trivial(files, capsys):
    code, out = run(capsys, "eval", "-t", str(files / "tiny.json"), "-s", str(files / "tiny_scheme.json"))
    assert code == 0
    assert json.loads(out)["gdof"] == ["1"]


def test_sc_adds_per_stream(files, capsys):
    code, out = run(capsys, "sc", "-t", str(files / "topo.json"), "-s", str(files / "scheme.json"))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("gdof_report.schema.json"))
    assert doc["per_stream"] == [["0.3"]] * 5


def test_oracle(files, capsys):
    code, out = run(capsys, "oracle", "-t", str(files / "topo.json"),
                    "-s", str(files / "scheme.json"), "-P", "1e6,1e10", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("oracle_result.schema.json"))
    for slope in doc["slopes"]:
        assert abs(slope - 0.3) <= 0.05


def test_oracle_reuses_rates_for_slopes(files, capsys):
    topo, scheme_file = files / "topo.json", files / "scheme.json"
    code, out = run(capsys, "oracle", "-t", str(topo), "-s", str(scheme_file),
                    "-P", "1e3,1e12", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    channel = parse_topology(topo.read_text())
    scheme = parse_scheme(scheme_file.read_text())
    assert doc["rates"] == [evaluator.finite_p_rate(scheme, channel, p, 2) for p in (1e3, 1e12)]
    assert doc["slopes"] == evaluator.slope_estimate(scheme, channel, 1e3, 1e12, 2)


def test_oracle_empty_scheme_gives_zeros(files, capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 2, "streams": []}')
    code, out = run(capsys, "oracle", "-t", str(files / "small.json"), "-s", str(empty),
                    "-P", "1e3,1e6")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("oracle_result.schema.json"))
    assert doc["rates"] == [[0.0] * 3, [0.0] * 3]
    assert doc["slopes"] == [0.0] * 3


def test_oracle_single_power(files, capsys):
    code, out = run(capsys, "oracle", "-t", str(files / "tiny.json"),
                    "-s", str(files / "tiny_scheme.json"), "-P", "1e6")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("oracle_result.schema.json"))
    assert doc["slopes"] is None


def test_tin_symmetric(files, capsys):
    code, out = run(capsys, "tin", "-t", str(files / "small.json"))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("tin_result.schema.json"))
    assert doc["feasible"] is True
    assert to_fraction(doc["d_sym"]) > 0


def test_tin_target(files, capsys):
    code, out = run(capsys, "tin", "-t", str(files / "small.json"), "--target", "0.1,0.1,0.1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("tin_result.schema.json"))
    assert doc["feasible"] is True


def test_tim_default_threshold(files, capsys):
    code, out = run(capsys, "tim", "-t", str(files / "topo.json"), "--threshold", "1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("tim_result.schema.json"))
    assert doc["method"] == "half_rate"
    assert doc["fractions"] == ["0.5"] * 5


def test_tim_explicit_links(files, capsys, tmp_path):
    links = tmp_path / "links.json"
    links.write_text('{"links": [[2, 1]]}')
    code, out = run(capsys, "tim", "-t", str(files / "small.json"), "--links", str(links))
    assert code == 0
    doc = json.loads(out)
    assert doc["fractions"] == ["0.5", "0.5", "1"]


def test_decompose_report(files, capsys, tmp_path):
    schemes_dir = tmp_path / "schemes"
    code, out = run(capsys, "decompose", "-t", str(files / "small.json"),
                    "--emit-schemes", str(schemes_dir))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("decompose_report.schema.json"))
    assert doc["evaluated"] == 2 ** len(doc["cross_links"])
    assert doc["frontier"]
    for entry in doc["frontier"]:
        assert entry["verdict"] is True
        written = json.loads((schemes_dir / entry["scheme_file"]).read_text())
        jsonschema.validate(written, schema("scheme.schema.json"))
        map_doc = json.loads(
            (schemes_dir / entry["scheme_file"].replace("scheme", "map")).read_text()
        )
        jsonschema.validate(map_doc, schema("decomposition_map.schema.json"))
    report_file = tmp_path / "report.json"
    report_file.write_text(out)

    weights = ",".join(["1/%d" % len(doc["frontier"])] * len(doc["frontier"]))
    code, out = run(capsys, "timeshare", "-r", str(report_file), "-w", weights)
    assert code == 0
    mixed = json.loads(out)
    jsonschema.validate(mixed, schema("timeshare_result.schema.json"))
    assert len(mixed["gdof"]) == 3


def test_timeshare_weight_mismatch(files, capsys, tmp_path):
    report = {"frontier": [{"verified": ["1", "0"]}, {"verified": ["0", "1"]}]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    code, out = run(capsys, "timeshare", "-r", str(path), "-w", "1")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))

    code, out = run(capsys, "timeshare", "-r", str(path), "-w", "1/2,1/2")
    assert code == 0
    assert json.loads(out)["gdof"] == ["0.5", "0.5"]


def test_timeshare_reads_decimal_numbers_exactly(capsys, tmp_path):
    # the JSON number, not the binary double nearest it (which prints as 0.1)
    path = tmp_path / "r.json"
    path.write_text('{"frontier": [{"verified": [0.1000000000000000055511151231257827, 1]},'
                    ' {"verified": ["0", "1"]}]}')
    code, out = run(capsys, "timeshare", "-r", str(path), "-w", "1,0")
    assert code == 0
    gdof = [to_fraction(x) for x in json.loads(out)["gdof"]]
    assert gdof == [Fraction("0.1000000000000000055511151231257827"), 1]


def test_tim_links_read_decimal_numbers_exactly(files, capsys, tmp_path):
    # 2.0000000000000001 is no user index, though its nearest double is 2.0
    path = tmp_path / "links.json"
    path.write_text('{"links": [[2.0000000000000001, 1]]}')
    code, out = run(capsys, "tim", "-t", str(files / "small.json"), "--links", str(path))
    assert code == 1
    assert json.loads(out)["error"].startswith("MalformedDocument: ")


@pytest.mark.parametrize(
    "command, option, document",
    [
        ("tim", "--links", {"links": 5}),
        ("tim", "--links", [[1, 2, 3]]),
        ("tim", "--links", {"links": [[None, 1]]}),
        ("timeshare", "-r", {"frontier": [{"verified": 5}]}),
        ("timeshare", "-r", {"frontier": 3}),
        ("timeshare", "-r", {"frontier": [7]}),
        ("timeshare", "-r", {"frontier": [{"verified": [None]}]}),
        ("tin", "-t", {"K": 2, "alpha": 5}),
        ("eval", "-s", {"n": 1, "streams": 5}),
        ("eval", "-s", {"n": 1, "streams": [5]}),
        ("eval", "-s", {"n": 1, "streams": [{"user": 1, "vector": 5, "power_exp": "0"}]}),
        ("tim", "--links", {"links": [[1.5, 2]]}),
        ("tim", "--links", {"links": [[True, 2]]}),
        ("tin", "-t", {"K": 1.7, "alpha": [["1"]]}),
        ("tin", "-t", {"K": True, "alpha": [["1"]]}),
        ("tin", "-t", {"K": "1", "alpha": [["1"]]}),
        ("eval", "-s", {"n": 1, "streams": [{"user": 1.5, "vector": ["1"], "power_exp": "0"}]}),
        ("eval", "-s", {"n": 1, "streams": [{"user": True, "vector": ["1"], "power_exp": "0"}]}),
        ("eval", "-s", {"n": 1.5, "streams": []}),
        ("tin", "-t", {"K": 1, "alpha": [["1/0"]]}),
        ("eval", "-s", {"n": 1, "streams": [{"user": 1, "vector": ["1/0"], "power_exp": "0"}]}),
        ("eval", "-s", {"n": 1, "streams": [{"user": 1, "vector": ["1"], "power_exp": "-1/0"}]}),
        ("timeshare", "-r", {"frontier": [{"verified": ["1/0"]}]}),
    ],
)
def test_malformed_documents_are_domain_errors(files, capsys, tmp_path, command, option, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argv = {
        "tim": ["-t", str(files / "small.json")],
        "eval": ["-t", str(files / "small.json")],
        "timeshare": ["-w", "1"],
        "tin": [],
    }[command]
    code, out = run(capsys, command, option, str(path), *argv)
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"].startswith("MalformedDocument: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["tin", "-t", "{doc}"],
        ["eval", "-t", "{doc}", "-s", "{scheme}"],
        ["oracle", "-t", "{topo}", "-s", "{doc}"],
        ["tim", "-t", "{topo}", "--links", "{doc}"],
        ["timeshare", "-r", "{doc}", "-w", "1"],
    ],
)
def test_deeply_nested_json_in_every_file_slot_is_a_domain_error(files, capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    slots = {"doc": path, "topo": files / "small.json", "scheme": files / "tiny_scheme.json"}
    code, out = run(capsys, *[a.format(**slots) for a in argv])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"] == "MalformedDocument: JSON nested too deeply"


@pytest.mark.parametrize("command", ["eval", "oracle"])
def test_direction_with_a_huge_denominator_lcm_is_refused_fast(files, capsys, tmp_path, command):
    """400 coordinates 1/(10^1000 + i), a 403-KB scheme, once took `eval`
    minutes; integer_row refuses it as the lcm passes its limit."""
    vector = [f"1/{10**1000 + i}" for i in range(400)]
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"n": 400, "streams": [{"user": 1, "vector": vector, "power_exp": "0"}]}))
    assert path.stat().st_size > 400_000
    start = time.perf_counter()
    code, out = run(capsys, command, "-t", str(files / "tiny.json"), "-s", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out)["error"].startswith("MalformedDocument: scheme: ")


TWO_STREAMS = {
    "n": 1,
    "streams": [
        {"user": 1, "vector": [1], "power_exp": 0},
        {"user": 2, "vector": [1], "power_exp": 0},
    ],
}


@pytest.mark.parametrize(
    "topology, scheme, powers",
    [
        # 1e400 reads as an exact integer far beyond a double
        ('{"K": 2, "alpha": [[1e400, 0], [0, 1]]}', TWO_STREAMS, "1e6,1e10"),
        # (1e3)^400 = 1e1200 overflows a double although 400 itself is small
        ('{"K": 2, "alpha": [[400, 0], [0, 1]]}', TWO_STREAMS, "1e3,1e6"),
        # a stream 10^-1800 below the unit noise floor at P = 1e6
        ('{"K": 1, "alpha": [[1]]}',
         {"n": 1, "streams": [{"user": 1, "vector": [1], "power_exp": -300}]}, "1e6"),
        # the unit norm of (1, 1e200, 1e200) overflows a double
        ('{"K": 1, "alpha": [[1]]}',
         {"n": 3, "streams": [{"user": 1, "vector": [1, "1e200", "1e200"], "power_exp": 0}]},
         "1e6"),
        ('{"K": 1, "alpha": [[1]]}',
         {"n": 2, "streams": [{"user": 1, "vector": [1, "1e400"], "power_exp": 0}]}, "1e6"),
    ],
)
def test_oracle_input_beyond_double_range_is_domain_error(
    capsys, tmp_path, topology, scheme, powers
):
    topo, scheme_file = tmp_path / "topo.json", tmp_path / "scheme.json"
    topo.write_text(topology)
    scheme_file.write_text(json.dumps(scheme))
    code, out = run(capsys, "oracle", "-t", str(topo), "-s", str(scheme_file), "-P", powers)
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"].startswith("ValueError: ")


@pytest.mark.parametrize("excess, code", [(Fraction(0), 0), (Fraction(1, 10**6), 1)])
def test_oracle_coordinate_bound_is_exact(capsys, tmp_path, excess, code):
    """The bound is the double 1e150 read exactly: a coordinate equal to it
    is evaluated, one a millionth above it is refused before any float()."""
    topo, scheme_file = tmp_path / "topo.json", tmp_path / "scheme.json"
    topo.write_text('{"K": 1, "alpha": [[1]]}')
    coordinate = str(Fraction(1e150) + excess)
    scheme_file.write_text(json.dumps(
        {"n": 2, "streams": [{"user": 1, "vector": [1, coordinate], "power_exp": 0}]}
    ))
    got, out = run(capsys, "oracle", "-t", str(topo), "-s", str(scheme_file))
    assert got == code
    if code:
        assert json.loads(out)["error"].startswith("ValueError: ")


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 1)])
def test_oracle_block_length_bound(capsys, tmp_path, excess, code):
    """A block of MAX_ORACLE_BLOCK uses is evaluated; one use more is
    refused with an error that names the limit."""
    n = evaluator.MAX_ORACLE_BLOCK + excess
    topo, scheme_file = tmp_path / "topo.json", tmp_path / "scheme.json"
    topo.write_text('{"K": 1, "alpha": [[1]]}')
    scheme_file.write_text(json.dumps(
        {"n": n, "streams": [{"user": 1, "vector": [1] * n, "power_exp": 0}]}
    ))
    got, out = run(capsys, "oracle", "-t", str(topo), "-s", str(scheme_file))
    assert got == code
    if code:
        assert json.loads(out)["error"] == f"ValueError: block length {n} exceeds the oracle's limit of {n - 1}"


def test_oracle_exponent_at_double_range_edge_is_evaluated(capsys, tmp_path):
    """308 / log10(1e6) = 51.33...: a strength of 51 stays within range."""
    topo, scheme_file = tmp_path / "topo.json", tmp_path / "scheme.json"
    topo.write_text('{"K": 2, "alpha": [[51, 0], [0, 1]]}')
    scheme_file.write_text(json.dumps(TWO_STREAMS))
    code, out = run(capsys, "oracle", "-t", str(topo), "-s", str(scheme_file), "-P", "1e3,1e6")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("oracle_result.schema.json"))
    assert abs(doc["slopes"][0] - 51) <= 0.05 and abs(doc["slopes"][1] - 1) <= 0.05


@pytest.mark.parametrize("command", ["tim", "decompose"])
def test_coloring_component_beyond_limit_is_budget_error(capsys, tmp_path, command):
    K = 17  # one more than the exact coloring LP accepts
    topo = tmp_path / "all_ones.json"
    topo.write_text(json.dumps({"K": K, "alpha": [["1"] * K for _ in range(K)]}))
    code, out = run(capsys, command, "-t", str(topo))
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"].startswith("BudgetOutOfRange: ")


@pytest.mark.parametrize("command", ["tim", "decompose"])
def test_tim_block_beyond_direction_budget_is_budget_error(capsys, tmp_path, command):
    """Circulant components C_m(1, 2) of 5, 7, 11 and 13 users: a 6.5 KB
    topology whose 5005-use block would need 2.5e8 direction coordinates."""
    alpha, base = [["0"] * 36 for _ in range(36)], 0
    for m in (5, 7, 11, 13):
        for k in range(m):
            for d in (0, 1, 2):
                alpha[base + k][base + (k + d) % m] = "1"
        base += m
    topo = tmp_path / "circulant.json"
    topo.write_text(json.dumps({"K": 36, "alpha": alpha}))
    code, out = run(capsys, command, "-t", str(topo))
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"] == (
        "BudgetOutOfRange: a 5005-use block needs 250500250 direction entries, beyond 250000"
    )


def test_exhaustive_cap_beyond_ceiling_is_domain_error(files, capsys, monkeypatch):
    def no_masks(*args):
        raise AssertionError("candidate masks built for an out-of-range cap")

    monkeypatch.setattr(decomp, "candidate_masks", no_masks)
    code, out = run(capsys, "decompose", "-t", str(files / "small.json"), "--exhaustive-cap", "64")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"].startswith("BudgetOutOfRange: ")


def test_decompose_builds_candidate_masks_once(files, capsys, monkeypatch):
    calls = []
    masks = decomp.candidate_masks

    def counted_masks(*args):
        calls.append(args)
        return masks(*args)

    monkeypatch.setattr(decomp, "candidate_masks", counted_masks)
    code, out = run(capsys, "decompose", "-t", str(files / "small.json"))
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["evaluated"] == len(masks(*calls[0]))


@pytest.mark.parametrize("number", ["1e4301", "1E+4301", "-2.5e-4301"])
def test_decimal_exponent_beyond_bound_is_refused(capsys, tmp_path, number):
    # a document exits 1, as any malformed document does; an option value
    # is a usage error, as a zero denominator there is
    topo = tmp_path / "topo.json"
    topo.write_text('{"K": 2, "alpha": [[1, %s], [0, 1]]}' % number)
    code, out = run(capsys, "tin", "-t", str(topo))
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert "exponent" in doc["error"]
    topo.write_text('{"K": 2, "alpha": [["1", "%s"], ["0", "1"]]}' % number)
    code, out = run(capsys, "tin", "-t", str(topo))
    assert code == 1
    assert json.loads(out)["error"].startswith("MalformedDocument: ")
    with pytest.raises(SystemExit) as exc:
        cli.main(["tin", "-t", str(topo), f"--target={number},1"])
    assert exc.value.code == 2
    assert number in capsys.readouterr().err


def test_number_beyond_the_output_digit_limit_is_a_domain_error(files, capsys):
    # 1e4300 is read (its exponent is at the bound) but has 4,301 digits to print
    code, out = run(capsys, "tin", "-t", str(files / "small.json"), "--target", "1e4300,1,1")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))
    assert doc["error"] == "ValueError: a 4301-digit number exceeds the 4300-digit output limit"
    code, out = run(capsys, "tin", "-t", str(files / "small.json"), "--target", "1e4299,1,1")
    assert code == 0
    assert json.loads(out)["target"][0] == "1" + "0" * 4299


def test_missing_file_is_domain_error(capsys):
    code, out = run(capsys, "eval", "-t", "/nonexistent.json", "-s", "/nonexistent.json")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("error.schema.json"))


def test_invalid_scheme_is_domain_error(files, capsys, tmp_path):
    bad = tmp_path / "bad_scheme.json"
    bad.write_text('{"n": 1, "streams": [{"user": 1, "vector": ["1"], "power_exp": "0.1"}]}')
    code, out = run(capsys, "eval", "-t", str(files / "tiny.json"), "-s", str(bad))
    assert code == 1
    assert "PositivePowerExponent" in json.loads(out)["error"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--unknown-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2
    # a rational option with a zero denominator is a usage error too
    for argv in (
        ["tin", "-t", "topo.json", "--target", "1/0,1"],
        ["tim", "-t", "topo.json", "--threshold", "1/0"],
        ["timeshare", "-r", "report.json", "-w", "1/0"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_byte_identical_output(files, capsys):
    _, first = run(capsys, "oracle", "-t", str(files / "tiny.json"),
                   "-s", str(files / "tiny_scheme.json"), "-P", "1e6,1e8", "--seed", "1")
    _, second = run(capsys, "oracle", "-t", str(files / "tiny.json"),
                    "-s", str(files / "tiny_scheme.json"), "-P", "1e6,1e8", "--seed", "1")
    assert first == second


def test_shared_parser_leaks_nothing_between_commands(files, capsys, monkeypatch):
    """One process, one parser: every command prints what it prints with a
    freshly built parser, and N calls build the top-level parser at most once."""
    topo, scheme = str(files / "topo.json"), str(files / "scheme.json")
    oracle = ["oracle", "-t", topo, "-s", scheme]
    commands = [
        [*oracle, "-P", "1e3,1e6"],
        oracle,
        ["sc", "-t", topo, "-s", scheme],
        ["tim", "-t", topo, "--threshold", "1/2"],
        ["tim", "-t", topo],
        [*oracle, "-P", "1,2,3"],  # usage error
        oracle,
    ]

    def run_all():
        outputs = []
        for argv in commands:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        return outputs

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if kwargs.get("prog") == "timtin":
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        shared = run_all()
    assert len(built) <= 1
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_all()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 0]
    assert json.loads(shared[1][1])["P"] == [1000000.0, 10000000000.0]
    assert shared[6][1] == shared[1][1]
