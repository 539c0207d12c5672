"""Every CLI command on structurally arbitrary JSON documents.

Each example is a valid document set, or the same with one node (a whole
document, a field, an entry) replaced by arbitrary JSON, so runs reach
both the parsers and the solvers.  Each run must exit 0 with a document
valid under the command's schema, or exit 1 with a document valid under
``error.schema.json``; an exception escaping ``cli.main`` fails the test.
Sizes stay small (K <= 3, block length <= 3, ``decompose
--exhaustive-cap`` <= 4) so each example is fast.
"""

import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timtin import cli

SCHEMA_DIR = Path(__file__).parent.parent / "docs" / "schemas"
SCHEMAS = {
    command: json.loads((SCHEMA_DIR / name).read_text())
    for command, name in {
        "eval": "gdof_report.schema.json",
        "sc": "gdof_report.schema.json",
        "oracle": "oracle_result.schema.json",
        "tin": "tin_result.schema.json",
        "tim": "tim_result.schema.json",
        "decompose": "decompose_report.schema.json",
        "timeshare": "timeshare_result.schema.json",
        "error": "error.schema.json",
    }.items()
}


LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(-4, 4, allow_nan=False),
    st.integers(-2, 20),
    # edge cases the input contract must refuse or survive
    st.sampled_from(["-1", "400", "1e200", "1e400", "-1e400", "1e-400", "1/0", "x", ""]),
)
ANY_JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
DIRECT = st.sampled_from(["1", "3/2", "2", "13/12"]) | st.integers(1, 2)
STRENGTHS = DIRECT | st.sampled_from(["0", "1/2", "0.25"])
SIZES = st.integers(1, 3)


def _replace(doc, path, value):
    """``doc`` with the node that ``path`` picks (child index modulo the
    container size at each level) replaced by ``value``."""
    if not path or not isinstance(doc, (dict, list)) or not doc:
        return value
    key = sorted(doc)[path[0] % len(doc)] if isinstance(doc, dict) else path[0] % len(doc)
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = _replace(doc[key], path[1:], value)
    return out


def mutated(valid):
    """A valid container, or the same with one node below its root (a whole
    child, or something deeper) replaced by arbitrary JSON."""
    one_node = st.tuples(valid, st.lists(st.integers(0, 8), min_size=1, max_size=5), ANY_JSON)
    return valid | one_node.map(lambda case: _replace(*case))


def topology(K):
    rows = [st.tuples(*[DIRECT if i == k else STRENGTHS for i in range(K)]) for k in range(K)]
    return st.fixed_dictionaries({"K": st.just(K), "alpha": st.tuples(*rows)})


def scheme(K):
    def of_length(n):
        stream = st.fixed_dictionaries({
            "user": st.integers(1, K),
            "vector": st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            "power_exp": st.sampled_from(["0", "-1/2", "-1", "-0.25"]),
        })
        return st.fixed_dictionaries({"n": st.just(n), "streams": st.lists(stream, max_size=4)})

    return SIZES.flatmap(of_length)


def links(K):
    return st.fixed_dictionaries(
        {"links": st.lists(st.lists(st.integers(1, K), min_size=2, max_size=2), max_size=4)}
    )


VERIFIED = st.lists(STRENGTHS, min_size=2, max_size=2)
REPORTS = st.fixed_dictionaries(
    {"frontier": st.lists(st.fixed_dictionaries({"verified": VERIFIED}), max_size=3)}
)


def documents(**by_option):
    """Per option, a document for one user count K; one of them may be
    mutated, or replaced outright."""
    return SIZES.flatmap(
        lambda K: mutated(st.fixed_dictionaries({opt: make(K) for opt, make in by_option.items()}))
    )


# command -> strategy of (documents by option, extra options)
CASES = {
    "eval": st.tuples(documents(**{"-t": topology, "-s": scheme}), st.just([])),
    "sc": st.tuples(documents(**{"-t": topology, "-s": scheme}), st.just([])),
    "oracle": st.tuples(
        documents(**{"-t": topology, "-s": scheme}),
        st.sampled_from(["1e3", "1e6", "1e3,1e6", "1e6,1e12"]).map(lambda p: ["-P", p]),
    ),
    "tin": st.tuples(
        documents(**{"-t": topology}),
        st.just([]) | st.sampled_from(["1/2", "0.1,0.1", "1/4,1/4,1/4"]).map(lambda t: ["--target", t]),
    ),
    "tim": st.one_of(
        st.tuples(
            documents(**{"-t": topology}),
            st.sampled_from([[], ["--threshold", "1/2"], ["--threshold", "1"]]),
        ),
        st.tuples(documents(**{"-t": topology, "--links": links}), st.just([])),
    ),
    "decompose": st.tuples(
        documents(**{"-t": topology}),
        st.integers(0, 4).map(lambda cap: ["--exhaustive-cap", str(cap)]),
    ),
    "timeshare": st.tuples(
        mutated(st.fixed_dictionaries({"-r": REPORTS})),
        st.sampled_from(["1", "1/2,1/2", "1/3,1/3,1/3"]).map(lambda w: ["-w", w]),
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(CASES))
def test_arbitrary_documents_exit_0_or_1_with_a_valid_document(command, workdir):
    @settings(max_examples=60, deadline=None)
    @given(CASES[command])
    def check(case):
        documents, options = case
        argv = [command, *options]
        for option, document in documents.items():
            path = workdir / f"{command}{option}.json"
            path.write_text(json.dumps(document))
            argv += [option, str(path)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code in (0, 1), argv
        jsonschema.validate(json.loads(buf.getvalue()), SCHEMAS[command if code == 0 else "error"])

    check()
