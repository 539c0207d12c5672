"""Byte-identity of the CLI documents.

For each network, the stdout of ``decompose`` (with the scheme and map
files it emits), ``tin``, ``tim`` and ``eval``/``sc`` on every emitted
frontier scheme is hashed into one sha256 and compared with the digest
recorded in ``GOLDEN``.  A refactor must leave every digest unchanged.
``oracle`` is left out: its floats depend on the numpy/BLAS build.

``MAP_GOLDEN`` pins every evaluated map, not only the frontier: for each
network in it, the ``decompose`` document of ``decomp.evaluate_map`` on
each candidate mask, in mask order, with one ``_Caches`` per network.
"""

import contextlib
import hashlib
import io
import random

import pytest

from oracles import MIXED_CROSS, MIXED_DIAG, random_channel
from timtin import cli, decomp
from timtin.fixtures import five_user_network
from timtin.model import dumps, emit_topology

# network name -> (channel, extra decompose options)
NETWORKS = {
    "reference": (five_user_network(), []),
    "seeded3": (random_channel(random.Random(0), 3, cross_prob=0.6), []),
    "seeded4": (random_channel(random.Random(7), 4, cross_prob=0.6), []),
    "seeded4-threshold": (
        random_channel(random.Random(6), 4, cross_prob=0.6), ["--exhaustive-cap", "3"]
    ),
    "seeded4-mixed": (
        random_channel(
            random.Random(11), 4, diag_choices=MIXED_DIAG, cross_choices=MIXED_CROSS, cross_prob=0.6
        ),
        [],
    ),
    # components of up to 8 users: ~100 coloring LPs with up to 12 sets
    "seeded8-threshold": (
        random_channel(random.Random(3), 8, cross_prob=0.6), ["--exhaustive-cap", "3"]
    ),
}

GOLDEN = {
    "reference": "3591b72ae856e165a52ea8718ab587cfe9559a3762ec0f13243253b26c81840c",
    "seeded3": "985ec8fb3ceb9aa17caa58ad744c6cc170a37859155b753f505d3f4efc31cbc0",
    "seeded4": "df9b183313995016c0fa26790394e6d6c6543bb121309142c4382d031c753592",
    "seeded4-threshold": "9441ed424f9f30f035294c479915f27d1bd22c11f2b39f3f2b52d20ac60491cd",
    "seeded4-mixed": "f6ed793458a5257bd4414b9df410b3336f6fe6130258af3ccd2c1ed3a5af0de5",
    # recorded at the generic two-phase simplex, before its covering rewrite
    "seeded8-threshold": "58d2d9bce82cf0cdd9bbe532a5293a985162027d1d4c90275417e8fb757d1d0f",
}


def _stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    assert code == 0, buf.getvalue()
    return buf.getvalue()


def network_digest(channel, options, root) -> str:
    """sha256 over every document the CLI writes for one network."""
    topo = root / "topo.json"
    topo.write_text(emit_topology(channel))
    out = root / "schemes"
    digest = hashlib.sha256()

    def record(label, text):
        digest.update(f"{label}\n{text}".encode())

    record("decompose", _stdout("decompose", "-t", topo, "--emit-schemes", out, *options))
    for path in sorted(out.iterdir()):
        record(path.name, path.read_text())
    record("tin", _stdout("tin", "-t", topo))
    record("tim", _stdout("tim", "-t", topo))
    record("tim --threshold 1", _stdout("tim", "-t", topo, "--threshold", "1"))
    for scheme in sorted(out.glob("scheme_*.json")):
        for command in ("eval", "sc"):
            record(f"{command} {scheme.name}", _stdout(command, "-t", topo, "-s", scheme))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_cli_documents_unchanged(name, tmp_path):
    channel, options = NETWORKS[name]
    got = network_digest(channel, options, tmp_path)
    assert got == GOLDEN[name], (
        f"CLI documents for {name!r} changed (sha256 {got}). If the change is "
        "intended, update GOLDEN in tests/test_golden.py and say so in CHANGES.md."
    )


# recorded before the integer simplex and the int-only per-map path
MAP_GOLDEN = {
    "reference": "4756490efca2386c463dada88ff6078af06db3934ca8a3681c909d2a9d00939b",
    "seeded4": "8e90150b0b9e1cb36446e82e197822603352835e01ea9cc9198b7d594ab93980",
    "seeded4-mixed": "2945355392d3922114ff0efdf56f8ac25c9aeafe10500dfb245401f1bac95235",
    "seeded8-threshold": "f959da25c43eb7332938bd66524689f6dbb4625b6d0e26b94f55f2659027f2d9",
}


def per_map_digest(channel, options) -> str:
    """sha256 over the result document of every candidate map, in mask order."""
    budget = decomp.SearchBudget(int(options[1])) if options else decomp.SearchBudget()
    caches = decomp._Caches(channel)
    digest = hashlib.sha256()
    for mask in decomp.candidate_masks(channel, budget):
        result = decomp.evaluate_map(channel, mask, caches)
        digest.update(f"{mask}\n{dumps(cli._result_doc(result))}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(MAP_GOLDEN))
def test_every_map_document_unchanged(name):
    got = per_map_digest(*NETWORKS[name])
    assert got == MAP_GOLDEN[name], (
        f"per-map documents for {name!r} changed (sha256 {got}). If the change is "
        "intended, update MAP_GOLDEN in tests/test_golden.py and say so in CHANGES.md."
    )
