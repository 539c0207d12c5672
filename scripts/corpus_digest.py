#!/usr/bin/env python3
"""One sha256 over a seeded corpus of timtin CLI documents.

Runs the ``timtin`` command in process, from this checkout's ``src/``, on a
fixed corpus and hashes each run's label, exit code and stdout, and every
file that ``decompose --emit-schemes`` writes.  Two trees that print the
same digest give byte-identical documents on the whole corpus, and two
runs of one tree under different PYTHONHASHSEED values check that its
output does not depend on hashing.  The corpus covers what
tests/test_golden.py leaves out:

- a seeded 6-user channel with 7 cross links and two relabellings of it:
  ``decompose --emit-schemes``, ``tin`` and ``tim``, and on every frontier
  scheme ``eval``, ``sc`` and ``oracle`` at three power settings (one of
  them past the double-precision log-det's reach);
- RANDOM_SCHEMES seeded schemes with rational vectors and power exponents
  on random channels of 1-4 users: ``eval``, ``sc`` and ``oracle``;
- error documents: a zero vector, a positive power exponent, and a user
  out of range.

Prints one JSON line: the number of documents and their sha256.

Usage, from the repository root:

    python3 scripts/corpus_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from timtin import cli  # noqa: E402

RANDOM_SCHEMES = 300
ORACLE_POWERS = ("1e3,1e6", "1e6,1e12", "1e10")
DENOMINATORS = (1, 2, 3, 4, 7, 10, 97)


class Digest:
    """The running sha256 and the number of documents fed to it."""

    def __init__(self):
        self.sha, self.documents = hashlib.sha256(), 0

    def add(self, label: str, text: str) -> None:
        self.sha.update(f"{len(label)}:{label}{len(text)}:{text}".encode())
        self.documents += 1

    def run(self, label: str, argv: list) -> tuple[int, str]:
        """Run the CLI on ``argv`` and add its exit code and stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        self.add(label, f"exit {code}\n{out.getvalue()}")
        return code, out.getvalue()


def write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def topology(alpha) -> dict:
    return {"K": len(alpha), "alpha": [[str(a) for a in row] for row in alpha]}


def base_channel() -> list[list[Fraction]]:
    """6 users, 7 cross links: direct strengths 1-2, cross strengths 1/2-3/2."""
    rng = random.Random("corpus:channel")
    K = 6
    alpha = [[Fraction(0)] * K for _ in range(K)]
    for k in range(K):
        alpha[k][k] = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    cells = [(k, i) for k in range(K) for i in range(K) if k != i]
    for k, i in rng.sample(cells, 7):
        alpha[k][i] = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
    return alpha


def relabelled(alpha, tag: str) -> list[list[Fraction]]:
    perm = list(range(len(alpha)))
    random.Random(f"corpus:relabel:{tag}").shuffle(perm)
    out = [[Fraction(0)] * len(alpha) for _ in alpha]
    for k, row in enumerate(alpha):
        for i, a in enumerate(row):
            out[perm[k]][perm[i]] = a
    return out


def rational(rng: random.Random, low: int, high: int):
    """A rational in one of the spellings a document may use: "p/q" text,
    decimal text, a JSON integer or a JSON decimal."""
    x = Fraction(rng.randint(low, high), rng.choice(DENOMINATORS))
    form = rng.randrange(4)
    if form == 0:
        return str(x)
    if form == 1:
        return f"{rng.randint(low, high) / 4:g}"
    return x.numerator if form == 2 or x.denominator == 1 else float(f"{rng.randint(low, high) / 10}")


def random_case(rng: random.Random) -> tuple[dict, dict]:
    """A random channel and a scheme on it with rational coordinates."""
    K, n = rng.randint(1, 4), rng.randint(1, 4)
    alpha = [
        [
            Fraction(rng.randint(4, 12), rng.choice((2, 3, 4))) if k == i
            else Fraction(rng.randint(1, 10), rng.choice((2, 3, 4, 5))) if rng.random() < 0.5
            else Fraction(0)
            for i in range(K)
        ]
        for k in range(K)
    ]
    streams = []
    for user in range(1, K + 1):
        for _ in range(rng.randint(0, 2)):
            vector = [0] * n
            while not any(Fraction(str(c)) for c in vector):
                vector = [rational(rng, -9, 9) for _ in range(n)]
            power = Fraction(-rng.randint(0, 12), rng.choice(DENOMINATORS))
            streams.append({"user": user, "vector": vector, "power_exp": str(power)})
    return topology(alpha), {"n": n, "streams": streams}


ERROR_SCHEMES = {
    "zero vector": {"n": 2, "streams": [{"user": 1, "vector": ["0", 0.0], "power_exp": "0"}]},
    "positive power": {"n": 1, "streams": [{"user": 1, "vector": ["1/3"], "power_exp": "1/10"}]},
    "user 0": {"n": 1, "streams": [{"user": 0, "vector": ["1"], "power_exp": "0"}]},
    "user K+1": {"n": 1, "streams": [{"user": 3, "vector": ["2.5"], "power_exp": "-1"}]},
}


def certify(digest: Digest, label: str, topo: Path, scheme: Path) -> None:
    for command in ("eval", "sc"):
        digest.run(f"{label} {command}", [command, "-t", topo, "-s", scheme])
    for powers in ORACLE_POWERS:
        digest.run(f"{label} oracle {powers}", ["oracle", "-t", topo, "-s", scheme, "-P", powers])


def corpus(digest: Digest, work: Path) -> None:
    base = base_channel()
    for tag, alpha in (("base", base), ("a", relabelled(base, "a")), ("b", relabelled(base, "b"))):
        topo = write(work / f"{tag}.json", topology(alpha))
        digest.run(f"{tag} tin", ["tin", "-t", topo])
        digest.run(f"{tag} tim", ["tim", "-t", topo])
        out = work / f"{tag}-frontier"
        code, text = digest.run(f"{tag} decompose", ["decompose", "-t", topo, "--emit-schemes", out])
        if code != 0:
            raise SystemExit(f"corpus_digest: decompose exited {code}: {text.strip()}")
        for path in sorted(out.iterdir()):
            digest.add(f"{tag} {path.name}", path.read_text())
        for entry in json.loads(text)["frontier"]:
            certify(digest, f"{tag} {entry['scheme_file']}", topo, out / entry["scheme_file"])
    rng = random.Random("corpus:schemes")
    for index in range(RANDOM_SCHEMES):
        topo_doc, scheme_doc = random_case(rng)
        topo = write(work / "random-topology.json", topo_doc)
        certify(digest, f"random {index}", topo, write(work / "random-scheme.json", scheme_doc))
    alpha = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 3), Fraction(2)]]
    topo = write(work / "error-topology.json", topology(alpha))
    for name, doc in ERROR_SCHEMES.items():
        certify(digest, f"error {name}", topo, write(work / "error-scheme.json", doc))


def main() -> int:
    digest = Digest()
    with tempfile.TemporaryDirectory() as work:
        corpus(digest, Path(work))
    print(json.dumps({"documents": digest.documents, "sha256": digest.sha.hexdigest()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
