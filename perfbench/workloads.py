"""Seeded workload inputs, the passes that run them through the timtin
CLI, and the checks every pass output must satisfy.

Every seeded workload is a fixed base channel (drawn once from a random
generator with a recorded design seed) whose users the run's seed
relabels.  Relabeling changes every input file and output document but
not the amount of work, so run-to-run spread measures the program and
not the luck of the draw; independent random channels of one size
differ by 2x in search time (the share of maps that reach the exact TIN
fallback ranges from 3% to 45%).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXHAUSTIVE_CAP = 16  # the CLI's default --exhaustive-cap
DENOMINATORS = (97, 101, 103)

# The paper's 5-user two-level reference network (receiver rows,
# transmitter columns): direct 1, strong cross links 1, weak ones 1/2.
FIXTURE5 = (
    ("1", "1/2", "0", "1", "0"),
    ("1", "1", "1/2", "0", "1/2"),
    ("0", "1", "1", "1/2", "1"),
    ("1", "0", "0", "1", "1/2"),
    ("0", "0", "0", "1", "1"),
)
# sha256 of the fixture5 `decompose --emit-schemes` stdout document.
FIXTURE5_SHA256 = "1f6856ca6b6eb32b512e99ee61711f484412b233071141433f29e3aa1b254adf"


def run_cli(main, argv) -> tuple[int, str]:
    """Run the timtin CLI in process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def dominates(a, b) -> bool:
    return a != b and all(x >= y for x, y in zip(a, b))


def random_channel(rng: random.Random, K: int, L: int, direct, cross):
    """K-user strength matrix with L cross links at random positions."""
    alpha = [[Fraction(0)] * K for _ in range(K)]
    for k in range(K):
        alpha[k][k] = direct(rng)
    cells = [(k, i) for k in range(K) for i in range(K) if k != i]
    for k, i in rng.sample(cells, L):
        alpha[k][i] = cross(rng)
    return alpha


def relabel(alpha, seed: int, tag: str):
    """The same channel with its users permuted by the seed."""
    perm = list(range(len(alpha)))
    random.Random(f"{tag}:relabel:{seed}").shuffle(perm)
    out = [[Fraction(0)] * len(alpha) for _ in alpha]
    for k, row in enumerate(alpha):
        for i, a in enumerate(row):
            out[perm[k]][perm[i]] = a
    return out


def _generic_direct(rng) -> Fraction:
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(q * 3 // 4, q), q)


def _generic_cross(rng) -> Fraction:
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(q // 4, q - 1), q)


def exhaustive6_design():
    rng = random.Random("exhaustive6:5")
    return random_channel(rng, 6, 9, _generic_direct, _generic_cross)


def threshold10_design():
    levels = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
    rng = random.Random("threshold10:5")
    return random_channel(rng, 10, 30, lambda r: Fraction(1), lambda r: r.choice(levels))


def certify_design():
    rng = random.Random("certify:0")
    return random_channel(
        rng, 6, 7,
        lambda r: r.choice((Fraction(1), Fraction(3, 2), Fraction(2))),
        lambda r: r.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2))),
    )


def write_topology(alpha, path: Path) -> None:
    rows = [[str(a) for a in row] for row in alpha]
    path.write_text(json.dumps({"K": len(alpha), "alpha": rows}))


def cross_links(alpha) -> list[tuple[int, int]]:
    K = len(alpha)
    return [(k, i) for k in range(K) for i in range(K) if k != i and alpha[k][i] > 0]


def candidate_count(alpha) -> int:
    """Maps `decompose` must evaluate: all 2^L up to the cap, otherwise the
    strength-threshold maps, their single-link flips and the empty map."""
    links = cross_links(alpha)
    L = len(links)
    if L <= EXHAUSTIVE_CAP:
        return 2**L
    masks = {0}
    for tau in {alpha[k][i] for k, i in links}:
        base = sum(1 << b for b, (k, i) in enumerate(links) if alpha[k][i] >= tau)
        masks.update(base ^ (1 << b) for b in range(L))
        masks.add(base)
    return len(masks)


@dataclass
class Inputs:
    dir: Path
    topology: Path
    alpha: list
    schemes: list[Path] = field(default_factory=list)
    verified: list[list[str]] = field(default_factory=list)


class Search:
    """`timtin decompose` on one topology; an item is a candidate map."""

    item = "map"

    def __init__(self, name: str, size: str, design):
        self.name, self.size, self.design = name, size, design

    def channel(self, seed: int):
        return relabel(self.design(), seed, self.name)

    def setup(self, seed: int, workdir: Path, main) -> Inputs:
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        alpha = self.channel(seed)
        topology = workdir / "topology.json"
        write_topology(alpha, topology)
        return Inputs(workdir, topology, alpha)

    def run_pass(self, inputs: Inputs, main) -> list[tuple[list, int, str]]:
        argv = ["decompose", "-t", inputs.topology, "--emit-schemes", inputs.dir / "frontier"]
        return [(argv, *run_cli(main, argv))]

    def items(self, outputs) -> int:
        return json.loads(outputs[0][2])["evaluated"]

    def check(self, inputs: Inputs, outputs, seed: int, main) -> list[str]:
        (_, code, text), = outputs
        if code != 0:
            return [f"decompose exited {code}: {text.strip()}"]
        doc = json.loads(text)
        problems = []
        frontier = doc["frontier"]
        if not frontier:
            problems.append("empty frontier")
        tuples = []
        for entry in frontier:
            verified, products = fractions(entry["verified"]), fractions(entry["products"])
            if entry["verdict"] is not True or any(v < p for v, p in zip(verified, products)):
                problems.append(f"frontier entry {entry['tim_links']} falls short of its products")
            tuples.append(tuple(verified))
        if any(dominates(a, b) for a in tuples for b in tuples):
            problems.append("a frontier tuple dominates another")
        expected = candidate_count(inputs.alpha)
        if doc["evaluated"] != expected:
            problems.append(f"evaluated {doc['evaluated']} maps, expected {expected}")
        for entry in random.Random(seed).sample(frontier, min(3, len(frontier))):
            scheme = inputs.dir / "frontier" / entry["scheme_file"]
            code, out = run_cli(main, ["eval", "-t", inputs.topology, "-s", scheme])
            if code != 0 or json.loads(out)["gdof"] != entry["verified"]:
                problems.append(f"re-evaluating {entry['scheme_file']} does not reproduce verified")
        return problems


class Fixture5(Search):
    """The reference network; the seed is ignored."""

    def channel(self, seed: int):
        return [fractions(row) for row in FIXTURE5]

    def check(self, inputs, outputs, seed, main) -> list[str]:
        problems = super().check(inputs, outputs, seed, main)
        text = outputs[0][2]
        if hashlib.sha256(text.encode()).hexdigest() != FIXTURE5_SHA256:
            problems.append("stdout differs from the recorded fixture5 document")
        if not problems:
            tuples = [fractions(e["verified"]) for e in json.loads(text)["frontier"]]
            if not any(all(v >= Fraction(3, 10) for v in t) for t in tuples):
                problems.append("no frontier point reaches the 3/10 baseline")
            if max(min(t) for t in tuples) != Fraction(1, 3):
                problems.append("the best symmetric frontier point is not 1/3")
        return problems


class Certify(Search):
    """`timtin sc` and `timtin oracle` on the first verified frontier schemes
    of a seeded channel; an item is a certified scheme.  The schemes come
    from `decompose --emit-schemes` during set-up."""

    item = "scheme"
    # All receivers stay on the double-precision log-det at the first pair;
    # at 1e12 receivers with strength above 13/12 cross DOUBLE_SPREAD_LIMIT.
    POWER_PAIRS = ("1e3,1e6", "1e6,1e12")

    def __init__(self, name: str, size: str, design, schemes: int):
        super().__init__(name, size, design)
        self.schemes = schemes  # certified per pass, so every seed does equal work

    def setup(self, seed: int, workdir: Path, main) -> Inputs:
        inputs = super().setup(seed, workdir, main)
        schemes_dir = workdir / "frontier"
        code, text = run_cli(main, ["decompose", "-t", inputs.topology, "--emit-schemes", schemes_dir])
        if code != 0:
            raise RuntimeError(f"decompose exited {code} in certify set-up: {text.strip()}")
        for entry in json.loads(text)["frontier"][: self.schemes]:
            inputs.schemes.append(schemes_dir / entry["scheme_file"])
            inputs.verified.append(entry["verified"])
        return inputs

    def run_pass(self, inputs: Inputs, main):
        outputs = []
        for scheme in inputs.schemes:
            argv = ["sc", "-t", inputs.topology, "-s", scheme]
            outputs.append((argv, *run_cli(main, argv)))
            for powers in self.POWER_PAIRS:
                argv = ["oracle", "-t", inputs.topology, "-s", scheme, "-P", powers, "--seed", 0]
                outputs.append((argv, *run_cli(main, argv)))
        return outputs

    def items(self, outputs) -> int:
        return sum(1 for argv, _, _ in outputs if argv[0] == "sc")

    def check(self, inputs: Inputs, outputs, seed: int, main) -> list[str]:
        problems = []
        K = len(inputs.alpha)
        if self.items(outputs) != self.schemes:
            problems.append(f"certified {self.items(outputs)} schemes, expected {self.schemes}")
        gdofs = iter(inputs.verified)
        for argv, code, text in outputs:
            if code != 0:
                problems.append(f"{argv[0]} exited {code}: {text.strip()}")
                continue
            doc = json.loads(text)
            if argv[0] == "sc":
                gdof = fractions(doc["gdof"])
                if doc["gdof"] != next(gdofs):
                    problems.append(f"sc on {argv[4]} disagrees with the verified tuple")
                for row, g in zip(doc["per_stream"], gdof):
                    if sum(fractions(row), Fraction(0)) != g:
                        problems.append(f"per-stream rows of {argv[4]} do not sum to the GDoF")
            else:
                values = [*doc["rates"], doc["slopes"]]
                if len(doc["rates"]) != 2 or any(
                    len(v) != K or not all(math.isfinite(x) for x in v) for v in values
                ):
                    problems.append(f"oracle on {argv[4]} returned malformed rates")
        return problems

    @staticmethod
    def slope_mismatch(outputs) -> int:
        """Receivers whose finite-power slope is more than 0.05 off the
        exact GDoF, over both power pairs."""
        count = 0
        gdof = None
        for argv, code, text in outputs:
            doc = json.loads(text)
            if argv[0] == "sc":
                gdof = [float(Fraction(g)) for g in doc["gdof"]]
            else:
                count += sum(abs(s - g) > 0.05 for s, g in zip(doc["slopes"], gdof))
        return count


WORKLOADS = {
    w.name: w
    for w in (
        Fixture5("fixture5", "K=5, L=11, 2048 maps (exhaustive)", None),
        Search("exhaustive6", "K=6, L=9, 512 maps (exhaustive)", exhaustive6_design),
        Search("threshold10", "K=10, L=30, 94 maps (threshold mode)", threshold10_design),
        Certify("certify", "K=6, L=7, 24 frontier schemes", certify_design, schemes=24),
    )
}
