#!/usr/bin/env python3
"""One seeded exhaustive decomposition search at a chosen scale.

Draws a K-user channel with L cross links, picked at random among the
K(K-1) possible ones: direct strengths n/101 with n in 80..103, cross
strengths n/101 with n in 20..100.  Searches every one of its 2^L maps
(``exhaustive_cap`` L, so L may not exceed decomp.MAX_EXHAUSTIVE_CAP) and
prints one JSON line: maps evaluated, search seconds, the process's peak
RSS in MB and the frontier size.  Peak RSS includes the interpreter, so
compare runs of the same K, L and seed.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/scale_probe.py K L [--seed SEED]    (default seed 0)
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time
from fractions import Fraction

from timtin import decomp
from timtin.model import ChannelMatrix


def probe_channel(K: int, L: int, seed: int) -> ChannelMatrix:
    """The seeded K-user channel with L cross links."""
    rng = random.Random(seed)
    pairs = [(k, i) for k in range(K) for i in range(K) if k != i]
    if not 0 <= L <= len(pairs):
        raise SystemExit(f"scale_probe: L must be in 0..{len(pairs)} for K={K}")
    alpha = [[Fraction(0)] * K for _ in range(K)]
    for k in range(K):
        alpha[k][k] = Fraction(rng.randint(80, 103), 101)
    for k, i in rng.sample(pairs, L):
        alpha[k][i] = Fraction(rng.randint(20, 100), 101)
    return ChannelMatrix(K, tuple(map(tuple, alpha)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("K", type=int)
    parser.add_argument("L", type=int)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    channel = probe_channel(args.K, args.L, args.seed)
    start = time.perf_counter()
    report = decomp.search(channel, decomp.SearchBudget(exhaustive_cap=args.L))
    seconds = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
    print(json.dumps({
        "K": args.K, "L": args.L, "seed": args.seed, "maps": report.evaluated,
        "seconds": round(seconds, 3), "peak_rss_mb": round(peak_kb / 1024, 1),
        "frontier": len(report.frontier),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
