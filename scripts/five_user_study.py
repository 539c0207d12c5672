#!/usr/bin/env python3
"""End-to-end study of the reference 5-user two-level network.

Solves both hand-picked decompositions, sweeps all 2^11 link assignments,
prints the verified Pareto frontier, and optionally writes the report plus
per-point scheme files.

Usage:
    python scripts/five_user_study.py [--out DIR]
"""

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

from timtin import decomp
from timtin.evaluator import slope_estimate
from timtin.fixtures import BASELINE_TIM_LINKS, IMPROVED_TIM_LINKS, five_user_network
from timtin.model import emit_scheme, emit_topology, format_rational


def show(label, result):
    fr = lambda xs: "(" + ", ".join(format_rational(x) for x in xs) + ")"
    print(f"{label}:")
    print(f"  power-level fractions {fr(result.tin_fractions)}")
    print(f"  vector-space fractions {fr(result.tim_fractions)} via {result.tim_method}")
    print(f"  products {fr(result.products)}  verified {fr(result.verified)}  verdict {result.verdict}")
    print(f"  power exponents {fr(result.power_exponents)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None, help="directory for report + schemes")
    args = parser.parse_args()

    network = five_user_network()
    print("reference network strength exponents:")
    for row in network.alpha:
        print("  [" + ", ".join(f"{format_rational(a):>4}" for a in row) + "]")
    print()

    base = decomp.evaluate_map(network, decomp.map_mask(network, BASELINE_TIM_LINKS))
    show("strong links avoided, weak links absorbed (baseline)", base)
    slopes = slope_estimate(base.scheme, network, 1e6, 1e10)
    print(f"  finite-power slope check: {[round(s, 3) for s in slopes]}")
    print()

    moved = decomp.evaluate_map(network, decomp.map_mask(network, IMPROVED_TIM_LINKS))
    show("one medium link moved to the vector-space side", moved)
    print()

    start = time.perf_counter()
    frontier = decomp.search(network).frontier
    elapsed = time.perf_counter() - start
    print(f"exhaustive search over 2^11 assignments took {elapsed:.2f} s")
    print(f"verified Pareto frontier: {len(frontier)} points")
    best = max(frontier, key=lambda r: min(r.verified))
    print(f"best symmetric value: {format_rational(min(best.verified))} "
          f"with TIM links {sorted((k + 1, i + 1) for k, i in best.map.tim_links)}")
    mixed = decomp.time_share([base.verified, moved.verified], [Fraction(1, 2), Fraction(1, 2)])
    print(f"half-and-half time share of the two shown maps: "
          f"({', '.join(format_rational(x) for x in mixed)})")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "topology.json").write_text(emit_topology(network))
        report = {
            "frontier": [
                {
                    "tim_links": sorted([k + 1, i + 1] for k, i in r.map.tim_links),
                    "products": [format_rational(x) for x in r.products],
                    "verified": [format_rational(x) for x in r.verified],
                }
                for r in frontier
            ],
            "elapsed_seconds": elapsed,
        }
        (args.out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        for idx, r in enumerate(frontier):
            (args.out / f"scheme_{idx:03d}.json").write_text(emit_scheme(r.scheme))
        print(f"wrote report and {len(frontier)} schemes to {args.out}")


if __name__ == "__main__":
    main()
