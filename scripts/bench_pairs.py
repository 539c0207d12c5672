#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs.

Runs ``perfbench/run.py --trace 0`` once in a parent checkout and once in
this tree per pair, pair i at seed i, with the side that runs first
alternating from pair to pair so that the host's drift falls on both
sides alike.  Prints one JSON line: for each end-to-end metric, each
side's median, q1 and q3 over the pairs, every pair's values and the
number of pairs in which the change did better (the direction is read
from this tree's BENCHMARK.json); and each side's failed and attempted
passes.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT_DIR [--workload W] [--pairs N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its final JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: run in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    """Median, q1 and q3 (inclusive method, as perfbench reports them)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Summary of result lines, one {"parent": line, "change": line} per
    pair.  ``better`` maps each end-to-end metric to "lower" or "higher";
    a metric missing from either line of a pair leaves that pair out."""
    metrics = {}
    for name, direction in better.items():
        kept = [p for p in pairs if all(name in p[side]["metrics"] for side in SIDES)]
        if not kept:
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in kept] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins,
            "pairs": len(kept),
            "values": values,
        }
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "incorrect_runs": {side: sum(not p[side]["correct"] for p in pairs) for side in SIDES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--workload", default="fixture5")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for seed in range(args.pairs):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        pairs.append(
            {side: run_once(trees[side], args.workload, seed, args.seconds) for side in order}
        )
    summary = summarize(pairs, better)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, **summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
