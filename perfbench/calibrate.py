#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, the figure its bounds are
set from.

Run from the repository root:

    python3 perfbench/calibrate.py --runs 10 [--workload NAME ...] [--first-seed 100]
    python3 perfbench/calibrate.py --counts [--workload NAME ...]

The first form runs ``BENCHMARK.json``'s command once per seed and
workload (one run at a time) and reports, for each end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median next to the metric's bound.
The second runs each workload traced twice on one seed and reports any
count in ``spans.EXACT_COUNTS`` that differs between the two runs,
which is a benchmark defect, not noise.  Results go to
``perfbench/calibration.json`` (the spreads the bounds in
``BENCHMARK.json`` were set from) and ``perfbench/counts.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
import spans  # noqa: E402  (needs the checkout's timtin on the path)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(argv)} reported failures:\n{done.stderr}")
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--counts", action="store_true", help="check traced counts repeat")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = Path(__file__).with_name("counts.json" if args.counts else "calibration.json")
    report = json.loads(out.read_text()) if out.exists() else {}
    ok = True
    for name in names:
        last = Path(".perfbench_out") / f"{name}-seed{args.first_seed}-trace{int(args.counts)}.json"
        if args.counts:
            first, second = (run_once(spec, name, args.first_seed, 1)["metrics"] for _ in range(2))
            drift = [c for c in spans.EXACT_COUNTS if first[c]["value"] != second[c]["value"]]
            counts = {c: first[c]["value"] for c in spans.EXACT_COUNTS}
            report[name] = {"seed": args.first_seed, "drift": drift, "counts": counts,
                            "context": json.loads(last.read_text())["context"]}
            ok &= not drift
            print(f"{name}: counts {'repeat exactly' if not drift else f'DRIFT in {drift}'}")
            continue
        results = [run_once(spec, name, seed, 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        report[name] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                        "run_seconds": spec["run_seconds"],
                        "context": json.loads(last.read_text())["context"]}
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in results])
            stats["bound"] = metric["bound"]
            report[name][metric["name"]] = stats
            steady = metric["name"] == "setup_s" or stats["spread"] < metric["bound"] / 3
            ok &= steady
            print(f"{name:12} {metric['name']:17} median {stats['median']:10.4f} {metric['unit']:4} "
                  f"spread {stats['spread']:6.3f}  bound {metric['bound']:.2f}"
                  f"{'' if steady else '  <-- not below a third of its bound'}", flush=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
