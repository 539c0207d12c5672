#!/usr/bin/env python3
"""timtin benchmark: seconds to a verified result, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload fixture5 --seed 0 --seconds 20 --trace 0

One process, one thread.  Set-up imports timtin and writes the
workload's input files from the seed (timed several times over the
run, see ``SETUP_SAMPLES``); each pass then runs the workload
through ``timtin.cli.main`` in process, with stdout captured, and checks
every output document.  Passes repeat until ``--seconds`` is used up
(at least three).

``run_s`` is the mean wall time of a pass over the whole run (a mean
weighs the host's slow and fast spells by their share of the run, where
the median of a few passes jumps between their levels) and
``throughput_per_s`` the items of a pass over it.  On a shared host,
such as a 2-vCPU cloud VM, speed drifts by 20-40% over seconds to
minutes, so these wall figures differ by that much between runs of the
same code.  The gated ``run_ref_s`` and ``throughput_ref_per_s`` are
the same figures at a fixed nominal host speed: during every untraced
pass a SIGALRM handler times a fixed piece of pure-Python work
independent of timtin (``reference_work``) every ``REF_PERIOD_S``; its
time is taken out of the pass time, and the run's pass time is scaled
by ``REF_NOMINAL_S / mean sample time``.  A change to timtin moves them
as it moves the wall time; the host's drift mostly cancels.

With ``--trace 0`` the final stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports
the per-layer metrics from the traced ones.
Results, machine context and (traced runs) every span are written under
``.perfbench_out/``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

SETUP_SAMPLES = 5  # set-up repeats, spread over the run like the passes
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_RUN_SECONDS = 150  # stay well inside the 180 s a run may take
OUT_DIR = ".perfbench_out"
REF_PERIOD_S = 0.2  # one host-speed sample per this much wall time of a pass
REF_NOMINAL_S = 0.004  # reference_work's time on a quiet 2.1 GHz Xeon vCPU
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import timtin, mpmath; "
    "print(time.perf_counter() - t)"
)


def load_program(root: Path) -> Path:
    """Put the checkout's own timtin sources first on the import path."""
    src = root / "src"
    if not (src / "timtin" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no timtin sources at {src / 'timtin'}; run from the repository root")
    sys.path.insert(0, str(src))
    import timtin

    if Path(timtin.__file__).resolve().parent != (src / "timtin").resolve():
        raise SystemExit(f"perfbench: imported timtin from {timtin.__file__}, not {src}")
    return src


def import_seconds(root: Path, src: Path) -> float:
    """Time `import timtin, mpmath` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git (the benchmark may
    run in a plain checkout with no repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_context(root: Path, src: Path) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((src / "timtin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": git_sha(root),
        "src_sha256": digest.hexdigest(),
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }


def summary(values) -> dict:
    """Median, quartiles, sample count and samples of a list of measurements."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def reference_work() -> None:
    """A fixed piece of pure-Python work that does not use timtin, about
    4 ms long: Fraction arithmetic and dict stores, like the program's."""
    total, table = 0, {}
    for i in range(3000):
        value = Fraction(i % 97, 7 + i % 5)
        table[i % 311] = value
        total += value.numerator


class HostSpeed:
    """Samples of the host's speed taken while timed passes run: inside
    ``sampling()``, ``reference_work`` is timed every ``REF_PERIOD_S``
    seconds from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """Host speed relative to nominal (above 1 is faster) over the
        samples so far; passes shorter than ``REF_PERIOD_S`` leave none,
        and then one is taken now."""
        if not self.samples:
            self._sample(None, None)
        return REF_NOMINAL_S / statistics.fmean(self.samples)


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("share."):
        return "ratio"
    if last.startswith("ms_"):
        return "ms"
    if last in ("s", "self_s"):
        return "s"
    if "share" in last or last in ("feasible_per_solve", "overhead_ratio"):
        return "ratio"
    return "count"


def run_passes(workload, set_up, seed: int, seconds: float, trace: bool, host: HostSpeed):
    """Repeat the workload pass until the time is used up; alternate
    untraced and traced passes when tracing.  Untraced runs repeat the
    timed set-up every ``seconds / SETUP_SAMPLES`` so that its median, like
    the passes', spans the whole run.  Untraced passes run under
    ``host.sampling()`` and their seconds leave out the samples' time.
    Returns the untraced and traced pass seconds, per-pass traced
    metrics, the last outputs, the attempted and failed pass counts and
    the recorder."""
    from timtin import cli

    import spans

    recorder = spans.Recorder() if trace else None
    plain: list[float] = []
    traced: list[float] = []
    layer_runs: list[tuple[dict, dict]] = []
    outputs = None
    attempted = failed = 0
    inputs = set_up()
    start = last_setup = time.perf_counter()
    deadline = start + seconds
    while True:
        if not trace and time.perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
            inputs = set_up()
            last_setup = time.perf_counter()
        use_trace = trace and len(traced) < len(plain)
        attempted += 1
        gc.collect()  # the previous pass's check leaves garbage; keep it out of the timing
        t0 = time.perf_counter()
        try:
            if use_trace:
                recorder.pass_id += 1
                first = len(recorder.spans)
                with spans.traced(recorder):
                    outputs = workload.run_pass(inputs, recorder.wrap("cli.main", cli.main))
                elapsed = time.perf_counter() - t0
            else:
                first_sample = len(host.samples)
                with host.sampling():
                    outputs = workload.run_pass(inputs, cli.main)
                elapsed = time.perf_counter() - t0 - sum(host.samples[first_sample:])
            problems = workload.check(inputs, outputs, seed, cli.main)
        except Exception:  # a pass that raises is a failed pass, not a crash
            elapsed = None
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"pass {attempted} failed:", *problems, sep="\n  ", file=sys.stderr)
        if elapsed is not None and use_trace:
            traced.append(elapsed)
            layer_runs.append(spans.layer_metrics(spans.pass_profile(recorder.spans[first:])))
        elif elapsed is not None:
            plain.append(elapsed)
        now = time.perf_counter()
        if now - start > MAX_RUN_SECONDS or (failed == attempted >= MIN_PASSES):
            break
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        upcoming = traced if trace and len(traced) < len(plain) else plain
        if enough and now + statistics.median(upcoming) > deadline:
            break
    return plain, traced, layer_runs, outputs, attempted, failed, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A single thread: numpy's BLAS would otherwise start a worker thread
    # per core, and the import probe inherits this setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path.cwd()
    src = load_program(root)
    from timtin import cli

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = root / OUT_DIR
    workdir = out_dir / f"{workload.name}-seed{args.seed}"

    setup_times = []

    def set_up():
        imported = import_seconds(root, src)
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, workdir, cli.main)
        setup_times.append(imported + time.perf_counter() - t0)
        return inputs

    host = HostSpeed()
    plain, traced, layer_runs, outputs, attempted, failed, recorder = run_passes(
        workload, set_up, args.seed, args.seconds, bool(args.trace), host
    )
    correct = failed == 0 and bool(plain)
    context = machine_context(root, src)
    report = {"workload": workload.name, "size": workload.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "context": context}
    lines = [f"{workload.name} [{workload.size}] seed {args.seed}: "
             f"{attempted} passes, {failed} failed; context {json.dumps(context)}"]

    if not args.trace:
        run_s = summary(plain) if plain else None
        if run_s:
            run_s["mean"] = statistics.fmean(plain)
        items = workload.items(outputs) if correct else 0
        speed = host.speed()
        run_ref_s = run_s["mean"] * speed if run_s else 0.0
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_ref_s": (run_ref_s, "s"),
            "throughput_ref_per_s": (items / run_ref_s if run_s else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wall_throughput = items / run_s["mean"] if run_s else 0.0
        report["setup_s"] = summary(setup_times)
        report["run_s"] = run_s
        report["throughput_per_s"] = wall_throughput
        report["host_speed"] = {"speed": speed, **summary(host.samples)}
        report["items_per_pass"] = f"{items} {workload.item}s"
        report["error_rate"] = failed / attempted
        lines.append(f"  setup_s              {metrics['setup_s'][0]:.4f} s   median of {len(setup_times)}")
        if run_s:
            lines.append(f"  run_s                {run_s['mean']:.4f} s   wall, mean of {run_s['n']} passes; "
                         f"median {run_s['median']:.4f}, q1 {run_s['q1']:.4f}, q3 {run_s['q3']:.4f}")
        lines.append(f"  throughput_per_s     {wall_throughput:.2f} 1/s wall ({items} {workload.item}s per pass)")
        lines.append(f"  host_speed           {speed:.4f} of nominal ({len(host.samples)} samples)")
        lines.append(f"  run_ref_s            {run_ref_s:.4f} s   at nominal host speed")
        lines.append(f"  throughput_ref_per_s {metrics['throughput_ref_per_s'][0]:.2f} 1/s at nominal host speed")
        lines.append(f"  peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB")
        lines.append(f"  error_rate           {failed / attempted:.4f} ({failed}/{attempted} passes failed)")
    else:
        metrics, drift = {}, []
        tails = layer_runs[0][1] if layer_runs else {}
        for name in (layer_runs[0][0] if layer_runs else ()):
            values = [m[name] for m, _ in layer_runs]
            if name in spans.EXACT_COUNTS and len(set(values)) > 1:
                drift.append(f"{name} drifted between passes: {values}")
            unit = unit_of(name)
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (middle(values), unit)
        if outputs is not None and correct:
            evaluated = sum(json.loads(t)["evaluated"] for a, _, t in outputs if a[0] == "decompose")
            frontier = sum(len(json.loads(t)["frontier"]) for a, _, t in outputs if a[0] == "decompose")
            metrics["decomp.frontier_share"] = (frontier / evaluated if evaluated else 0.0, "ratio")
            mismatch = workloads.Certify.slope_mismatch(outputs) if workload.item == "scheme" else 0
            metrics["evaluator.slope_mismatch"] = (mismatch, "count")
        if traced and plain:
            metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
        for problem in drift:
            print(f"benchmark defect: {problem}", file=sys.stderr)
        correct = correct and not drift and bool(traced)
        for name, (value, unit) in sorted(metrics.items()):
            note = f"  ({tails[name]} per pass)" if name in tails else ""
            lines.append(f"  {name:<42} {value:.6g} {unit}{note}")
        report["untraced_run_s"] = summary(plain) if plain else None
        report["traced_run_s"] = summary(traced) if traced else None
        report["tail_percentiles"] = tails
        spans_file = out_dir / f"{workload.name}-seed{args.seed}-spans.jsonl"
        with spans_file.open("w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
        report["spans_file"] = spans_file.name

    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
