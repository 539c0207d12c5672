"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``traced`` rebinds the
module attributes that timtin looks up at call time (``decomp.split``,
``tin.tin_feasible``, ...) to wrappers that time each call, and restores
the original bindings on exit.  A span is a list
``[id, parent, name, start, end, pass_id, note]``; all spans of one
workload pass share ``pass_id``.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from timtin import cli, decomp, evaluator, exactlp, tim, tin

ID, PARENT, NAME, START, END, PASS, NOTE = range(7)

# Power at or below which every receiver of the certify channel stays on
# the double-precision log-det (strengths <= 2, DOUBLE_SPREAD_LIMIT 1e13).
LOW_P_MAX = 1e6


def _coloring_key(args, kwargs, result):
    members, adj = args
    inside = set(members)
    return (tuple(members), tuple(tuple(sorted(adj[v] & inside)) for v in members))


# (module, attribute, span name, note taken from (args, kwargs, result))
BINDINGS = (
    (cli, "parse_topology", "model.parse_topology", None),
    (decomp, "search", "decomp.search", None),
    (decomp, "candidate_masks", "decomp.candidate_masks", None),
    (decomp, "evaluate_map", "decomp.evaluate_map", lambda a, k, r: r.verdict),
    (decomp, "split", "decomp.split", None),
    (decomp, "synthesize_scheme", "decomp.synthesize_scheme", None),
    (decomp, "tim_solve", "tim.tim_solve", lambda a, k, r: r.method),
    (tin, "tin_symmetric", "tin.tin_symmetric", None),
    (tin, "tin_feasible", "tin.tin_feasible", lambda a, k, r: r.feasible),
    (tin, "single_level_gdof", "tin.single_level_gdof", None),
    (tim, "fractional_coloring", "tim.fractional_coloring", _coloring_key),
    (exactlp, "minimize", "exactlp.minimize", lambda a, k, r: len(a[0])),
    (evaluator, "gdof_report", "evaluator.gdof_report", None),
    (evaluator, "user_gdof", "evaluator.user_gdof", None),
    (evaluator, "logdet_exponent", "evaluator.logdet_exponent", None),
    (evaluator, "finite_p_rate", "evaluator.finite_p_rate",
     lambda a, k, r: "low_p" if a[2] <= LOW_P_MAX else "high_p"),
    (evaluator, "_logdet_mp", "evaluator.logdet_mp", None),
)


class Recorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = 0

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced_call(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, self.pass_id, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced_call


@contextmanager
def traced(recorder: Recorder):
    """Rebind every module attribute in BINDINGS to a span-recording
    wrapper, and restore the original objects on exit, even after an error."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in BINDINGS]
    try:
        for (module, attr, name, note), (_, _, fn) in zip(BINDINGS, originals):
            setattr(module, attr, recorder.wrap(name, fn, note))
        yield recorder
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond
    it; 100 (the maximum) when there are fewer than twenty samples."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 100.0)


def pass_profile(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, sorted durations
    and the notes, for the spans of one pass."""
    profile: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = profile.setdefault(
            span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "notes": []}
        )
        entry["calls"] += 1
        entry["s"] += span[END] - span[START]
        entry["self_s"] += self_s
        entry["durations"].append(span[END] - span[START])
        entry["notes"].append(span[NOTE])
    for entry in profile.values():
        entry["durations"].sort()
    return profile


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "notes": []}


def layer_metrics(profile: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and for each ``ms_tail``
    metric the percentile it reports and its sample count."""
    def get(name):
        return profile.get(name, _EMPTY)

    metrics: dict[str, float] = {}
    tails: dict[str, str] = {}

    def latency(key, durations):
        metrics[f"{key}.ms_p50"] = 1e3 * percentile(durations, 50) if durations else 0.0
        pct = tail_percentile(len(durations))
        metrics[f"{key}.ms_tail"] = 1e3 * percentile(durations, pct) if durations else 0.0
        tails[f"{key}.ms_tail"] = f"p{pct:g} of {len(durations)} calls"

    ev = get("decomp.evaluate_map")
    metrics["decomp.evaluate_map.calls"] = ev["calls"]
    latency("decomp.evaluate_map", ev["durations"])
    metrics["decomp.search.self_s"] = get("decomp.search")["self_s"]
    metrics["decomp.candidate_masks.calls"] = get("decomp.candidate_masks")["calls"]
    metrics["decomp.candidate_masks.s"] = get("decomp.candidate_masks")["s"]
    metrics["decomp.split.self_s"] = get("decomp.split")["self_s"]
    metrics["decomp.synthesize_scheme.self_s"] = get("decomp.synthesize_scheme")["self_s"]
    metrics["decomp.verdict_pass_share"] = (
        sum(1 for v in ev["notes"] if v) / ev["calls"] if ev["calls"] else 0.0
    )

    sym, feas = get("tin.tin_symmetric"), get("tin.tin_feasible")
    metrics["tin.tin_symmetric.calls"] = sym["calls"]
    metrics["tin.tin_symmetric.self_s"] = sym["self_s"]
    latency("tin.tin_symmetric", sym["durations"])
    metrics["tin.tin_feasible.calls"] = feas["calls"]
    metrics["tin.tin_feasible.self_s"] = feas["self_s"]
    metrics["tin.feasible_per_solve"] = feas["calls"] / sym["calls"] if sym["calls"] else 0.0
    metrics["tin.infeasible_share"] = (
        sum(1 for v in feas["notes"] if not v) / feas["calls"] if feas["calls"] else 0.0
    )
    metrics["tin.single_level_gdof.self_s"] = get("tin.single_level_gdof")["self_s"]

    solve, coloring = get("tim.tim_solve"), get("tim.fractional_coloring")
    metrics["tim.tim_solve.calls"] = solve["calls"]
    metrics["tim.tim_solve.self_s"] = solve["self_s"]
    latency("tim.tim_solve", solve["durations"])
    for method in ("full", "half_rate", "coloring"):
        metrics[f"tim.method.{method}"] = solve["notes"].count(method)
    distinct = len(set(coloring["notes"]))
    metrics["tim.fractional_coloring.calls"] = coloring["calls"]
    metrics["tim.fractional_coloring.distinct"] = distinct
    metrics["tim.fractional_coloring.self_s"] = coloring["self_s"]
    metrics["tim.coloring_reuse_share"] = (
        1 - distinct / coloring["calls"] if coloring["calls"] else 0.0
    )

    lp = get("exactlp.minimize")
    metrics["exactlp.minimize.calls"] = lp["calls"]
    metrics["exactlp.minimize.self_s"] = lp["self_s"]
    metrics["exactlp.minimize.columns_max"] = max(lp["notes"], default=0)

    for name in ("evaluator.user_gdof", "evaluator.logdet_exponent"):
        metrics[f"{name}.calls"] = get(name)["calls"]
        metrics[f"{name}.self_s"] = get(name)["self_s"]
    metrics["evaluator.gdof_report.self_s"] = get("evaluator.gdof_report")["self_s"]
    rate = get("evaluator.finite_p_rate")
    for band in ("low_p", "high_p"):
        durations = sorted(d for d, n in zip(rate["durations"], rate["notes"]) if n == band)
        metrics[f"evaluator.finite_p_rate.{band}.ms_p50"] = (
            1e3 * percentile(durations, 50) if durations else 0.0
        )
    metrics["evaluator.logdet_mp.calls"] = get("evaluator.logdet_mp")["calls"]

    metrics["cli.main.self_s"] = get("cli.main")["self_s"]
    metrics["model.parse_topology.s"] = get("model.parse_topology")["s"]

    # Layer shares of the time spent evaluating maps (inclusive spans).
    evaluated = ev["s"]
    groups = {
        "tin": ("tin.tin_symmetric",),
        "verify": ("evaluator.user_gdof",),
        "tim": ("tim.tim_solve",),
        "build": ("decomp.split", "decomp.synthesize_scheme", "tin.single_level_gdof"),
    }
    for group, names in groups.items():
        metrics[f"share.{group}"] = (
            sum(get(n)["s"] for n in names) / evaluated if evaluated else 0.0
        )
    return metrics, tails


# Counts that depend only on the inputs: they must repeat exactly between
# passes and runs of one seed, so any drift is a benchmark defect.
EXACT_COUNTS = (
    "decomp.evaluate_map.calls",
    "decomp.candidate_masks.calls",
    "tin.tin_symmetric.calls",
    "tin.tin_feasible.calls",
    "tin.feasible_per_solve",
    "tim.tim_solve.calls",
    "tim.method.full",
    "tim.method.half_rate",
    "tim.method.coloring",
    "tim.fractional_coloring.calls",
    "tim.fractional_coloring.distinct",
    "exactlp.minimize.calls",
    "evaluator.user_gdof.calls",
    "evaluator.logdet_exponent.calls",
    "evaluator.logdet_mp.calls",
)
