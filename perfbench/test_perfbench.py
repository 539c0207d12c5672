"""Tests of the benchmark's own machinery: self-time arithmetic, binding
restoration and the output checks.  Run with
``PYTHONPATH=src python -m pytest perfbench``."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import spans
import workloads
from timtin import cli, decomp, evaluator, tin

# A 3-user channel small enough to decompose in milliseconds.
TINY = [
    [Fraction(1), Fraction(1, 2), Fraction(0)],
    [Fraction(0), Fraction(1), Fraction(1)],
    [Fraction(1, 2), Fraction(0), Fraction(1)],
]


def span(sid, parent, name, start, end):
    return [sid, parent, name, start, end, 1, None]


def test_self_time_of_nested_tree():
    tree = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "a.child", 2.0, 3.0),
        span(3, 0, "b", 5.0, 9.0),
        span(4, 3, "b.child", 5.0, 6.0),
        span(5, 3, "b.child", 7.0, 9.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    profile = spans.pass_profile(tree)
    assert profile["b.child"]["calls"] == 2
    assert profile["b.child"]["self_s"] == 3.0
    assert profile["root"]["s"] == 10.0


def test_overlapping_children_are_counted_once():
    tree = [span(0, -1, "root", 0.0, 10.0), span(1, 0, "x", 1.0, 5.0), span(2, 0, "y", 3.0, 12.0)]
    assert spans.self_times(tree)[0] == 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(2048) == 99.0
    assert spans.tail_percentile(512) == 95.0
    assert spans.tail_percentile(94) == 75.0
    assert spans.tail_percentile(15) == 100.0


def originals():
    return [getattr(module, attr) for module, attr, _, _ in spans.BINDINGS]


def test_bindings_are_restored_after_a_traced_pass(tmp_path):
    before = originals()
    recorder = spans.Recorder()
    workload = workloads.Search("tiny", "K=3", lambda: TINY)
    inputs = workload.setup(0, tmp_path, cli.main)
    feasible = tin.tin_feasible
    with spans.traced(recorder):
        assert tin.tin_feasible is not feasible
        workload.run_pass(inputs, cli.main)
    assert tin.tin_feasible is feasible
    assert originals() == before
    names = {s[spans.NAME] for s in recorder.spans}
    assert {"decomp.search", "tin.tin_feasible", "evaluator.logdet_exponent"} <= names
    metrics, _ = spans.layer_metrics(spans.pass_profile(recorder.spans))
    assert metrics["decomp.evaluate_map.calls"] == 2 ** len(workloads.cross_links(TINY))


def test_bindings_are_restored_when_the_pass_raises():
    before = originals()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Recorder()):
            raise RuntimeError("pass failed")
    assert originals() == before
    assert decomp.split.__module__ == "timtin.decomp"
    assert evaluator.user_gdof.__module__ == "timtin.evaluator"


def test_search_check_accepts_good_and_rejects_corrupted_output(tmp_path):
    workload = workloads.Search("tiny", "K=3", lambda: TINY)
    inputs = workload.setup(3, tmp_path, cli.main)
    outputs = workload.run_pass(inputs, cli.main)
    assert workload.check(inputs, outputs, 3, cli.main) == []

    (argv, code, text), = outputs
    doc = json.loads(text)
    doc["frontier"][0]["verified"] = ["0"] * len(TINY)
    bad = [(argv, code, json.dumps(doc))]
    assert workload.check(inputs, bad, 3, cli.main)

    doc = json.loads(text)
    doc["evaluated"] += 1
    assert workload.check(inputs, [(argv, code, json.dumps(doc))], 3, cli.main)


def test_certify_check_rejects_per_stream_rows_that_do_not_sum(tmp_path):
    workload = workloads.Certify("tiny", "K=3", lambda: TINY, schemes=1)
    inputs = workload.setup(0, tmp_path, cli.main)
    outputs = workload.run_pass(inputs, cli.main)
    assert workload.check(inputs, outputs, 0, cli.main) == []

    argv, code, text = outputs[0]
    doc = json.loads(text)
    doc["per_stream"][0] = doc["per_stream"][0] + ["1/7"]
    assert workload.check(inputs, [(argv, code, json.dumps(doc)), *outputs[1:]], 0, cli.main)


def test_seeded_inputs_are_deterministic_relabelings():
    workload = workloads.WORKLOADS["exhaustive6"]
    assert workload.channel(7) == workload.channel(7)
    a, b = workload.channel(1), workload.channel(2)
    assert sorted(x for row in a for x in row) == sorted(x for row in b for x in row)
    assert workloads.candidate_count(a) == workloads.candidate_count(b) == 512
    assert workloads.candidate_count(workloads.WORKLOADS["threshold10"].channel(0)) == 94


def test_traced_metric_names_and_units_match_benchmark_json(tmp_path):
    import run

    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    recorder = spans.Recorder()
    workload = workloads.Search("tiny", "K=3", lambda: TINY)
    inputs = workload.setup(0, tmp_path, cli.main)
    with spans.traced(recorder):
        workload.run_pass(inputs, cli.main)
    metrics, _ = spans.layer_metrics(spans.pass_profile(recorder.spans))
    names = set(metrics) | {"decomp.frontier_share", "evaluator.slope_mismatch", "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])


def test_host_speed_samples_only_inside_sampling_and_restores_the_handler():
    import signal
    import time

    import run

    host = run.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        end = time.perf_counter() + 3.5 * run.REF_PERIOD_S
        while time.perf_counter() < end:
            pass
    taken = len(host.samples)
    time.sleep(2 * run.REF_PERIOD_S)
    assert taken >= 2 and len(host.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert host.speed() == pytest.approx(run.REF_NOMINAL_S / (sum(host.samples) / taken))
