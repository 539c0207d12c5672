"""Smoke tests of the scripts under scripts/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from timtin import decomp
from timtin.fixtures import five_user_network
from timtin.model import format_rational

ROOT = Path(__file__).parent.parent


def test_five_user_study_writes_the_search_frontier(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "five_user_study.py"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    expected = [
        {
            "tim_links": sorted([k + 1, i + 1] for k, i in r.map.tim_links),
            "products": [format_rational(x) for x in r.products],
            "verified": [format_rational(x) for x in r.verified],
        }
        for r in decomp.search(five_user_network()).frontier
    ]
    assert report["frontier"] == expected
    assert len(list(tmp_path.glob("scheme_*.json"))) == len(expected)


def load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(run_ref_s, throughput, failed=0, attempted=10, correct=True):
    """A perfbench result line as `perfbench/run.py --trace 0` prints it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "run_ref_s": {"value": run_ref_s, "unit": "s"},
            "throughput_ref_per_s": {"value": throughput, "unit": "1/s"},
        },
    }


def test_bench_pairs_summary_counts_wins_in_each_metric_direction():
    bench_pairs = load_script("bench_pairs")
    pairs = [
        {"parent": result_line(0.50, 100), "change": result_line(0.40, 125)},
        {"parent": result_line(0.52, 96), "change": result_line(0.41, 122, failed=1)},
        {"parent": result_line(0.48, 104), "change": result_line(0.49, 102)},
        {"parent": result_line(0.54, 93, correct=False), "change": result_line(0.42, 119)},
    ]
    better = {"run_ref_s": "lower", "throughput_ref_per_s": "higher", "peak_rss_mb": "lower"}
    summary = bench_pairs.summarize(pairs, better)
    run = summary["metrics"]["run_ref_s"]
    assert run["change_wins"] == 3 and run["pairs"] == 4
    assert run["parent"] == {"median": 0.51, "q1": 0.495, "q3": 0.525}
    assert run["change"]["median"] == 0.415
    assert run["values"] == {"parent": [0.50, 0.52, 0.48, 0.54], "change": [0.40, 0.41, 0.49, 0.42]}
    assert summary["metrics"]["throughput_ref_per_s"]["change_wins"] == 3
    assert "peak_rss_mb" not in summary["metrics"]  # in no line
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 40, "change": 40}
    assert summary["incorrect_runs"] == {"parent": 1, "change": 0}


def test_bench_pairs_summary_of_one_pair_and_of_ties():
    bench_pairs = load_script("bench_pairs")
    pairs = [{"parent": result_line(0.5, 100), "change": result_line(0.5, 100)}]
    summary = bench_pairs.summarize(pairs, {"run_ref_s": "lower", "throughput_ref_per_s": "higher"})
    for name in ("run_ref_s", "throughput_ref_per_s"):
        assert summary["metrics"][name]["change_wins"] == 0  # a tie is no win
    assert summary["metrics"]["run_ref_s"]["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}


SAMPLE_MODULE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts as code


# a comment-only line
class Box:
    """One-line class docstring."""

    size = """a string that is no docstring
    stays code"""

    def get(self):
        """Method
        docstring."""
        return "#" + os.sep
'''


def test_src_lines_counts_code_without_blanks_comments_or_docstrings(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SAMPLE_MODULE)
    (package / "sub" / "leaf.py").write_text("x = 1\n\n")
    mod = {"total": 17, "code": 6}  # import, class, size (2 lines), def, return
    expected = {
        "total": 19,
        "code": 7,
        "modules": {"__init__.py": {"total": 0, "code": 0}, "mod.py": mod,
                    "sub/leaf.py": {"total": 2, "code": 1}},
    }
    assert load_script("src_lines").package_counts(package) == expected
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(package)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected


def test_corpus_digest_hashes_every_document_it_runs(monkeypatch, capsys):
    corpus_digest = load_script("corpus_digest")
    monkeypatch.setattr(corpus_digest, "RANDOM_SCHEMES", 3)
    seen = []
    add = corpus_digest.Digest.add

    def recording_add(self, label, text):
        seen.append((label, text))
        add(self, label, text)

    monkeypatch.setattr(corpus_digest.Digest, "add", recording_add)
    assert corpus_digest.main() == 0
    line = json.loads(capsys.readouterr().out)
    docs = dict(seen)
    assert line["documents"] == len(seen) == len(docs)  # one label per document
    replay = corpus_digest.Digest()
    for label, text in seen:
        add(replay, label, text)
    assert line["sha256"] == replay.sha.hexdigest()
    # the corpus reaches oracle documents, emitted files, rational schemes
    # and each error document
    assert docs["base decompose"].startswith("exit 0\n")
    assert docs["base scheme_000.json"].startswith("{")
    for index in range(3):
        for powers in corpus_digest.ORACLE_POWERS:
            assert '"rates"' in docs[f"random {index} oracle {powers}"]
    assert not any(label.startswith("random 3 ") for label in docs)
    for name, error in [
        ("zero vector", "EmptyVector"),
        ("positive power", "PositivePowerExponent"),
        ("user 0", "DimensionMismatch"),
        ("user K+1", "DimensionMismatch"),
    ]:
        for command in ("eval", "sc", "oracle 1e10"):
            assert docs[f"error {name} {command}"].startswith(f'exit 1\n{{\n  "error": "{error}: ')
