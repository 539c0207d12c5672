"""Smoke tests of the scripts under scripts/."""

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
        for r in decomp.search(five_user_network())
        if r.verdict
    ]
    assert report["frontier"] == expected
    assert len(list(tmp_path.glob("scheme_*.json"))) == len(expected)
