"""What modules import and hold: the CLI starts on the standard library
alone, no module imports a name it never reads, and the package states no
invariant as an ``assert``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from timtin import cli, decomp
from timtin.fixtures import BASELINE_TIM_LINKS, five_user_network
from timtin.model import emit_scheme, emit_topology

ROOT = Path(__file__).parent.parent

# Runs each argv list given as JSON in argv[1] through cli.main in a fresh
# interpreter, and reports the documents, whether numpy and mpmath were
# loaded before and after the oracle (the last argv), and the thread count.
CHILD = """
import contextlib, io, json, os, sys
import timtin
from timtin import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

*exact, oracle = json.loads(sys.argv[1])
documents = [run(argv) for argv in exact]
before = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
documents.append(run(oracle))
after = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
print(json.dumps({"documents": documents, "before": before, "after": after, "threads": threads}))
"""


def test_exact_commands_load_no_numpy_until_the_oracle(tmp_path, capsys):
    network = five_user_network()
    topo, scheme, report = tmp_path / "topo.json", tmp_path / "scheme.json", tmp_path / "report.json"
    topo.write_text(emit_topology(network))
    baseline = decomp.evaluate_map(network, decomp.map_mask(network, BASELINE_TIM_LINKS))
    scheme.write_text(emit_scheme(baseline.scheme))
    small = tmp_path / "small.json"
    small.write_text('{"K": 3, "alpha": [["1", "0.5", "0"], ["1", "1", "0.5"], ["0", "0.5", "1"]]}')
    assert cli.main(["decompose", "-t", str(small)]) == 0
    report.write_text(capsys.readouterr().out)
    frontier = json.loads(report.read_text())["frontier"]
    weights = ",".join(["1/%d" % len(frontier)] * len(frontier))
    commands = [
        ["decompose", "-t", str(topo)],
        ["eval", "-t", str(topo), "-s", str(scheme)],
        ["sc", "-t", str(topo), "-s", str(scheme)],
        ["tin", "-t", str(topo)],
        ["tim", "-t", str(topo)],
        ["timeshare", "-r", str(report), "-w", weights],
        ["oracle", "-t", str(topo), "-s", str(scheme)],
    ]
    in_process = []
    for argv in commands:
        code = cli.main(list(argv))
        in_process.append([code, capsys.readouterr().out])

    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout)
    assert fresh["before"] == []
    assert fresh["threads"] in (1, None)
    assert "numpy" in fresh["after"]
    assert [code for code, _ in fresh["documents"]] == [0] * len(commands)
    assert fresh["documents"] == in_process


# The package's public names, imported there only to be re-exported.
REEXPORTS = {ROOT / "src" / "timtin" / "__init__.py"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never reads, anywhere
    in the module; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = [
        path
        for folder in ("src/timtin", "scripts", "tests")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path not in REEXPORTS
    ]
    assert len(modules) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported and never read:\n" + "\n".join(unused)



def test_no_package_module_has_an_assert_statement():
    """python -O strips assert statements, so every invariant under
    src/timtin must be a real check that raises."""
    modules = sorted((ROOT / "src" / "timtin").glob("*.py"))
    assert len(modules) > 5
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, "assert statements, which python -O strips:\n" + "\n".join(asserts)
