#!/usr/bin/env python3
"""Line counts of a Python package, per module and summed.

``total`` counts every line; ``code`` counts the non-blank lines that are
neither comment-only nor inside a module, class or function docstring.
Prints one JSON line.

Usage, from the repository root:

    python3 scripts/src_lines.py [PACKAGE_DIR]    (default: src/timtin)
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) covered by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def module_counts(text: str) -> dict:
    """{"total": lines, "code": code-only lines} of one module's source."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in docs and line.strip() and not line.lstrip().startswith("#")
    )
    return {"total": len(lines), "code": code}


def package_counts(package: Path) -> dict:
    """Counts of every module under ``package``, keyed by relative path, and their sums."""
    modules = {
        path.relative_to(package).as_posix(): module_counts(path.read_text())
        for path in sorted(package.rglob("*.py"))
    }
    return {
        "total": sum(m["total"] for m in modules.values()),
        "code": sum(m["code"] for m in modules.values()),
        "modules": modules,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "timtin")
    args = parser.parse_args(argv)
    print(json.dumps(package_counts(args.package), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
