"""Module-boundary guard: package modules import each other at module level
only, so the dependency order between them is visible in their headers."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rclkit"


def test_no_function_local_relative_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                        found.append("%s:%d in %s()" % (path.name, inner.lineno, node.name))
    assert found == []
