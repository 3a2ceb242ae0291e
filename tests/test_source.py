"""Properties of the package source itself."""

import ast
from pathlib import Path

import qdiag

SOURCES = sorted(Path(qdiag.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
