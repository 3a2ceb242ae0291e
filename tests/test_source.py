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


def test_fractions_only_at_the_scalar_boundary():
    # Q(q) arithmetic runs on ints; Fraction belongs to scalars.py's boundary
    importers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                importers.append(path.name)
    assert "scalars.py" in importers
    assert set(importers) == {"scalars.py"}, importers
