"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import argparse
import doctest
import json
import os
import subprocess
import sys
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


def test_scalar_format_stays_in_scalars():
    # a QScalar's num/den dicts are read only inside scalars.py
    readers = [f"{path.name}:{node.lineno}"
               for path in SOURCES if path.name != "scalars.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("num", "den")]
    assert SOURCES and not readers, readers


def test_module_doctests():
    # every example in the package runs here; a module with an example that
    # doctest does not find fails as surely as a wrong one
    results = {}
    for path in SOURCES:
        if ">>>" in path.read_text():
            module = importlib.import_module(f"qdiag.{path.stem}")
            results[path.name] = doctest.testmod(module)
    assert results and all(r.attempted > 0 and r.failed == 0
                           for r in results.values()), results


def test_tracer_names_resolve():
    # the benchmark's tracer wraps these by name; importing it patches nothing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, names in tracer.WRAPPED.values():
        module = importlib.import_module(module_name)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in cls.__dict__
            else:
                found = hasattr(module, name)
            if not found:
                missing.append(f"{module_name}.{name}")
    assert tracer.WRAPPED and not missing, missing


def test_conjecture_path_stays_off_the_frt_route():
    # hecke.py computes the conjecture's kernels; the FRT modules are only
    # the cross-check, so hecke.py imports neither of them
    path = Path(qdiag.__file__).parent / "hecke.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            if not node.module:
                imported.update(alias.name for alias in node.names)
    assert "permutations" in imported
    assert not imported & {"qma", "rmatrix"}, imported


def test_packed_rows_is_the_one_packing():
    # every packed sum goes through scalars.Packing, the one packer: the
    # packing helpers are named inside that class alone, the Hecke walk
    # imports it, and the other product modules import PackedRows, its
    # sum of products
    from qdiag import scalars
    assert not hasattr(scalars, "gather") and not hasattr(scalars, "_Packing")
    assert callable(scalars._pack) and callable(scalars._unpack)
    outside, importers = [], {"Packing": set(), "PackedRows": set()}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = {id(node) for top in tree.body
                  if isinstance(top, ast.ClassDef) and top.name == "Packing"
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                for name, modules in importers.items():
                    if name in names:
                        modules.add(path.name)
            else:
                continue
            if {"_pack", "_unpack"} & set(names) and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno}")
    assert not outside, outside
    assert "hecke.py" in importers["Packing"], importers
    assert {"linalg.py", "rmatrix.py"} <= importers["PackedRows"], importers


def test_reports_do_not_depend_on_assert():
    # `python -O` strips assert statements; the packed sums of products
    # must give the same reports without them, on both paths of the
    # packing: the denominator-1 sums of hecke-axioms and the
    # rational-function groups of idempotents; and so must every row
    # reduction, which preplactic runs on G M and on each row of its RREFs,
    # and diag-kernel in the kernel's self-check m B = 0 and its FRT block
    # RREFs
    src = str(Path(qdiag.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    for check in ("hecke-axioms", "idempotents", "preplactic", "diag-kernel"):
        reports = []
        for flags in ([], ["-O"]):
            out = subprocess.run(
                [sys.executable, *flags, "-m", "qdiag.cli", "run", check,
                 "--no-cache", "--format", "json"],
                env=env, check=True, capture_output=True, text=True).stdout
            reports.append([{k: v for k, v in r.items() if k != "seconds"}
                            for r in json.loads(out)])
        assert reports[0] == reports[1]
        assert reports[0][0]["status"] == "PASS"


def test_every_run_option_is_exercised():
    # an option that no test passes is a choice that nothing checks
    from qdiag import cli
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    literals = {node.value
                for path in Path(__file__).parent.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)}
    options = [a.option_strings for a in sub.choices["run"]._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    missing = [aliases for aliases in options
               if not literals & set(aliases)]
    assert options and not missing, missing
