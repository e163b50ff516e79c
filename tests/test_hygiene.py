"""Static checks on the package and test sources."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "ckp").glob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names a module imports but never reads.  A name listed in
    ``__all__`` counts as read, since it is re-exported."""
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    source = "import os\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_lines(source):
    """Lines of ``assert`` statements, which ``python -O`` strips."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_detector_flags_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'msg'\n") == [3]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_checks_survive_optimization(path):
    # a check in the library must raise, not assert
    assert assert_lines(path.read_text()) == []


def test_bench_tracer_sites_exist():
    # the benchmark's tracer wraps these (module, attribute) sites by name,
    # so each must stay a module attribute of ckp
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _, _ in tracing.PATCHES
               if not hasattr(importlib.import_module("ckp." + module), attr)]
    assert len(tracing.PATCHES) >= 22
    assert missing == []
