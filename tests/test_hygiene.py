"""Static checks on the package and test sources."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "ckp").glob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


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


def denominator_scalings(source):
    """Lines of ``lcm`` calls with a starred or comprehension argument:
    scalings by the LCM of a collection of denominators.  An ``lcm`` of
    named scales is not one."""
    collections = (ast.Starred, ast.ListComp, ast.GeneratorExp, ast.SetComp)
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "lcm" and any(isinstance(arg, collections)
                                 for arg in node.args):
            lines.append(node.lineno)
    return lines


def test_detector_flags_a_denominator_scaling():
    source = ("import math\nfrom math import lcm\n"
              "a = lcm(b.denominator, *(c.denominator for c in cs))\n"
              "d = math.lcm(*[q for _, q in ratios])\n"
              "e = lcm(f, g)\n"
              "h = lcm(x.denominator for x in xs)\n")
    assert denominator_scalings(source) == [3, 4, 6]


def test_one_integer_scaling():
    # numeric.integer_form is the library's one scaling by an LCM of
    # denominators; every other module calls it
    found = {path.name: denominator_scalings(path.read_text())
             for path in LIBRARY if path.name != "numeric.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def ref_coercions(source):
    """Lines of ``VarRef(*...)`` calls, coercions of a pair to a reference,
    outside the body of a function named ``var_ref``."""
    lines = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside or node.name == "var_ref"
        elif (isinstance(node, ast.Call) and not inside
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "VarRef"
              and any(isinstance(arg, ast.Starred) for arg in node.args)):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_detector_flags_a_ref_coercion():
    source = ("def var_ref(ref):\n    return VarRef(*ref)\n"
              "def other(ref):\n    return VarRef(*ref)\n"
              "a = model.VarRef(*pair)\n"
              "b = VarRef(i, j)\n")
    assert ref_coercions(source) == [4, 5]


def test_one_ref_coercion():
    # model.var_ref is the library's one coercion of a (group, slot) pair to
    # a VarRef, with its index check; every other module calls it
    found = {path.name: ref_coercions(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}


def simplex_imports(source):
    """Lines of imports from the ``simplex`` module, relative or absolute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.rpartition(".")[2] == "simplex" for n in names):
            lines.append(node.lineno)
    return lines


def test_detector_flags_a_simplex_import():
    source = ("from .simplex import LpProblem\nfrom . import simplex\n"
              "import ckp.simplex\nfrom ckp.simplex import solve_lp\n"
              "from .model import Point\nimport simplicity\n")
    assert simplex_imports(source) == [1, 2, 3, 4]


def test_oracle_shares_no_code_with_the_lp():
    # the oracle is the ground truth the node LP is checked against, so it
    # computes its maxima without the LP's code
    source = (ROOT / "src" / "ckp" / "oracle.py").read_text()
    assert simplex_imports(source) == []


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


def unread_library_names(library, readers, readme):
    """Top-level public functions, classes and constants of the ``library``
    sources that no ``ast.Load`` name or attribute in the ``readers``
    sources reads and that ``readme`` does not mention.  A name listed in
    an ``__all__`` of the library counts as read, since it is exported, and
    so does a name spelled out as a string, which a lookup by name (such
    as ``cuts.build_member``'s or the benchmark tracer's) reads."""
    defined = []
    read = set()
    for source in library:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined += names
                if "__all__" in names:
                    read.update(elt.value for elt in node.value.elts)
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)  # a lookup by name, as getattr makes
    return sorted(name for name in set(defined)
                  if not name.startswith("_") and name not in read
                  and not re.search(r"\b%s\b" % re.escape(name), readme))


def test_detector_flags_a_test_only_name():
    library = ["def used(): pass\ndef unread(): pass\nclass Told: pass\n"
               "LIMIT = 3\nSPARE: int = 4\n_private = 1\nclass Exported: pass\n"
               "class Named: pass\n",
               "__all__ = ['Exported']\n"]
    readers = library + ["used()\nx.LIMIT\nSPARE = 5\ngetattr(x, 'Named')\n"]
    assert unread_library_names(library, readers, "see `Told`") == [
        "SPARE", "unread"]


def test_no_test_only_library_names():
    # library code that only the tests call is deleted, not kept for them
    library = [path.read_text() for path in LIBRARY]
    readers = library + [path.read_text() for path in BENCH]
    readme = (ROOT / "README.md").read_text()
    assert unread_library_names(library, readers, readme) == []
