"""Static checks on the package and test sources."""

import ast
import importlib.util
import re
from collections import Counter
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


def sign_checks(source):
    """Lines of ``ValidationError(...)`` calls whose message literal
    mentions "negative" (so "nonnegative" too): sign checks on the data,
    outside the body of a function named ``with_row``, whose check of a
    cut row's rhs is the node LP's own."""
    lines = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside or node.name == "with_row"
        elif (isinstance(node, ast.Call) and not inside
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "ValidationError"
              and any(isinstance(leaf, ast.Constant)
                      and isinstance(leaf.value, str)
                      and "negative" in leaf.value.lower()
                      for arg in node.args for leaf in ast.walk(arg))):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return lines


def test_detector_flags_a_sign_check():
    source = ("def f(a, b):\n"
              "    if a < 0:\n"
              "        raise ValidationError('a must be nonnegative')\n"
              "    raise errors.ValidationError(\n"
              "        'Negative b: %s' % b)\n"
              "def with_row(row):\n"
              "    raise ValidationError('a cut row needs a nonnegative rhs')\n"
              "raise ValidationError('out of range: %s' % 'negative')\n"
              "raise ValidationError('out of range')\n"
              "raise PreconditionError('negative')\n")
    assert sign_checks(source) == [3, 4, 8]


def test_one_sign_rule():
    # an Instance refuses negative weights, profits and capacity when it is
    # built (model.py); no other module checks a sign of the data again
    found = {path.name: sign_checks(path.read_text())
             for path in LIBRARY if path.name != "model.py"}
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


def fraction_inequalities(source):
    """Lines of ``LinearInequality(...)`` calls, inequalities built from
    Fractions.  ``LinearInequality.from_scaled(...)`` is not one."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "LinearInequality"]


def test_detector_flags_a_fraction_inequality():
    source = ("a = LinearInequality(terms, rhs)\n"
              "b = model.LinearInequality(\n    terms, rhs)\n"
              "c = LinearInequality.from_scaled(unit, top, ints)\n"
              "d: LinearInequality = c\n")
    assert fraction_inequalities(source) == [1, 2]


def test_cut_builders_keep_their_integer_form():
    # a builder turns its family's integer form into the cut through
    # LinearInequality.from_scaled_unchecked, which keeps that form for the
    # oracle, the node LP's pool and separation's winner check
    source = (ROOT / "src" / "ckp" / "cuts.py").read_text()
    assert fraction_inequalities(source) == []


def unchecked_inequalities(source):
    """Lines of ``from_scaled_unchecked(...)`` calls, inequalities made from
    an integer form without its checks, outside the body of a function
    named ``from_scaled`` (which checks the form, then calls it)."""
    lines = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside or node.name == "from_scaled"
        elif (isinstance(node, ast.Call) and not inside
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "from_scaled_unchecked"):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_detector_flags_an_unchecked_inequality():
    source = ("def from_scaled(cls, u, r, t):\n"
              "    return cls.from_scaled_unchecked(u, r, t)\n"
              "a = LinearInequality.from_scaled_unchecked(u, r, t)\n"
              "def parse(text):\n    return from_scaled_unchecked(\n"
              "        1, 0, ())\n"
              "b = LinearInequality.from_scaled(u, r, t)\n")
    assert unchecked_inequalities(source) == [3, 5]


def test_only_the_cut_builders_skip_the_form_checks():
    # the cut builders make their forms from the instance's ints and VarRefs
    # and take them in unchecked; every other module, where parsed or user
    # data may reach a form, goes through from_scaled's checks
    found = {path.name: unchecked_inequalities(path.read_text())
             for path in LIBRARY if path.name != "cuts.py"}
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


def private_reads(source):
    """``(line, module, name)`` for each private ``_name`` (not a dunder)
    that ``source`` reads from a module of the package: imported as
    ``from .module import _name`` or ``from ckp.module import _name``, or
    read as an attribute of a module bound by ``from . import module``,
    ``from ckp import module`` or ``import ckp.module as alias``."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    modules, found = {}, []  # modules: bound name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "ckp")):
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name
            elif node.level == 1 or (node.module or "").startswith("ckp."):
                module = node.module.rpartition(".")[2]
                found += [(node.lineno, module, alias.name)
                          for alias in node.names if private(alias.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ckp.") and alias.asname:
                    modules[alias.asname] = alias.name[4:]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return sorted(found)


def test_detector_flags_a_private_read():
    source = ("from . import cuts as cuts_mod, oracle\n"
              "from .model import _integer_row, Point\n"
              "from ckp.numeric import _parse\nfrom ckp import fileio\n"
              "import ckp.simplex as lp\nimport os\n"
              "a = cuts_mod._pack_form(k, f)\nb = oracle.walk_patterns\n"
              "c = oracle.__name__\nd = os._exit\ne = lp._solve_groups\n"
              "f = self._own\ng = fileio._token\n")
    assert private_reads(source) == [
        (2, "model", "_integer_row"), (3, "numeric", "_parse"),
        (7, "cuts", "_pack_form"), (11, "simplex", "_solve_groups"),
        (13, "fileio", "_token")]


def test_no_private_reads_across_modules():
    # a module's private names are its own: a decision another module needs
    # is made where it belongs and read through a public name
    found = {path.name: private_reads(path.read_text()) for path in LIBRARY}
    assert {name: reads for name, reads in found.items() if reads} == {}


def environment_reads(source):
    """Lines that read the process environment: an ``environ`` or
    ``getenv``, as an attribute (``os.environ``) or a bare name."""
    names = ("environ", "getenv")
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in names
                   or isinstance(node, ast.Name) and node.id in names})


def test_detector_flags_an_environment_read():
    source = ("import os\nfrom os import environ, getenv\n"
              "a = os.environ.get('A')\nb = os.getenv('B')\n"
              "c = environ['C']\nd = getenv('D')\n"
              "e = options.environment\n")
    assert environment_reads(source) == [3, 4, 5, 6]


def test_library_reads_no_environment():
    # every limit and setting reaches the library as an argument, so a call
    # gives the same result whatever the environment holds
    found = {path.name: environment_reads(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}


def duck_typed_reads(source):
    """Lines of ``getattr`` and ``hasattr`` calls, as a bare name or an
    attribute: reads of an attribute that a value may or may not have.  A
    lookup in ``globals()`` is not one."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("getattr", "hasattr")]


def test_detector_flags_a_duck_typed_read():
    source = ("a = getattr(walk, 'pruned', 0)\nb = hasattr(x, 'y')\n"
              "c = builtins.getattr(x, 'z')\nd = globals()['name']\n"
              "e = x.getattr\nf = x.pruned\n")
    assert duck_typed_reads(source) == [1, 2, 3]


def test_library_reads_no_attribute_by_duck_typing():
    # each value the library reads has the attributes its type declares, so
    # a read never asks whether one is there
    found = {path.name: duck_typed_reads(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}


def namespace_reads(source):
    """Lines of ``globals()``, ``locals()`` and ``vars()`` calls, as a bare
    name or an attribute: reads of a namespace, where a value is looked up
    by its name as a string."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("globals", "locals", "vars"))


def test_detector_flags_a_namespace_read():
    source = ("a = globals()['build']\nb = locals()\nc = vars(obj)\n"
              "d = builtins.globals()\ne = x.globals\nf = getattr(m, 'g')\n"
              "g = globals\n")
    assert namespace_reads(source) == [1, 2, 3, 4]


def test_library_looks_nothing_up_by_name():
    # each call the library makes names its function in the source, so the
    # reader sees what runs, and a wrapper set on a module attribute sees
    # only the calls made through that attribute
    found = {path.name: namespace_reads(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}


def comparator_sorts(source):
    """Lines that name ``cmp_to_key``: as a bare name, an attribute
    (``functools.cmp_to_key``) or an import, aliased or not.  A sort by a
    comparator makes a Python call per comparison, where an exact key
    sorts the same."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "cmp_to_key"
                or isinstance(node, ast.Attribute)
                and node.attr == "cmp_to_key"
                or isinstance(node, ast.ImportFrom)
                and any(alias.name == "cmp_to_key" for alias in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


def test_detector_flags_a_comparator_sort():
    source = ("from functools import cmp_to_key\nimport functools\n"
              "a.sort(key=cmp_to_key(f))\n"
              "b = sorted(c, key=functools.cmp_to_key(g))\n"
              "from functools import cmp_to_key as order\n"
              "d.sort(key=itemgetter(0))\ne = 'cmp_to_key'\n")
    assert comparator_sorts(source) == [1, 3, 4, 5]


def test_library_sorts_by_key():
    # every order the library sorts by has an exact key, which Python
    # computes once per item instead of calling a comparator per comparison
    found = {path.name: comparator_sorts(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def dataclass_records(source):
    """Lines that write a record as a dataclass: each import of
    ``dataclasses`` and each ``@dataclass`` decorator, bare, as an
    attribute or called."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names
                      if alias.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(node.lineno)
        elif isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                if (getattr(decorator, "id", getattr(decorator, "attr", None))
                        == "dataclass"):
                    found.append(decorator.lineno)
    return sorted(found)


def test_detector_flags_a_dataclass_record():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n"
              "from typing import NamedTuple\n"
              "@dataclass\nclass A:\n    x: int\n"
              "@dataclass(frozen=True)\nclass B:\n    x: int = field()\n"
              "@dataclasses.dataclass\nclass C:\n    x: int\n"
              "class D(NamedTuple):\n    x: int\n"
              "@property\ndef dataclass_like(): pass\n")
    assert dataclass_records(source) == [1, 2, 4, 7, 10]


def test_one_record_idiom():
    # a record of the library is a named tuple, so none pays for the
    # dataclasses import or a generated class body
    found = {path.name: dataclass_records(path.read_text()) for path in LIBRARY}
    assert {name: lines for name, lines in found.items() if lines} == {}


def reads(node, bare=True):
    """The names ``node`` reads: each loaded ``ast.Attribute``, each
    identifier string (a lookup by name, as the benchmark tracer's) and,
    with ``bare``, each loaded ``ast.Name``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if bare:
                yield child.id
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.ctx, ast.Load)):
            yield child.attr
        elif (isinstance(child, ast.Constant)
              and isinstance(child.value, str)
              and child.value.isidentifier()):
            yield child.value


def dead_names(library, readers=(), readme=""):
    """Names of the ``library`` sources that nothing reads, as a pair of
    sorted lists: top-level functions and classes, of any name, and public
    constants, which no name that :func:`reads` finds in the ``library``
    or ``readers`` sources reads outside their own top-level statement.  A
    name listed in an ``__all__`` of the library is exempt, since it is
    exported, and so is a constant that ``readme`` mentions."""
    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return [t.id for t in targets if isinstance(t, ast.Name)]
        return []

    read, functions, constants = set(), set(), set()
    for index, source in enumerate(list(library) + list(readers)):
        for node in ast.parse(source).body:
            names = defined(node)
            read.update(name for name in reads(node) if name not in names)
            if index >= len(library):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                functions.update(names)
            else:
                constants.update(n for n in names if not n.startswith("_"))
            if "__all__" in names:
                read.update(elt.value for elt in node.value.elts)
    constants = {name for name in constants
                 if not re.search(r"\b%s\b" % re.escape(name), readme)}
    return sorted(functions - read), sorted(constants - read)


def test_detector_flags_an_unreferenced_definition():
    library = ["def used(): pass\ndef recursive(n): return recursive(n)\n"
               "class Exported: pass\ndef _private(): pass\n"
               "def named(): pass\nclass Read: pass\n"
               "__all__ = ['Exported']\n",
               "used()\nf = getattr(module, 'named')\n"]
    # f is a public constant that nothing reads
    assert dead_names(library, ["x = module.Read\n"]) == (
        ["_private", "recursive"], ["f"])


def test_detector_flags_a_test_only_name():
    # a README mention exempts a constant but not a class
    library = ["def used(): pass\ndef unread(): pass\nclass Told: pass\n"
               "LIMIT = 3\nSPARE: int = 4\n_private = 1\nclass Exported: pass\n"
               "class Named: pass\nTOLD = 5\n",
               "__all__ = ['Exported']\n"]
    readers = ["used()\nx.LIMIT\nSPARE = 5\ngetattr(x, 'Named')\n"]
    assert dead_names(library, readers, "see `Told` and `TOLD`") == (
        ["Told", "unread"], ["SPARE"])


def library_dead_names():
    """``dead_names`` of ``src/ckp``, read by itself and ``bench/``."""
    library = [path.read_text() for path in LIBRARY]
    readers = [path.read_text() for path in BENCH]
    return dead_names(library, readers, (ROOT / "README.md").read_text())


def test_no_unreferenced_definitions():
    # a function or class of the library that neither the library nor the
    # benchmark reads is dead code, kept only for its tests
    definitions, _ = library_dead_names()
    assert definitions == []


def test_no_test_only_library_names():
    # a public constant that only the tests read is deleted, not kept for them
    _, constants = library_dead_names()
    assert constants == []


def unread_members(library, readers=()):
    """``Class.member`` for each method and property of a top-level class
    of the ``library`` sources that no attribute or identifier string
    (:func:`reads`, not bare) in the ``library`` or ``readers`` sources
    reads outside the member's own body.  Dunder methods are exempt, since
    Python calls them, and so are the members of a class listed in an
    ``__all__`` of the library, since it is exported."""
    read, own, members, exported = Counter(), Counter(), [], set()
    for index, source in enumerate(list(library) + list(readers)):
        tree = ast.parse(source)
        read.update(reads(tree, bare=False))
        for node in tree.body:
            if (isinstance(node, ast.Assign) and index < len(library)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                exported.update(elt.value for elt in node.value.elts)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                own[member.name] += list(reads(member, bare=False)).count(
                    member.name)
                if (index < len(library) and not
                        (member.name.startswith("__")
                         and member.name.endswith("__"))):
                    members.append((node.name, member.name))
    return sorted("%s.%s" % (cls, name) for cls, name in members
                  if cls not in exported and read[name] == own[name])


def test_detector_flags_an_unread_member():
    # a local variable of the member's name does not read it
    library = ["class Kept:\n"
               "    def used(self): return 1\n"
               "    def local(self): pass\n"
               "    @property\n    def unread(self): return 2\n"
               "    def recursive(self): return self.recursive()\n"
               "    def named(self): pass\n"
               "    def __eq__(self, other): return True\n"
               "class Exported:\n    def unread(self): pass\n",
               "__all__ = ['Exported']\nx = Kept().used()\n"]
    readers = ["getattr(Kept(), 'named')\nlocal = 1\nprint(local)\n"]
    assert unread_members(library, readers) == [
        "Kept.local", "Kept.recursive", "Kept.unread"]


def test_no_unread_members():
    # a method or property that neither the library nor the benchmark
    # reads is dead code, kept only for its tests, as a dead function is
    library = [path.read_text() for path in LIBRARY]
    readers = [path.read_text() for path in BENCH]
    assert unread_members(library, readers) == []


def unused_parameters(source):
    """``(line, function, parameter)`` for each parameter of a function
    that its body never names; ``self`` and ``cls`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        named = {child.id for statement in node.body
                 for child in ast.walk(statement)
                 if isinstance(child, ast.Name)}
        found += [(node.lineno, node.name, a.arg) for a in params
                  if a.arg not in named and a.arg not in ("self", "cls")]
    return found


def test_detector_flags_an_unused_parameter():
    source = ("def f(instance, point, *rest, flag=None, **options):\n"
              "    return point\n"
              "class C:\n"
              "    def m(self, value):\n"
              "        def inner():\n            return value\n"
              "        return inner\n"
              "    @classmethod\n    def make(cls, data=None): pass\n")
    assert unused_parameters(source) == [
        (1, "f", "instance"), (1, "f", "flag"), (1, "f", "rest"),
        (1, "f", "options"), (9, "make", "data")]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
