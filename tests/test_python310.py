"""The oldest supported interpreter (``requires-python >= 3.10``) gives the
same results as the one running the suite.

The script below runs in a ``python3.10`` subprocess and in one of the
current interpreter, both importing ``ckp`` from this checkout's ``src``;
their standard outputs must be equal.  The subprocess needs no test
dependencies.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import os
import pickle
import sys
from fractions import Fraction

from ckp import cli, cuts, oracle, separation, solver
from ckp.fileio import parse_instance, serialize_inequality, serialize_instance
from ckp.model import Instance, LinearInequality, Point, VarRef

def same(*rows):
    return [(row, row) for row in rows]

instance = Instance.build([((3,), (5,)), ((17, 11, 4), (19, 12, 6)),
                           ((13, 9), (14, 9)), ((12, 8, 5), (13, 7, 6)),
                           ((9, 2), (4, 3))], 33)
report = solver.branch_and_cut(instance, solver.SolveConfig(exact_fallback=True))
print(report.value, report.best_bound, report.nodes, report.lp_pivots,
      sorted(report.cuts_per_family.items()), report.point)

# an instance's facts, made in one pass at the first read of any: a fresh
# rational instance reads its columns first, then pickled copies made
# before and after that read give its other facts
fresh = Instance.build([((Fraction(7, 2), 2), (Fraction(5, 3), 1)),
                        ((Fraction(9, 4),), ("1/6",))], Fraction(11, 3))
before = pickle.dumps(fresh)
print(list(fresh.columns.items()))
for data in (before, pickle.dumps(fresh)):
    copied = pickle.loads(data)
    print(copied == fresh, copied.units, copied.profit_units, copied.normalized)

ex_c = Instance.build(same((1,), (6,), (14, 10), (13, 9), (12, 8)), 36)
point = Point([(VarRef(1, 1), 1), (VarRef(2, 1), 1),
               (VarRef(3, 1), Fraction(1, 7)), (VarRef(3, 2), 1),
               (VarRef(4, 2), 1), (VarRef(5, 2), 1)])
for result in (separation.separate_greedy(ex_c, point),
               separation.separate_exact(ex_c, point)):
    print(result.violation, result.stats.examined, result.stats.patterns,
          result.cut.describe(), result.cut.inequality)

# one stored form: a point and a cut of scale above 1, each from its
# Fractions and from its integer form times 3, and the cut as written
scale, xs = point.scaled
tripled = Point.from_scaled(3 * scale, [(ref, 3 * x) for ref, x in xs])
cut = cuts.pack_inequality_2(ex_c, [(1, 1), (2, 1), (3, 2), (4, 2), (5, 2)],
                             (3, 2)).inequality
unit, rhs, terms = cut.scaled
rebuilt = LinearInequality(cut.terms, cut.rhs)
again = LinearInequality.from_scaled(3 * unit, 3 * rhs,
                                     [(ref, 3 * c) for ref, c in terms])
print(point == tripled, hash(point) == hash(tripled), tripled.entries,
      rebuilt == cut == again, hash(rebuilt) == hash(cut) == hash(again),
      cut.scaled)
print(serialize_inequality(again), end="")

path = os.path.join(sys.argv[1], "ex_c.ckp")
with open(path, "w", encoding="utf-8") as handle:
    handle.write(serialize_instance(ex_c))
print("exit", cli.main(["cuts", path, "--family", "all", "--verify"]))
# members that repeat an inequality, each repeat written from the text of
# its first: an lcover1 cut repeats the pack1 cut and each lcover2 cut an
# lcover1 cut
repeats_path = os.path.join(sys.argv[1], "repeats.ckp")
with open(repeats_path, "w", encoding="utf-8") as handle:
    handle.write(serialize_instance(Instance.build(same((3, 1), (16, 7)), 13)))
print("exit", cli.main(["cuts", repeats_path, "--family", "all", "--verify"]))

# the candidate table in walk order, and the witness it names
print(oracle.enumerate_candidate_vertices(ex_c).points)
print("exit", cli.main(["oracle", path]))

# the rational path: a solve on rational data, and an instance read from
# p/q strings, with its integer forms
rational = Instance.build([((Fraction(39, 2), Fraction(28, 5), 5),
                            (Fraction(41, 2), Fraction(33, 5), 6)),
                           ((Fraction(28, 3), 1, 0), ("31/3", 2, 1))],
                          Fraction(173, 24))
report = solver.branch_and_cut(rational, solver.SolveConfig(exact_fallback=True))
print(report.value, report.best_bound, report.nodes, report.lp_pivots,
      sorted(report.cuts_per_family.items()), report.point)
parsed = parse_instance("ckp 1\nb 346/48\ngroup 3 a 39/2 28/5 10/2 c 41/2 33/5 6\n"
                        "group 3 a 28/3 1/1 0 c 31/3 2 1\n")
print(parsed == rational, hash(parsed) == hash(rational), parsed.units,
      parsed.profit_units, parsed.capacity, parsed.groups[0].weights)
print(serialize_instance(parsed), end="")
# its cuts, verified, through a p/q file: gcd-reduced candidates and p/q text
rational_path = os.path.join(sys.argv[1], "rational.ckp")
with open(rational_path, "w", encoding="utf-8") as handle:
    handle.write(serialize_instance(rational))
print("exit", cli.main(["cuts", rational_path, "--family", "all", "--verify"]))
bad = os.path.join(sys.argv[1], "bad.ineq")
with open(bad, "w", encoding="utf-8") as handle:
    handle.write(serialize_inequality(
        LinearInequality({VarRef(4, 1): 1, VarRef(5, 1): 1}, 1)))
print("exit", cli.main(["verify", path, bad]))

# packed lanes: rows with negative coefficients, one valid and one whose
# negative rhs the origin breaks, and a cut listing on weights near 10^7,
# whose lanes are 64, 96 and 128 bits wide
for terms, rhs in (({VarRef(1, 1): 1, VarRef(2, 1): -1, VarRef(3, 2): 3}, 4),
                   ({VarRef(3, 1): -2, VarRef(4, 1): -1}, -1)):
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write(serialize_inequality(LinearInequality(terms, rhs)))
    print("exit", cli.main(["verify", path, bad]))
E = 10 ** 6
wide = Instance.build(same((E + 1,), (6 * E + 1,), (14 * E + 3, 10 * E + 7),
                           (13 * E + 1, 9 * E), (12 * E + 5, 8 * E + 3)),
                      36 * E + 11)
wide_path = os.path.join(sys.argv[1], "wide.ckp")
with open(wide_path, "w", encoding="utf-8") as handle:
    handle.write(serialize_instance(wide))
print("exit", cli.main(["cuts", wide_path, "--family", "all", "--verify"]))
vertices = oracle.enumerate_candidate_vertices(wide)
for cut in cuts.theorem_cuts(wide, cuts.FAMILIES, None):
    vertices.face_dimension(cut.inequality)
print(sorted(vertices._packs))
# the lanes read as exact excesses: the maximum of ``ckp oracle`` on 64-bit
# lanes, and the witness of an invalid row, a negative coefficient among
# its terms, on 96-bit lanes
print("exit", cli.main(["oracle", wide_path]))
with open(bad, "w", encoding="utf-8") as handle:
    handle.write(serialize_inequality(LinearInequality(
        {VarRef(2, 1): -(6 * E * E + 1), VarRef(3, 1): 14 * E * E + 3,
         VarRef(4, 1): 13 * E * E + 1}, 20 * E * E)))
print("exit", cli.main(["verify", wide_path, bad]))
"""


def run(python, *args):
    """Standard output of ``python -c`` with ``args``, importing ``ckp``
    from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a pyenv shim runs only the selected version's command: select 3.10
    env["PYENV_VERSION"] = "3.10"
    proc = subprocess.run([python, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_python310_matches_current_interpreter(tmp_path):
    python310 = shutil.which("python3.10")
    if python310 is None:
        pytest.skip("python3.10 is not on PATH")
    version = run(python310, "import sys; print(sys.version_info[:2])")
    assert version == "(3, 10)\n"
    expected = run(sys.executable, SCRIPT, str(tmp_path))
    assert "exit 0" in expected and "family: lcover1" in expected
    assert "valid: no" in expected and "candidates: 149" in expected
    assert "43/5 43/5 5 69 " in expected and "\nTrue True (120, " in expected
    assert "True True ((" in expected and "True True (3, 114, " in expected
    assert "term 3 1 35/3\n" in expected
    assert "term 1 1 13104/865\n" in expected  # a rational lcover2 cut
    assert ("special: (2,1)\n# facet: yes\nineq 1\nrhs 13\nterm 2 1 16\n"
            "term 2 2 13\n") in expected  # a repeat, from its first text
    assert "exit 0\n[64, 96, 128]\n" in expected  # three widths
    assert expected.endswith(  # the maximum and the witness off the lanes
        "candidates: 154\nvalue: 36000011\npoint:\nval 3 1 1\nval 4 1 1\n"
        "val 5 1 9000007/12000005\nexit 0\nvalid: no\nwitness:\n"
        "val 3 1 1\nval 4 1 1\nexit 0\n")
    # the pickled copies, made before and after the first read, agree
    assert expected.count("]\nTrue (12, ((42, 24), (27,)), 44) (6, (10, 6, 1))"
                          " True\nTrue (12, ((42, 24), (27,)), 44) (6, (10, 6,"
                          " 1)) True\n") == 1
    assert run(python310, SCRIPT, str(tmp_path)) == expected
