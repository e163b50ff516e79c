"""The recorded mutants of the derandomized property tests are still killed.

A derandomized Hypothesis test draws its cases from a digest of its own
source, so an edit to it swaps its draws, and a mutant it was shown to
kill may no longer be among them.  Each row names a line of ``src/ckp``,
its mutation and the test that killed it.  The line must occur exactly
once, and the test, run in a subprocess on a copy of the package with the
mutation applied, must fail.  The subprocess loads the ``mutants`` profile
of ``conftest.py``: the ``ci`` draws, without shrinking.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROPERTIES = "tests/test_properties.py::"

MUTANTS = [
    # the layout keyed without the last group's size
    pytest.param(
        "model.py", "sizes = tuple(map(len, rows))",
        "sizes = tuple(map(len, rows[:-1]))",
        "test_solve_equals_the_oracle_on_a_fresh_and_a_shared_layout",
        id="layout-key"),
    # member_cut without its weightless-item clause
    pytest.param(
        "cuts.py", "facet = all(rows[i - 1][j - 1] for i, j in items) and (",
        "facet = (",
        "test_theorem_cuts_are_valid_and_each_flag_is_a_facet",
        id="facet-flag"),
    # the cover walk's window break taken at any excess
    pytest.param(
        "oracle.py", "if over <= 0 and ext and not packs:",
        "if ext and not packs:",
        "test_exact_separation_is_the_best_member_over_the_unpruned_walk",
        id="window-break"),
    # a face with terms capped at d - 2
    pytest.param(
        "oracle.py", "cap = self.instance.dimension - (1 if terms else 0)",
        "cap = self.instance.dimension - (2 if terms else 0)",
        "test_face_dimensions_equal_the_reference",
        id="face-cap"),
]


@pytest.mark.parametrize("module, line, mutant, test", MUTANTS)
def test_recorded_mutant_is_killed(tmp_path, module, line, mutant, test):
    source = (ROOT / "src" / "ckp" / module).read_text(encoding="utf-8")
    assert source.count(line) == 1
    package = tmp_path / "src" / "ckp"
    shutil.copytree(ROOT / "src" / "ckp", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / module).write_text(source.replace(line, mutant),
                                  encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(tmp_path / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", PROPERTIES + test],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    # exit 1: the test ran and failed (not a collection or usage error)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout, proc.stdout
