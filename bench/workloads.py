"""The four workloads: how each builds its corpus, runs one task, checks
one output against an independent reference and fingerprints it.

A *task* is one unit a user waits for.  A run makes one pass over a
corpus of ``tasks(seconds)`` tasks: ``pace`` tasks per requested second.
The paces are fixed; on the 2-vCPU host the benchmark was defined on, a
pass took 50 to 85% of ``--seconds`` when the host ran at its reference
speed (see ``run.REFERENCE_KERNEL_S``), the most for solve-exactsep, whose
heavy-tailed task times need the most samples.  The tasks a run measures
therefore depend on the seed and ``--seconds`` alone, never on how fast
the program is.

Every function reaches ``ckp`` through the ``ck`` namespace handed in by
``run.py``, which re-imports the package for each set-up repetition and may
wrap its functions for tracing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import corpus
import reference

HERE = os.path.dirname(os.path.abspath(__file__))

# Tasks per second of --seconds (see the module docstring).
SOLVE_DEFAULT_PACE = 32
SOLVE_EXACTSEP_PACE = 36
PARTITION_PACE = 8
CUTS_PACE = 10

# Committed outputs of ``ckp cuts --verify`` for the first REFERENCE_COUNT
# tasks of REFERENCE_SEED, one digest per task, written by make_reference.py
# from the code the benchmark was defined on.
REFERENCE_SEED = 1
REFERENCE_COUNT = 300
REFERENCE_FILE = os.path.join(HERE, "reference", "cuts-verify-seed%d.json"
                              % REFERENCE_SEED)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    pace = 1  # tasks per second of --seconds

    def tasks(self, seconds):
        """How many tasks a run of ``seconds`` measures."""
        return max(1, round(self.pace * seconds))


class SolveWorkload(Workload):
    """One ``branch_and_cut`` call per task on a prebuilt instance."""

    def __init__(self, name, shapes, max_weight, pace, exact_fallback):
        self.name = name
        self.shapes = shapes
        self.max_weight = max_weight
        self.pace = pace
        self.exact_fallback = exact_fallback

    def build(self, ck, seed, count):
        self.config = ck.solver.SolveConfig(exact_fallback=self.exact_fallback)
        return [(ck.model.Instance.build(groups, capacity), groups, capacity)
                for groups, capacity in corpus.instance_stream(
                    random.Random(seed), self.shapes, self.max_weight,
                    count)]

    def stage(self, tasks, workdir):
        return tasks

    def run(self, ck, task):
        return ck.solver.branch_and_cut(task[0], self.config)

    def reference(self, task):
        _, groups, capacity = task
        return reference.max_over_S([g[0] for g in groups],
                                    [g[1] for g in groups], capacity)

    def check(self, task, out, expected):
        _, groups, capacity = task
        if not out.proven_optimal:
            return "not proven optimal"
        if out.value != out.best_bound:
            return "value %s differs from bound %s" % (out.value, out.best_bound)
        if out.value != expected:
            return "value %s, reference maximum %s" % (out.value, expected)
        entries = [(ref.group, ref.slot, x) for ref, x in out.point.entries]
        problems = reference.point_problems(
            [g[0] for g in groups], [g[1] for g in groups], capacity,
            entries, out.value)
        return "; ".join(problems) or None

    def fingerprint(self, out):
        return "%d:%d:%s" % (out.nodes, out.lp_pivots, ",".join(
            str(n) for _, n in sorted(out.cuts_per_family.items())))

    def corrupt(self, out):
        return _Replaced(out, value=out.value + 1)


class PartitionWorkload(Workload):
    """Per task: build the partition reduction, then exact lifted-cover
    separation and greedy separation at its point."""

    name = "sep-partition"
    ks = (5, 6, 7)
    max_alpha = 8
    pace = PARTITION_PACE

    def build(self, ck, seed, count):
        return corpus.partition_stream(random.Random(seed), self.ks,
                                       self.max_alpha, count)

    def stage(self, tasks, workdir):
        return tasks

    def run(self, ck, task):
        instance, point = ck.separation.build_partition_reduction(*task)
        exact = ck.separation.separate_exact(instance, point,
                                             ("lcover1", "lcover2"))
        greedy = ck.separation.separate_greedy(instance, point)
        return exact, greedy

    def reference(self, task):
        return reference.has_partition(*task)

    def check(self, task, out, expected):
        weights, capacity, point = reference.partition_instance(*task)
        exact, greedy = out
        if exact.found != expected:
            return "exact separation found=%s, subset sum says %s" % (
                exact.found, expected)
        if exact.found:
            if exact.cut.family != "lcover1":
                return "exact cut is %s, not lcover1" % exact.cut.family
            if exact.violation != Fraction(1, 2):
                return "exact violation %s, not 1/2" % exact.violation
        for label, result in (("exact", exact), ("greedy", greedy)):
            if result.found:
                problem = _cut_problem(weights, capacity, point,
                                       result.cut.inequality, result.violation)
                if problem:
                    return "%s cut: %s" % (label, problem)
        return None

    def fingerprint(self, out):
        exact, greedy = out
        return "%d:%d:%d:%d" % (exact.found, exact.stats.examined,
                                greedy.found, greedy.stats.examined)

    def corrupt(self, out):
        exact, greedy = out
        flipped = _Replaced(exact, found=not exact.found)
        return flipped, greedy


class CutsVerifyWorkload(Workload):
    """One ``ckp cuts <file> --family all --verify`` invocation per task,
    through ``ckp.cli.main`` with standard output captured."""

    name = "cuts-verify"
    # Shapes of about equal cost per task, so the median task does not sit
    # in a gap between clusters of cheap and dear shapes.
    shapes = ((1, 2, 4), (1, 3, 3), (1, 1, 2, 2), (1, 1, 1, 3))
    max_weight = 20
    pace = CUTS_PACE

    def build(self, ck, seed, count):
        self.committed = []
        if seed == REFERENCE_SEED:
            with open(REFERENCE_FILE, encoding="utf-8") as handle:
                self.committed = json.load(handle)["digests"]
        tasks = []
        for n, (groups, capacity) in enumerate(corpus.instance_stream(
                random.Random(seed), self.shapes, self.max_weight, count)):
            instance = ck.model.Instance.build(groups, capacity)
            tasks.append((n, ck.fileio.serialize_instance(instance), groups,
                          capacity))
        return tasks

    def stage(self, tasks, workdir):
        """Write each serialized instance to a file for the CLI to read."""
        staged = []
        for n, text, groups, capacity in tasks:
            path = os.path.join(workdir, "t%04d.ckp" % n)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            staged.append((n, path, groups, capacity))
        return staged

    def run(self, ck, task):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = ck.cli.main(["cuts", task[1], "--family", "all", "--verify"])
        return code, buffer.getvalue()

    def reference(self, task):
        """The committed output digest when there is one, and the cuts the
        families' definitions say must be printed."""
        n, _, groups, capacity = task
        committed = self.committed[n] if n < len(self.committed) else None
        return committed, reference.cut_headers([g[0] for g in groups],
                                                capacity)

    def check(self, task, out, expected):
        _, _, groups, capacity = task
        committed, headers = expected
        code, text = out
        if code != 0:
            return "exit code %d" % code
        if committed is not None and digest(text) != committed:
            return "output differs from the committed output"
        try:
            cuts = reference.parse_cuts_output(text)
        except ValueError as exc:
            return str(exc)
        printed = sorted(cut[0] for cut in cuts)
        if printed != headers:
            return "printed %d cuts, the definitions give %d; first "\
                   "difference %s" % (len(printed), len(headers), next(
                       (a, b) for a, b in zip(printed + [None], headers + [None])
                       if a != b))
        weights = [g[0] for g in groups]
        points = reference.candidate_points(weights, capacity)
        facet_dim = sum(len(w) for w in weights) - 1
        for header, facet, terms, rhs in cuts:
            best = reference.max_over_S(
                weights, reference.dense_objective(weights, terms), capacity)
            if best > rhs:
                return "printed cut is invalid: max %s > rhs %s" % (best, rhs)
            dim = reference.face_dimension(weights, points, terms, rhs)
            if facet != (dim == facet_dim):
                return "%s: facet claimed %s, face dimension %d of %d" % (
                    header, "yes" if facet else "no", dim, facet_dim + 1)
        return None

    def fingerprint(self, out):
        code, text = out
        return "%d:%d:%s" % (code, text.count("# family: "), digest(text))

    def corrupt(self, out):
        code, text = out
        lines = text.split("\n")
        for k, line in enumerate(lines):
            if line.startswith("rhs "):
                lines[k] = "rhs -1"  # no cut with a negative rhs is valid
                return code, "\n".join(lines)
        return code, "garbage\n"


def _cut_problem(weights, capacity, point, inequality, violation):
    """Why a separated cut is wrong at the reduction's point, or None."""
    terms = {(ref.group, ref.slot): c for ref, c in inequality.terms}
    lhs = sum((c * point.get(key, 0) for key, c in terms.items()), Fraction(0))
    if lhs - inequality.rhs != violation or violation <= 0:
        return "reported violation %s, recomputed %s" % (
            violation, lhs - inequality.rhs)
    best = reference.max_over_S(
        weights, reference.dense_objective(weights, terms), capacity)
    if best > inequality.rhs:
        return "invalid: max %s > rhs %s" % (best, inequality.rhs)
    return None


class _Replaced:
    """A result object with some attributes replaced (the self-check)."""

    def __init__(self, inner, **changes):
        self._inner = inner
        self.__dict__.update(changes)

    def __getattr__(self, name):
        return getattr(self._inner, name)


WORKLOADS = {
    "solve-default": SolveWorkload(
        "solve-default",
        shapes=((4, 4), (1, 3, 4), (3, 3, 3), (1, 2, 3, 3), (2, 2, 2, 2, 2)),
        max_weight=100, pace=SOLVE_DEFAULT_PACE, exact_fallback=False),
    "solve-exactsep": SolveWorkload(
        "solve-exactsep",
        shapes=((3, 3), (1, 2, 4), (2, 2, 2), (1, 1, 2, 3)),
        max_weight=20, pace=SOLVE_EXACTSEP_PACE, exact_fallback=True),
    "sep-partition": PartitionWorkload(),
    "cuts-verify": CutsVerifyWorkload(),
}
