"""In-memory span tracing around ckp's public functions.

A span is recorded at each wrapped call: an id, the id of the span that was
open when it started (0 for none), the task it belongs to, its name, start
and end times, the exception it raised if any, and counts read from its
arguments and result.  Spans stay in memory and are written out as JSON
lines when the run ends.

Functions are wrapped where callers look them up: a name that one module
imports from another with ``from ... import`` is a separate attribute of
the importing module, so ``ckp.solver.solve_lp`` is wrapped apart from
``ckp.simplex.solve_lp``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

FAMILIES = ("pack1", "pack2", "pack3", "lcover1", "lcover2")
CUT_BUILDERS = ("pack_inequality_1", "pack_inequality_2", "pack_inequality_3",
                "lifted_cover_inequality_1", "lifted_cover_inequality_2")


def _patterns(instance):
    count = 1
    for group in instance.groups:
        count *= group.size + 1
    return count


def _count_solve(args, result):
    counts = {"nodes": result.nodes}
    for family, n in result.cuts_per_family.items():
        counts["cuts." + family] = n
    return counts


def _count_lp(args, result):
    return {"pivots": result.pivots, "rows": len(args[0].rows)}


def _count_exact(args, result):
    return {"found": int(result.found), "examined": result.stats.examined,
            "patterns": _patterns(args[0])}


def _count_greedy(args, result):
    return {"found": int(result.found), "examined": result.stats.examined}


def _count_candidates(args, result):
    return {"candidates": len(result.points), "patterns": _patterns(args[0])}


def _count_maximize(args, result):
    return {"patterns": _patterns(args[0])}


# (module, attribute, span name, counter) for every wrapped lookup site.
PATCHES = [
    ("cli", "main", "cli.main", None),
    ("fileio", "parse_instance", "fileio.parse_instance", None),
    ("cli", "normalize", "model.normalize", None),
    ("model", "normalize", "model.normalize", None),
    ("solver", "branch_and_cut", "solver.branch_and_cut", _count_solve),
    ("solver", "solve_lp", "simplex.solve_lp", _count_lp),
    ("simplex", "solve_lp", "simplex.solve_lp", _count_lp),
    ("solver", "verify_certificate", "simplex.verify_certificate", None),
    ("simplex", "verify_certificate", "simplex.verify_certificate", None),
    ("solver", "separate_exact", "separation.separate_exact", _count_exact),
    ("separation", "separate_exact", "separation.separate_exact", _count_exact),
    ("solver", "separate_greedy", "separation.separate_greedy", _count_greedy),
    ("separation", "separate_greedy", "separation.separate_greedy",
     _count_greedy),
    ("oracle", "face_dimension", "oracle.face_dimension", None),
    ("oracle", "enumerate_candidate_vertices",
     "oracle.enumerate_candidate_vertices", _count_candidates),
    ("oracle", "check_validity", "oracle.check_validity", None),
    ("oracle", "maximize_over_S", "oracle.maximize_over_S", _count_maximize),
] + [("cuts", name, "cuts.build", None) for name in CUT_BUILDERS]

SPAN_NAMES = sorted({name for _, _, name, _ in PATCHES})


class Tracer:
    """Records spans while installed; ``restore`` removes every wrapper."""

    def __init__(self):
        self.spans = []   # (id, parent, task, name, start, end, error, counts)
        self.task = None
        self._stack = []
        self._undo = []
        self._ids = itertools.count(1)

    def install(self, ck):
        for module_name, attr, name, counter in PATCHES:
            module = getattr(ck, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, counter))
            self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack
        ids = self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                counts = (counter(args, result)
                          if counter is not None and error is None else None)
                spans.append((sid, parent, self.task, name, start, end,
                              error, counts))

        return traced

    def run_task(self, task_id, fn, *args):
        """Run one benchmark task inside a root span named ``task``."""
        self.task = task_id
        return self._wrap("task", fn, None)(*args)

    def write_jsonl(self, path):
        keys = ("id", "parent", "task", "name", "start", "end", "error",
                "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans):
    """Per-layer calls, self seconds, counts and ratios from the spans.

    Self time is a span's duration minus the durations of its direct child
    spans.  Ratios whose denominator is zero (the layer did not run on this
    workload) are reported as 0.
    """
    by_id = {span[0]: span for span in spans}
    child_time = defaultdict(float)
    for sid, parent, _, _, start, end, _, _ in spans:
        if parent:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    raised = Counter()
    failed = Counter()
    counts = defaultdict(Counter)
    solver_sep_calls = 0
    for sid, parent, _, name, start, end, error, span_counts in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        if error:
            raised[name] += 1
        if error == "PreconditionError":
            failed[name] += 1
        if span_counts:
            counts[name].update(span_counts)
        if (name.startswith("separation.") and parent
                and by_id[parent][3] == "solver.branch_and_cut"):
            solver_sep_calls += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
    solve = counts["solver.branch_and_cut"]
    added = sum(solve["cuts." + family] for family in FAMILIES)
    out["solver.nodes"] = (solve["nodes"], "count")
    out["solver.cuts_added"] = (added, "count")
    for family in FAMILIES:
        out["solver.cuts_added." + family] = (solve["cuts." + family], "count")
    out["solver.cut_yield"] = (ratio(added, solver_sep_calls), "ratio")
    lp = counts["simplex.solve_lp"]
    lp_calls = calls["simplex.solve_lp"]
    out["simplex.pivots"] = (lp["pivots"], "count")
    out["simplex.pivots_per_lp"] = (ratio(lp["pivots"], lp_calls), "count")
    out["simplex.rows_per_lp"] = (ratio(lp["rows"], lp_calls), "count")
    exact = counts["separation.separate_exact"]
    greedy = counts["separation.separate_greedy"]
    out["separation.separate_exact.found_ratio"] = (
        ratio(exact["found"], calls["separation.separate_exact"]), "ratio")
    out["separation.separate_greedy.found_ratio"] = (
        ratio(greedy["found"], calls["separation.separate_greedy"]), "ratio")
    out["separation.examined"] = (exact["examined"] + greedy["examined"],
                                  "count")
    out["separation.patterns"] = (exact["patterns"], "count")
    built = calls["cuts.build"]
    out["cuts.generated"] = (built - raised["cuts.build"], "count")
    out["cuts.precondition_failed_ratio"] = (
        ratio(failed["cuts.build"], built), "ratio")
    out["oracle.candidates"] = (
        counts["oracle.enumerate_candidate_vertices"]["candidates"], "count")
    out["oracle.patterns"] = (
        counts["oracle.enumerate_candidate_vertices"]["patterns"]
        + counts["oracle.maximize_over_S"]["patterns"], "count")
    out["trace.spans"] = (len(spans), "count")
    return out


def task_counts(spans):
    """Per-task LP calls and candidate vertices, for the count fingerprint."""
    out = defaultdict(lambda: [0, 0])
    for _, _, task, name, _, _, _, counts in spans:
        if name == "simplex.solve_lp":
            out[task][0] += 1
        elif name == "oracle.enumerate_candidate_vertices" and counts:
            out[task][1] += counts["candidates"]
    return out
