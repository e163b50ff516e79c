"""Smoke test of the benchmark's interface to the package.

Runs the first tasks of seed 1 of every workload in ``bench/`` through
``run.run_tasks`` and ``run.check_results``, traced, so a change to
anything the benchmark reads (a function, attribute or option of ckp, or
the ``ckp cuts --verify`` output it compares with committed digests)
fails here and not only in a benchmark run.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TASKS = 4


def package():
    """The ``ck`` namespace that ``run.import_ckp`` builds, made from the
    modules already imported: re-importing ckp would give the other tests'
    modules a second copy of each class."""
    return types.SimpleNamespace(**{name: importlib.import_module("ckp." + name)
                                    for name in run.MODULES})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks(name, tmp_path):
    ck = package()
    wl = workloads.WORKLOADS[name]
    tasks = wl.stage(wl.build(ck, 1, TASKS), str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install(ck)
    try:
        results, _ = run.run_tasks(ck, wl, tasks, guard_s=60, tracer=tracer)
    finally:
        tracer.restore()
    failures, fingerprints, self_check = run.check_results(wl, tasks, results)
    assert failures == {}
    assert len(fingerprints) == TASKS
    assert self_check is True
    assert tracing.layer_metrics(tracer.spans)["trace.spans"][0] > 0
