"""Seeded benchmark for ckp: one workload, one seed, one timed run.

    python3 bench/run.py --workload solve-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``ckp`` is imported from its
``src`` directory and nowhere else.  The run sets up the workload's corpus
(several times, reporting the median), then makes one pass over it in
corpus order, one task at a time from one thread (a closed loop with a
single caller).  The corpus size follows from the workload and
``--seconds`` alone (see ``workloads.Workload.tasks``), so a faster or
slower program is measured on the same tasks; a pass that runs past
GUARD_FACTOR times ``--seconds`` is cut short and the report says so.
Every output is then checked against an independent reference, outside the
timed region.  With ``--trace 1`` the run times an untraced pass, repeats
the same tasks with every layer wrapped in spans, and reports per-layer
metrics.

Times are reported in reference seconds: each measured wall time is scaled
by the host's speed at that moment, read from a fixed calibration kernel
timed just before (see ``time_kernel``).  The raw wall-clock figures are in
the report and the result file.

A human-readable report comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct, and 2
when ``ckp`` cannot be imported from the checkout.  Result files, the span
trace and the count fingerprints of each seed, kept per version of the
sources (see ``source_hash``), go to ``bench/.out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from fractions import Fraction
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORK = os.path.join(HERE, ".work")
MODULES = ("cli", "cuts", "fileio", "model", "oracle", "separation",
           "simplex", "solver")
SETUP_REPEATS = 7
GUARD_FACTOR = 2.5  # a pass stops after this many times --seconds

# On shared machines the CPU's speed drifts by tens of percent within a
# second and by up to 2x between minutes, for every process alike: on the
# machine the benchmark was defined on, the kernel below took 0.3 to 0.7 ms
# and raw task throughput moved by 40% between runs of one seed.  A task's
# wall time divided by the kernel's time just before it stayed within a few
# percent, so times are reported as ``wall * REFERENCE_KERNEL_S / kernel``:
# seconds on a host where the kernel takes REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.0004
KERNEL_TERMS = tuple(Fraction(i % 97 + 1, i % 89 + 1) for i in range(1, 200))


def import_ckp():
    """Import ckp afresh from the checkout, as a namespace of its modules."""
    for name in [n for n in sys.modules if n == "ckp" or n.startswith("ckp.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    ck = types.SimpleNamespace(**{name: importlib.import_module("ckp." + name)
                                  for name in MODULES})
    if not os.path.abspath(ck.solver.__file__).startswith(SRC + os.sep):
        raise ImportError("ckp was not imported from %s" % SRC)
    return ck


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment():
    cpu = [line.split(":", 1)[1].strip()
           for line in _read("/proc/cpuinfo").splitlines()
           if line.startswith("model name")]
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu[0] if cpu else "unknown",
            "loadavg": _read("/proc/loadavg").split()[:3]}


def source_hash():
    """Digest of the Python version and of every source file of ckp and of
    the benchmark: count fingerprints are compared only between runs that
    share it, since a change to either may change the counts."""
    h = hashlib.sha256(platform.python_version().encode())
    for folder in (os.path.join(SRC, "ckp"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(folder, name), "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def time_kernel():
    """Seconds a fixed pure-Python Fraction sum takes now, collector off.

    It exercises the interpreter the way ckp does (Fraction and int
    arithmetic, no I/O) and does not depend on ckp, so a change to ckp
    cannot change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        sum(KERNEL_TERMS, Fraction(0))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_seconds(wall, kernel):
    return wall * REFERENCE_KERNEL_S / kernel


def run_tasks(ck, wl, tasks, guard_s, tracer=None):
    """Run the tasks once in corpus order, timing the calibration kernel
    before each one, and stop early only once ``guard_s`` have passed.

    Returns ``([(index, wall, kernel, output, error)], loop_wall)``.
    """
    results = []
    start = perf_counter()
    deadline = start + guard_s
    for i, task in enumerate(tasks):
        kernel = time_kernel()
        t0 = perf_counter()
        try:
            if tracer is None:
                out = wl.run(ck, task)
            else:
                out = tracer.run_task(i, wl.run, ck, task)
            error = None
        except Exception as exc:  # a failed task is counted, not fatal
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = perf_counter()
        results.append((i, t1 - t0, kernel, out, error))
        if t1 >= deadline:
            break
    return results, perf_counter() - start


def check_results(wl, tasks, results):
    """Check every output; returns ``(failures, fingerprints, self_check)``.

    ``failures`` maps task index to the problem found.  The self-check
    corrupts the first correct output and confirms the check rejects it.
    """
    failures = {}
    fingerprints = {}
    self_check = None
    for i, _, _, out, error in results:
        task = tasks[i]
        if error is not None:
            failures[i] = error
            continue
        expected = wl.reference(task)
        problem = wl.check(task, out, expected)
        if problem:
            failures[i] = problem
            continue
        fingerprints[i] = wl.fingerprint(out)
        if self_check is None:
            self_check = bool(wl.check(task, wl.corrupt(out), expected))
    return failures, fingerprints, self_check


def compare_fingerprints(path, fingerprints, failures):
    """Check counts against earlier runs of this seed with the same sources,
    then record them."""
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except FileNotFoundError:
        known = {}
    for i, fp in fingerprints.items():
        key = str(i)
        if known.setdefault(key, fp) != fp:
            failures[i] = ("count fingerprint %s differs from %s in an "
                           "earlier run of this seed" % (fp, known[key]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, sort_keys=True)


def fingerprint_digest(fingerprints, count):
    listed = [fingerprints.get(i, "-") for i in range(count)]
    return hashlib.sha256("\n".join(listed).encode()).hexdigest()[:16]


def percentile90(times):
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def end_to_end(results, setup, rss_kib):
    """The end-to-end metrics in reference seconds, from ``results``, the
    ``(wall, kernel)`` pairs of the set-up repetitions and the peak RSS."""
    times = [reference_seconds(wall, kernel)
             for _, wall, kernel, _, _ in results]
    return {"task_s.p50": (statistics.median(times), "s"),
            "task_s.p90": (percentile90(times), "s"),
            "tasks_per_s": (len(times) / sum(times), "1/s"),
            "setup_s": (statistics.median(
                reference_seconds(*rep) for rep in setup), "s"),
            "peak_rss_mib": (rss_kib / 1024, "MiB")}


def wall_clock(results, loop_wall, setup):
    """The same timings in raw wall seconds, for the report."""
    times = [wall for _, wall, _, _, _ in results]
    return {"wall.task_s.p50": statistics.median(times),
            "wall.task_s.p90": percentile90(times),
            "wall.tasks_per_s": len(times) / loop_wall,
            "wall.setup_s": statistics.median(wall for wall, _ in setup)}


def kernel_summary(kernels):
    return {"kernel_ms.median": 1000 * statistics.median(kernels),
            "kernel_ms.min": 1000 * min(kernels),
            "kernel_ms.max": 1000 * max(kernels)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    env_start = environment()
    count = wl.tasks(args.seconds)
    guard_s = GUARD_FACTOR * args.seconds
    tag = "%s-seed%d" % (wl.name, args.seed)
    workdir = os.path.join(WORK, "%s-%d" % (tag, os.getpid()))
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = []  # (wall, kernel) per repetition
        for _ in range(SETUP_REPEATS):
            tasks = None
            gc.collect()  # free the previous repetition's corpus untimed
            kernel = statistics.median(time_kernel() for _ in range(3))
            t0 = perf_counter()
            try:
                ck = import_ckp()
            except ImportError as exc:
                print("error: cannot import ckp from %s: %s" % (SRC, exc),
                      file=sys.stderr)
                return 2
            tasks = wl.build(ck, args.seed, count)
            setup.append((perf_counter() - t0, kernel))
        # Writing instance files is the harness's own I/O, not ckp's work,
        # and shared-disk latency would swamp set-up time, so it is untimed.
        tasks = wl.stage(tasks, workdir)

        gc.collect()
        results, wall = run_tasks(ck, wl, tasks, guard_s)
        # Before the checks, so that their allocations do not count.
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(ck)
            try:
                traced, _ = run_tasks(ck, wl, tasks[:len(results)], guard_s,
                                      tracer=tracer)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks_started = perf_counter()
    failures, fingerprints, self_check = check_results(wl, tasks, results)
    attempted = len(results)
    if args.trace:
        traced_failures, traced_fps, _ = check_results(wl, tasks, traced)
        per_task = tracing.task_counts(tracer.spans)
        for i, fp in traced_fps.items():
            if fp != fingerprints.get(i, fp):
                traced_failures[i] = "traced counts %s, untraced %s" % (
                    fp, fingerprints[i])
            traced_fps[i] = "%s:%d:%d" % (fp, *per_task[i])
        failures.update({"traced-%d" % i: problem
                         for i, problem in traced_failures.items()})
        fingerprints = traced_fps
        attempted += len(traced)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = (
            sum(reference_seconds(w, k) for _, w, k, _, _ in traced)
            / sum(reference_seconds(w, k)
                  for _, w, k, _, _ in results[:len(traced)]) - 1,
            "ratio")
        tracer.write_jsonl(os.path.join(OUT, "trace-%s.jsonl" % tag))
    else:
        metrics = end_to_end(results, setup, rss_kib)
    sources = source_hash()
    compare_fingerprints(
        os.path.join(OUT, "fingerprints-%s-trace%d-%s.json"
                     % (tag, args.trace, sources)),
        fingerprints, failures)

    correct = not failures and self_check is True
    check_s = perf_counter() - checks_started
    summary = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tasks": len(results), "corpus": count,
        "stopped_at_guard": len(results) < count, "sources": sources,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "self_check_detected_corruption": self_check,
        "fingerprint": fingerprint_digest(fingerprints, len(results)),
        "failures": {str(k): v for k, v in list(failures.items())[:20]},
        "wall_clock": wall_clock(results, wall, setup),
        "setup_wall_s_samples": [wall for wall, _ in setup],
        "check_s": check_s,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "environment": {"start": env_start, "end": environment(),
                        "calibration": kernel_summary(
                            [k for _, _, k, _, _ in results]
                            + [k for _, k in setup])},
    }
    with open(os.path.join(OUT, "result-%s-trace%d.json" % (tag, args.trace)),
              "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)

    print("workload %s  seed %d  seconds %g  trace %d  tasks %d of %d"
          % (wl.name, args.seed, args.seconds, args.trace, len(results),
             count))
    if len(results) < count:
        print("  the pass was stopped at %g s, before the corpus's end"
              % guard_s)
    for name, (value, unit) in metrics.items():
        samples = "   (n=%d)" % len(results) if name.startswith("task_s") else ""
        print("  %-44s %14.6g %s%s" % (name, value, unit, samples))
    for name, value in summary["wall_clock"].items():
        print("  %-44s %14.6g" % (name, value))
    print("  %-44s %14.6g   (%d of %d attempted)" % (
        "failed_frac", summary["failed_frac"], len(failures), attempted))
    print("  self-check caught a corrupted answer: %s" % self_check)
    print("  count fingerprint of the %d tasks: %s (sources %s)"
          % (len(results), summary["fingerprint"], sources))
    for key, problem in list(failures.items())[:5]:
        print("  FAILED task %s: %s" % (key, problem))
    for when in ("start", "end"):
        env = summary["environment"][when]
        print("  environment at %s: python %s, nproc %d, %s, load %s"
              % (when, env["python"], env["nproc"], env["cpu_model"],
                 " ".join(env["loadavg"])))
    print("  calibration kernel: %(kernel_ms.median).3f ms median, "
          "%(kernel_ms.min).3f to %(kernel_ms.max).3f ms"
          % summary["environment"]["calibration"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": summary["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
