"""Write the committed reference outputs for the cuts-verify workload.

    python3 bench/make_reference.py

Runs the first ``REFERENCE_COUNT`` tasks of the cuts-verify corpus for the
reference seed and stores one digest of standard output per task in the
reference file.  Run
it only on code whose ``ckp cuts --verify`` output is known to be right:
the benchmark then requires byte-identical output from every later
version on that seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    wl = workloads.WORKLOADS["cuts-verify"]
    ck = run.import_ckp()
    workdir = os.path.join(run.WORK, "reference-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        tasks = wl.stage(wl.build(ck, workloads.REFERENCE_SEED,
                                  workloads.REFERENCE_COUNT), workdir)
        digests = []
        for task in tasks:
            code, text = wl.run(ck, task)
            if code != 0:
                raise SystemExit("task %d exited with %d" % (task[0], code))
            digests.append(workloads.digest(text))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump({"seed": workloads.REFERENCE_SEED, "digests": digests},
                  handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
