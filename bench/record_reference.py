#!/usr/bin/env python3
"""Record the gate's reference outputs at the current commit.

Runs every workload once in-process for each of the ``workloads.POOL``
corpus seeds and writes the key outputs that have no closed form to
``reference.json``, with the commit they were recorded at. A workload whose
outputs all have closed forms gets no section. Re-record only
when a change is meant to move these values, and say so in the change.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads as wl


def main() -> int:
    os.environ.update({v: "1" for v in run.THREAD_VARS})
    sys.path.insert(0, run.SRC)
    import lplab.cli

    run.check_package(lplab.__file__)
    records = {}
    os.makedirs(run.SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH)
    try:
        for w in wl.WORKLOADS.values():
            records[w.name] = {}
            for seed in range(wl.POOL):
                steps = w.steps(seed, tempfile.mkdtemp(dir=work))
                result = run.inprocess_run(steps, lplab.cli.main)
                if any(result["codes"]):
                    raise SystemExit(f"{w.name} seed {seed}: exit codes {result['codes']}")
                records[w.name][str(seed)] = [
                    {k: v for k, v in step.observe().items() if k not in analytic}
                    for step, analytic in zip(steps, w.analytic)]
                print(w.name, seed, records[w.name][str(seed)], flush=True)
                if not any(records[w.name][str(seed)]):
                    del records[w.name]  # nothing to record: closed forms only
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"commit": run.git("rev-parse", "HEAD"), "src_sha256": run.source_digest(),
               "workloads": records}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
