"""Record the reference outputs that run.py checks each run against.

    python3 perfbench/record_reference.py --seeds 0-19

For every workload and seed this runs set-up and one job, and stores the
job's output MAE (last-epoch validation MAE for the train workloads,
imputation MAE for the impute workload) in perfbench/reference.json.
Record only from a commit whose outputs are known to be right, and again
whenever a workload's definition changes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

from run import OUT, SRC, pin_blas_threads


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19")
    args = parser.parse_args()
    pin_blas_threads()
    sys.path.insert(0, SRC)
    from tracer import Stamps
    from workloads import REFERENCE_PATH, WORKLOADS, make_workload

    with open(REFERENCE_PATH) as f:
        doc = json.load(f)
    for name in WORKLOADS:
        table = doc["workloads"].setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            workdir = os.path.join(OUT, "work", f"record-{name}-{seed}")
            workload = make_workload(name, seed, workdir)
            try:
                workload.setup()
                table[str(seed)] = workload.job(Stamps(), contextlib.nullcontext())["quality"]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: {table[str(seed)]!r}", flush=True)
            with open(REFERENCE_PATH, "w") as f:
                json.dump(doc, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
