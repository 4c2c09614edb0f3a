"""Bit-equality hashes of the benchmark workloads' outputs.

    python3 tools/bit_hashes.py --seed 11

Runs one job of each `perfbench/workloads.py` workload, for the checkout
this file sits in, with BLAS on one thread, and prints one line per hash:

* train workloads: `params`, sha256 over each parameter's name, then its
  bytes, in `named_parameters` order; `history`, sha256 of the `repr` of
  the history rows;
* `spin-impute-block`: `imputed.csv`, sha256 of the file's bytes.

Each hash is cut to its first 16 hex digits. Two checkouts whose lines are
equal produce the same bits. The bits depend on the CPU and the BLAS
build, so compare hashes from one machine only; this is not a CI check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def param_digest(params) -> str:
    h = hashlib.sha256()
    for name, p in params.named_parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    from run import pin_blas_threads
    pin_blas_threads()  # before numpy loads
    from tracer import Stamps
    from workloads import WORKLOADS, TrainWorkload, make_workload

    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            workload = make_workload(name, args.seed, workdir)
            workload.setup()
            stamps = Stamps()
            stamps.install()
            try:  # the impute command's own report goes to stderr
                with contextlib.redirect_stdout(sys.stderr):
                    job = workload.job(stamps, contextlib.nullcontext())
            finally:
                stamps.restore()
            if isinstance(workload, TrainWorkload):
                print(f"{name} params {param_digest(workload.params)}")
                print(f"{name} history {digest(repr(job['output']).encode())}")
            else:
                print(f"{name} imputed.csv {job['digest'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
