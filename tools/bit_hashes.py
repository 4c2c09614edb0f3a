"""Bit-equality hashes of the benchmark workloads' outputs.

    python3 tools/bit_hashes.py --seed 11

Runs one job of each `perfbench/workloads.py` workload, for the checkout
this file sits in, with BLAS on one thread, and prints one line per hash:

* train workloads: `params`, sha256 over each parameter's name, then its
  bytes, in `named_parameters` order; `history`, sha256 of the `repr` of
  the history rows;
* `spin-impute-block`: `imputed.csv`, sha256 of the file's bytes.

It then runs synth -> inject (block) -> train -> evaluate -> impute through
`graphfill.cli.main` on a 200x7 series, for spin and spin-h, each with and
without `train.subsample`, and prints the sha256 of each run's
`history.csv`, `checkpoint.json`, `metrics.json` and `imputed.csv`.

Each hash is cut to its first 16 hex digits. Two checkouts whose lines are
equal produce the same bits. The bits depend on the CPU and the BLAS
build, so compare hashes from one machine only; this is not a CI check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
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


CLI_ARTIFACTS = ("history.csv", "checkpoint.json", "metrics.json",
                 "imputed.csv")


def cli_runs(workdir, seed):
    """(run name, artifact, hash) of each CLI pipeline run, in order."""
    from graphfill.cli import main

    def write(name, doc):
        path = os.path.join(workdir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    synth_dir = os.path.join(workdir, "synth")
    if main(["synth", "--config", write("synth.json", {
            "synth": {"n_nodes": 7, "n_steps": 200, "seed": seed},
            "output": {"dir": synth_dir}})]) != 0:
        raise SystemExit("graphfill synth failed")
    with open(os.path.join(synth_dir, "synth_summary.json")) as f:
        summary = json.load(f)
    for variant in ("spin", "spin-h"):
        for subsample in (None, {"n_seeds": 3, "k_hops": 1}):
            name = f"cli-{variant}" + ("-subsample" if subsample else "")
            out = os.path.join(workdir, name)
            train = {"epochs_max": 3, "batches_per_epoch": 2, "batch_size": 3,
                     "patience": 3, "seed": seed, "lr": 0.01}
            if subsample:
                train["subsample"] = subsample
            config = write(f"{name}.json", {
                "data": {"values_csv": os.path.join(synth_dir, "values.csv"),
                         "distances_csv": os.path.join(synth_dir,
                                                       "distances.csv"),
                         "gamma": summary["suggested_gamma"],
                         "delta": summary["suggested_delta"], "W": 8},
                "model": {"variant": variant, "L": 2, "eta": 1, "d_h": 8,
                          "hidden": 8, "hubs": {"K": 2, "d_z": 8},
                          "encoding": {"periods": [24.0], "d_v": 4, "d_q": 6}},
                "train": train,
                "inject": {"policy": "block", "seed": seed,
                           "params": {"failure_prob": 0.01, "len_min": 4,
                                      "len_max": 16}},
                "output": {"dir": out}})
            for command in ("inject", "train", "evaluate", "impute"):
                if main([command, "--config", config]) != 0:
                    raise SystemExit(f"{name}: graphfill {command} failed")
            for artifact in CLI_ARTIFACTS:
                with open(os.path.join(out, artifact), "rb") as f:
                    yield name, artifact, digest(f.read())


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
        with contextlib.redirect_stdout(sys.stderr):  # the commands' reports
            runs = list(cli_runs(workdir, args.seed))
        for name, artifact, hashed in runs:
            print(f"{name} {artifact} {hashed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
