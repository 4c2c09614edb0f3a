"""Bit-equality hashes and deterministic counters of the benchmark workloads.

    python3 tools/bit_hashes.py --seed 11

Runs the `perfbench/workloads.py` workloads for the checkout this file sits
in, with BLAS on one thread. It first prints `openblas_core`, the kernel
name that numpy's bundled OpenBLAS picked (`unknown` where numpy has no
such library); it follows `OPENBLAS_CORETYPE`. Then it sets up each
workload once and prints its counter line, then its hash lines.

Counters, measured on one window right after set-up. A first pass, not
reported, builds what the forward caches. They depend only on the tree and
the seed, not on the machine's load, so they show where a change in the
workloads' peak RSS comes from.

* train workloads: the first W steps as a training sample (whitened with
  the seed), run the way a training step runs it: forward and layer-wise
  loss on a fresh tape, then backward. `tape_records` counts the records
  on the tape when backward starts, the root included; `backward_start_mb`
  is the bytes `tracemalloc` counts alive at that point, allocated since
  the forward began (parameters and data excluded); `peak_mb` is the
  `tracemalloc` peak over the forward and the backward.
* `spin-impute-block`: `forward_peak_mb`, the `tracemalloc` peak of one
  no-grad `spin_forward` over the first window, the one its set-up runs.

Hashes, of one job of each workload:

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
kernel, so compare hashes from one machine only.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import json
import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def openblas_core():
    """The kernel name of numpy's bundled OpenBLAS, or 'unknown'."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def window_tape(workload, seed):
    """(records, bytes alive at backward start, peak bytes) of one window."""
    import numpy as np

    from graphfill import tensor as T
    from graphfill.train import _whitened, forward_fn, spin_loss

    sample = _whitened(workload.dataset.window(0, workload.spec.width),
                       np.random.default_rng(seed))
    fwd = forward_fn(workload.params)
    for p in workload.params.parameters():
        p.grad = None
    gc.collect()
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            term = spin_loss(fwd(sample, workload.graph, workload.params),
                             sample.values, sample.eval_mask)
            root = T.div(term, float(workload.spec.batch_size))
            records = len(tape.records)
            alive = tracemalloc.get_traced_memory()[0]
            T.backward(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return records, alive, peak


def forward_peak(workload):
    """tracemalloc peak bytes of one no-grad forward over the first window."""
    import numpy as np

    from graphfill import tensor as T
    from graphfill.data import SpatioTemporalWindow
    from graphfill.spin import spin_forward

    w, mask = workload.spec.width, workload.mask[:workload.spec.width]
    win = SpatioTemporalWindow(values=np.where(mask, workload.truth[:w], 0.0),
                               mask=mask, eval_mask=np.zeros_like(mask),
                               step_offsets=np.arange(w, dtype=np.float64))
    gc.collect()
    tracemalloc.start()
    try:
        with T.no_grad():
            spin_forward(win, workload.graph, workload.params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    print(f"openblas_core {openblas_core()}")
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            workload = make_workload(name, args.seed, workdir)
            workload.setup()
            train = isinstance(workload, TrainWorkload)
            if train:
                window_tape(workload, args.seed)  # builds the forward's caches
                records, alive, peak = window_tape(workload, args.seed)
                print(f"{name} tape_records {records} backward_start_mb "
                      f"{alive / 1e6:.1f} peak_mb {peak / 1e6:.1f}")
            else:
                forward_peak(workload)  # builds the forward's caches
                print(f"{name} forward_peak_mb {forward_peak(workload) / 1e6:.1f}")
            stamps = Stamps()
            stamps.install()
            try:  # the impute command's own report goes to stderr
                with contextlib.redirect_stdout(sys.stderr):
                    job = workload.job(stamps, contextlib.nullcontext())
            finally:
                stamps.restore()
            if train:
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
