"""The three benchmark workloads: inputs, set-up, one timed job, checks.

All of them use the sensor layout of the package's criterion-7 experiment
(`synth_series(n_nodes=20, seed=7)`, Gaussian kernel: N=20, E=52). The
workload seed picks the missing-data pattern; everything else is fixed, so
the same seed gives the same inputs and the same outputs.

A job is a fixed amount of work that the benchmark repeats while its time
lasts: a `graphfill.train.train` call of a fixed number of optimizer steps
for the train workloads, one in-process `graphfill impute` command for the
impute workload. The program is always entered through those two entry
points, looked up at call time so that the tracer's hooks see every call.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import graphfill.cli
import graphfill.train
from graphfill import tensor as T
from graphfill.checkpoint import save_params
from graphfill.config import build_params, load_run_config
from graphfill.data import (Dataset, SpatioTemporalWindow, inject_block_missing,
                            inject_point_missing, normalize, split_slices)
from graphfill.graph import build_adjacency_gaussian
from graphfill.spin import SpinParameters, spin_forward
from graphfill.spin_h import SpinHParameters, spinh_forward
from graphfill.synth import synth_series

N_NODES = 20
LAYOUT_SEED = 7      # the criterion-7 sensor layout
PARAM_SEED = 5       # initial (untrained) parameters
TRAINER_SEED = 3     # batch draws and self-supervision masks
POINT_RATE = 0.25    # point-missing share on the train workloads
BLOCK = {"failure_prob": 0.0015, "len_min": 12, "len_max": 48,
         "point_rate": 0.05}

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Relative tolerance on a recorded output: wide enough for a change of
# summation order over a few optimizer steps, far below any real defect.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class TrainSpec:
    variant: str
    width: int
    batch_size: int
    epochs: int
    batches_per_epoch: int
    n_steps: int = 2000


@dataclass(frozen=True)
class ImputeSpec:
    width: int
    n_steps: int


WORKLOADS = {
    # Headline training shape; stacked-batch path (spin_forward_batch).
    "spin-train-w24": TrainSpec("spin", width=24, batch_size=8, epochs=2,
                                batches_per_epoch=5),
    # Long windows: hub attention, window-by-window, never spin's plans.
    "spinh-train-w96": TrainSpec("spin-h", width=96, batch_size=4, epochs=2,
                                 batches_per_epoch=4),
    # Forward only, tape off; block failures give ragged and empty sets.
    "spin-impute-block": ImputeSpec(width=24, n_steps=4824),
}


def check_reference(checks, workload, seed, got):
    """Compare an output MAE with the value recorded for this seed, if any."""
    with open(REFERENCE_PATH) as f:
        doc = json.load(f)
    reference = doc["workloads"].get(workload, {}).get(str(seed))
    if reference is not None:
        checks.expect(abs(got - reference) <= REFERENCE_RTOL * abs(reference),
                      f"mae {got!r} differs from the recorded {reference!r}")
    return reference


class Checks:
    """Correctness checks; every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def check_pairs(checks, variant, pairs_per_layer, w, n, e, k, where):
    """Open layers match the closed forms; masked layers never exceed them.

    spin: (N+E)·W² pairs per open layer. spin-h: N·W·K hub pairs plus
    (N+E)·W·K hub-read pairs.
    """
    if variant == "spin":
        closed = {"self": n * w * w, "cross": e * w * w}
    else:
        closed = {"hub": n * w * k, "self": n * w * k, "cross": e * w * k}
    bad = []
    for layer, pairs in enumerate(pairs_per_layer):
        for branch, expected in closed.items():
            got = pairs[branch]
            if got > expected or (not pairs["masked"] and got != expected):
                bad.append(f"layer {layer} {branch}: {got} vs {expected}")
    return checks.expect(not bad, f"{where}: pair counts {'; '.join(bad)}")


class TrainWorkload:
    unit = "step"

    def __init__(self, name, spec: TrainSpec, seed):
        self.name, self.spec, self.seed = name, spec, seed

    @property
    def shape(self):
        k = self.params.n_hubs if self.spec.variant == "spin-h" else 0
        return (self.spec.width, N_NODES, self.graph.n_edges, k)

    def setup(self):
        spec = self.spec
        series = synth_series(n_nodes=N_NODES, n_steps=spec.n_steps,
                              seed=LAYOUT_SEED)
        self.graph = build_adjacency_gaussian(series.distances, series.gamma,
                                              series.delta)
        full = np.ones(series.values.shape, dtype=np.uint8)
        mask, dropped = inject_point_missing(full, rate=POINT_RATE,
                                             rng=self.seed)
        dataset = Dataset(values=series.values, mask=mask, eval_mask=dropped,
                          timestamps=np.arange(spec.n_steps, dtype=np.float64))
        self.dataset, _ = normalize(dataset, split_slices(spec.n_steps)[0])
        rng = np.random.default_rng(PARAM_SEED)
        self.params = (SpinParameters(n_nodes=N_NODES, rng=rng)
                       if spec.variant == "spin"
                       else SpinHParameters(n_nodes=N_NODES, rng=rng))
        self.initial = [p.data.copy() for p in self.params.parameters()]
        self.config = graphfill.train.TrainConfig(
            epochs_max=spec.epochs, batches_per_epoch=spec.batches_per_epoch,
            batch_size=spec.batch_size, patience=spec.epochs,
            seed=TRAINER_SEED, width=spec.width, stride=spec.width)
        # Warm-up: one optimizer step on an 11·W-step prefix, whose
        # validation split is a single window, so set-up time is the step.
        warm_up = graphfill.train.TrainConfig(
            epochs_max=1, batches_per_epoch=1, batch_size=spec.batch_size,
            patience=1, seed=TRAINER_SEED, width=spec.width, stride=spec.width)
        head = slice(0, 11 * spec.width)
        prefix = dataclasses.replace(
            self.dataset, values=self.dataset.values[head],
            mask=self.dataset.mask[head],
            eval_mask=self.dataset.eval_mask[head],
            timestamps=self.dataset.timestamps[head])
        graphfill.train.train(prefix, self.graph, warm_up, self.params)
        self._reset()

    def _reset(self):
        for p, data in zip(self.params.parameters(), self.initial):
            p.data = data.copy()
            p.grad = None

    def job(self, stamps, scope):
        """One fixed training run from the same initial parameters."""
        self._reset()
        with scope:
            t0 = time.perf_counter()
            _, history, _ = graphfill.train.train(self.dataset, self.graph,
                                                  self.config, self.params,
                                                  progress=stamps.progress)
            seconds = time.perf_counter() - t0
        return {"seconds": seconds, "op_seconds": stamps.step_seconds(t0),
                "epochs": sum(1 for _, kind in stamps.events if kind == "epoch"),
                "output": history, "quality": history[-1]["val_mae"]}

    def windows_drawn(self, job):
        return job["epochs"] * self.spec.batches_per_epoch * self.spec.batch_size

    def check(self, checks, jobs):
        first = jobs[0]["output"]
        finite = all(math.isfinite(row["train_loss"])
                     and math.isfinite(row["val_mae"])
                     for job in jobs for row in job["output"])
        checks.expect(finite, "non-finite training loss or validation MAE")
        checks.expect(all(job["output"] == first for job in jobs[1:]),
                      "repeated training runs differ")
        reference = check_reference(checks, self.name, self.seed,
                                    jobs[0]["quality"])
        # Closed-form pair counts on one whitened training window.
        spec, ds = self.spec, self.dataset
        win = SpatioTemporalWindow(values=ds.values[:spec.width],
                                   mask=ds.mask[:spec.width],
                                   eval_mask=ds.eval_mask[:spec.width],
                                   step_offsets=ds.timestamps[:spec.width])
        input_mask, _ = graphfill.train.training_whiten(
            win, rng=np.random.default_rng(self.seed))
        fwd = spin_forward if spec.variant == "spin" else spinh_forward
        with T.no_grad():
            out = fwd(win, self.graph, self.params, input_mask=input_mask)
        check_pairs(checks, spec.variant, out.pairs_per_layer, *self.shape,
                    where="training window")
        return reference


class ImputeWorkload:
    unit = "window"

    def __init__(self, name, spec: ImputeSpec, seed, workdir):
        self.name, self.spec, self.seed = name, spec, seed
        self.workdir = workdir
        self.values_csv = os.path.join(workdir, "values.csv")
        self.distances_csv = os.path.join(workdir, "distances.csv")
        self.config_json = os.path.join(workdir, "impute.json")
        self.checkpoint = os.path.join(workdir, "checkpoint.json")
        self.out_dir = os.path.join(workdir, "out")

    @property
    def shape(self):
        return (self.spec.width, N_NODES, self.graph.n_edges, 0)

    def setup(self):
        spec = self.spec
        series = synth_series(n_nodes=N_NODES, n_steps=spec.n_steps,
                              seed=LAYOUT_SEED)
        self.graph = build_adjacency_gaussian(series.distances, series.gamma,
                                              series.delta)
        full = np.ones(series.values.shape, dtype=np.uint8)
        self.mask, _ = inject_block_missing(full, rng=self.seed, **BLOCK)
        self.truth = series.values
        os.makedirs(self.workdir, exist_ok=True)
        _write_values(self.values_csv, series.values, self.mask)
        _write_values(self.distances_csv, series.distances, None)
        config = {
            "data": {"values_csv": self.values_csv,
                     "distances_csv": self.distances_csv,
                     "gamma": series.gamma, "delta": series.delta,
                     "W": spec.width, "stride": spec.width},
            "model": {"variant": "spin"},
            "train": {"seed": PARAM_SEED},
            "inject": {"policy": "none"},
            "output": {"dir": self.out_dir},
        }
        with open(self.config_json, "w") as f:
            json.dump(config, f)
        params = build_params(load_run_config(self.config_json).model,
                              N_NODES, PARAM_SEED)
        save_params(self.checkpoint, params.named_parameters())
        self.params = params
        w = spec.width
        win = SpatioTemporalWindow(values=np.where(self.mask[:w], series.values[:w], 0.0),
                                   mask=self.mask[:w],
                                   eval_mask=np.zeros_like(self.mask[:w]),
                                   step_offsets=np.arange(w, dtype=np.float64))
        with T.no_grad():
            spin_forward(win, self.graph, params)

    def job(self, stamps, scope):
        """One in-process `graphfill impute` over the whole series."""
        argv = ["impute", "--config", self.config_json,
                "--checkpoint", self.checkpoint]
        with scope:
            t0 = time.perf_counter()
            code = graphfill.cli.main(argv)
            seconds = time.perf_counter() - t0
        imputed_path = os.path.join(self.out_dir, "imputed.csv")
        with open(imputed_path, "rb") as f:
            raw = f.read()
        imputed = _read_values(imputed_path)
        return {"seconds": seconds, "exit_code": code,
                "op_seconds": [s for s, _ in stamps.windows],
                "pairs": [p for _, p in stamps.windows],
                "digest": hashlib.sha256(raw).hexdigest(),
                "output": imputed, "quality": self._mae(imputed)}

    def _mae(self, imputed):
        """Imputation MAE on the hidden cells, in training-split std units."""
        train_rows = split_slices(self.spec.n_steps)[0]
        observed = self.truth[train_rows][self.mask[train_rows] == 1]
        hidden = self.mask == 0
        err = np.abs(imputed[hidden] - self.truth[hidden]).mean()
        return float(err / observed.std())

    def check(self, checks, jobs):
        checks.expect(all(job["exit_code"] == 0 for job in jobs),
                      "graphfill impute exited non-zero")
        imputed = jobs[0]["output"]
        if not checks.expect(imputed.shape == self.truth.shape,
                             f"imputed.csv has shape {imputed.shape}"):
            return None
        checks.expect(bool(np.all(np.isfinite(imputed))),
                      "imputed.csv has non-finite cells")
        observed = self.mask == 1
        same = np.array_equal(imputed[observed].view(np.uint64),
                              self.truth[observed].view(np.uint64))
        checks.expect(same, "observed cells of imputed.csv differ from values.csv")
        checks.expect(all(job["digest"] == jobs[0]["digest"] for job in jobs),
                      "repeated imputations differ")
        n_windows = math.ceil(self.spec.n_steps / self.spec.width)
        for k, job in enumerate(jobs):
            checks.expect(len(job["pairs"]) == n_windows,
                          f"job {k}: {len(job['pairs'])} window forwards, "
                          f"expected {n_windows}")
            bad = Checks()
            for pairs in job["pairs"]:
                check_pairs(bad, "spin", pairs, *self.shape, where="window")
            checks.expect(not bad.failures,
                          f"job {k}: {len(bad.failures)} windows break the "
                          f"pair closed forms: {bad.failures[:1]}")
        return check_reference(checks, self.name, self.seed, jobs[0]["quality"])


def _write_values(path, values, mask):
    """A values grid with `repr` floats (exact round trip); blank = missing."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if mask is not None:
            writer.writerow([f"s{i:02d}" for i in range(values.shape[1])])
        for t, row in enumerate(values):
            writer.writerow([repr(float(x)) if mask is None or mask[t, i] else ""
                             for i, x in enumerate(row)])


def _read_values(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return np.array([[float(x) for x in row] for row in rows if row],
                    dtype=np.float64)


def make_workload(name, seed, workdir):
    """The named workload; only the impute workload writes to `workdir`."""
    spec = WORKLOADS[name]
    if isinstance(spec, TrainSpec):
        return TrainWorkload(name, spec, seed)
    return ImputeWorkload(name, spec, seed, workdir)
