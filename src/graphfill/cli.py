"""Command-line entry point.

Subcommands: synth | inject | train | impute | evaluate | benchmark.
All behavior is driven by one JSON config (see config.py); the only
flags are the config path, an optional checkpoint path, and an optional
output-directory override. `main` writes a resolved-config snapshot into
the output directory after every successful command, so a run can be
replayed bit-exactly.

Exit codes: 0 success, 1 bad config or input, a metric that the input
leaves empty or non-finite, or a path that cannot be opened or created
(the file is named), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from . import tensor as T
from .checkpoint import load_params, save_params
from .config import InjectConfig, RunConfig, build_params, load_run_config
from .data import (Dataset, atomic_write, inject_block_missing,
                   inject_point_missing, inject_sparsity_sweep, load_dataset,
                   load_grid_csv, normalize, save_grid_csv, split_slices)
from .errors import (FieldError, GraphfillError, KernelError, MetricError,
                     ValidationError)
from .graph import SensorGraph, build_adjacency_gaussian, load_edges_csv
from .spin import spin_forward
from .spin_h import spinh_forward
from .synth import (geometric_positions, pairwise_distances, suggest_kernel,
                    synth_series)
from .train import evaluate, evaluate_baseline, forward_fn, train

BENCHMARK_WIDTHS = (8, 16, 32, 64)


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output.dir, exist_ok=True)
    return cfg.output.dir


def _nonfinite_key(doc, where=""):
    """The key path of the first non-finite float in a JSON-ready document
    ("spin.per_window[3]"), in written order; None if every float is finite."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else where
    if isinstance(doc, dict):
        items = ((f"{where}.{k}" if where else k, v) for k, v in sorted(doc.items()))
    elif isinstance(doc, (list, tuple)):
        items = ((f"{where}[{k}]", v) for k, v in enumerate(doc))
    else:
        return None
    for key, value in items:
        found = _nonfinite_key(value, key)
        if found is not None:
            return found
    return None


def _write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    """Write `payload` as strict JSON; a non-finite number raises a
    MetricError naming its key path."""
    bad = _nonfinite_key(payload)
    if bad is not None:
        raise MetricError(f"{name}: '{bad}' is not a finite number")
    path = os.path.join(_outdir(cfg), name)
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return path


def build_graph(cfg: RunConfig, n_nodes: int) -> SensorGraph:
    data = cfg.data
    if data.distances_csv is not None:
        distances = load_grid_csv(data.distances_csv)
        if distances.shape != (n_nodes, n_nodes):
            raise ValidationError(
                f"{data.distances_csv}: distance matrix is {distances.shape[0]}x"
                f"{distances.shape[1]} but the series has {n_nodes} sensors")
        try:
            return build_adjacency_gaussian(distances, data.gamma, data.delta)
        except KernelError as exc:
            raise FieldError(
                f"'data.gamma' does not fit {data.distances_csv}: {exc}") from None
        except ValidationError as exc:
            raise ValidationError(f"{data.distances_csv}: {exc}") from None
    return load_edges_csv(data.edges_csv, n_nodes)


INJECTORS = {"point": inject_point_missing, "sweep": inject_sparsity_sweep,
             "block": inject_block_missing}


def apply_inject(dataset: Dataset, inject: InjectConfig):
    """Move observations into the evaluation mask per the configured policy.

    The policy's params are the injector's keyword arguments; params left
    out take the injector's defaults.
    """
    if inject.policy == "none":
        return dataset
    mask, dropped = INJECTORS[inject.policy](dataset.mask, rng=inject.seed,
                                             **inject.params)
    return replace(dataset, mask=mask, eval_mask=dataset.eval_mask | dropped)


def prepare(cfg: RunConfig):
    """Load, inject, and normalize; returns (dataset, graph, raw)."""
    raw = apply_inject(load_dataset(cfg.data.values_csv, cfg.data.mask_csv),
                       cfg.inject)
    train_sl, _, _ = split_slices(raw.n_steps, cfg.data.split)
    try:
        dataset, _ = normalize(raw, train_sl)
    except ValidationError as exc:
        raise ValidationError(f"{cfg.data.values_csv}: {exc}") from None
    graph = build_graph(cfg, raw.n_nodes)
    return dataset, graph, raw


def _default_checkpoint(cfg: RunConfig) -> str:
    return os.path.join(cfg.output.dir, "checkpoint.json")


def cmd_synth(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    s = cfg.synth
    res = synth_series(**vars(s))  # the section's keys are its arguments
    header = [f"s{i:02d}" for i in range(s.n_nodes)]
    values_path = os.path.join(out, "values.csv")
    save_grid_csv(values_path, res.values, header=header)
    dist_path = os.path.join(out, "distances.csv")
    save_grid_csv(dist_path, res.distances)
    graph = build_adjacency_gaussian(res.distances, res.gamma, res.delta)
    _write_json(cfg, "synth_summary.json", {
        "n_nodes": s.n_nodes, "n_steps": s.n_steps, "seed": s.seed,
        "periods": list(s.periods), "noise_std": s.noise_std,
        "suggested_gamma": res.gamma, "suggested_delta": res.delta,
        "n_edges_at_suggested_kernel": graph.n_edges,
        "values_csv": values_path, "distances_csv": dist_path})
    print(f"synth: wrote {values_path} ({s.n_steps}x{s.n_nodes}) and "
          f"{dist_path}; suggested gamma={res.gamma:.6g} delta={res.delta:.6g} "
          f"({graph.n_edges} directed edges)")
    return 0


def cmd_inject(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    raw = load_dataset(cfg.data.values_csv, cfg.data.mask_csv)
    n_before = int(raw.mask.sum())
    injected = apply_inject(raw, cfg.inject)
    mask_path = os.path.join(out, "mask.csv")
    eval_path = os.path.join(out, "eval_mask.csv")
    save_grid_csv(mask_path, injected.mask.astype(int))
    save_grid_csv(eval_path, injected.eval_mask.astype(int))
    n_removed = int(injected.eval_mask.sum()) - int(raw.eval_mask.sum())
    summary = {"policy": cfg.inject.policy, "params": cfg.inject.params,
               "seed": cfg.inject.seed, "n_valid_before": n_before,
               "n_removed": n_removed,
               "fraction_removed": n_removed / max(n_before, 1),
               "n_valid_after": int(injected.mask.sum()),
               "mask_csv": mask_path, "eval_mask_csv": eval_path}
    _write_json(cfg, "inject_summary.json", summary)
    print(f"inject: policy={cfg.inject.policy} removed {n_removed} of "
          f"{n_before} valid entries ({summary['fraction_removed']:.2%}); "
          f"wrote {mask_path}, {eval_path}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    dataset, graph, _ = prepare(cfg)
    params = build_params(cfg.model, dataset.n_nodes, cfg.train.seed)
    t0 = time.time()

    def report(row):  # an epoch without a step has no loss
        loss = "-" if math.isnan(row["train_loss"]) else f"{row['train_loss']:.5f}"
        print(f"epoch {row['epoch']:3d}  loss {loss}  "
              f"val_mae {row['val_mae']:.5f}  lr {row['lr']:.2e}", flush=True)

    try:
        params, history, best_val = train(dataset, graph, cfg.train, params,
                                          progress=report)
    except FieldError:
        raise
    except ValidationError as exc:  # a split the series leaves empty
        raise ValidationError(f"{cfg.data.values_csv}: {exc}") from None
    if all(math.isnan(row["train_loss"]) for row in history):  # no step
        raise ValidationError(
            f"{cfg.data.values_csv}: no optimizer step in {len(history)} epochs: "
            "no window drawn from the training split ('data.split') had an "
            "observed entry to hide"
            + (" on a seed node" if cfg.train.subsample else ""))
    ckpt_path = _default_checkpoint(cfg)
    save_params(ckpt_path, params.named_parameters())
    hist_path = os.path.join(out, "history.csv")
    with atomic_write(hist_path) as f:
        f.write("epoch,train_loss,val_mae,lr\n")
        for row in history:  # an epoch without a step has no train_loss
            loss = "" if math.isnan(row["train_loss"]) else f"{row['train_loss']:.17g}"
            f.write(f"{row['epoch']},{loss},{row['val_mae']:.17g},{row['lr']:.17g}\n")
    print(f"train: best val_mae {best_val:.5f} after {len(history)} epochs "
          f"({time.time() - t0:.0f}s); wrote {ckpt_path}, {hist_path}")
    return 0


def _load_model(cfg: RunConfig, n_nodes: int, checkpoint_path: str):
    params = build_params(cfg.model, n_nodes, cfg.train.seed)
    load_params(checkpoint_path, params.named_parameters())
    return params


def cmd_impute(cfg: RunConfig, checkpoint_path: str) -> int:
    out = _outdir(cfg)
    dataset, graph, raw = prepare(cfg)
    params = _load_model(cfg, dataset.n_nodes, checkpoint_path)
    fwd = spin_forward if cfg.model.variant == "spin" else spinh_forward
    width = cfg.data.width
    if dataset.n_steps < width:
        raise FieldError(f"'data.W' ({width}) exceeds the series' "
                         f"{dataset.n_steps} steps")
    starts = list(range(0, dataset.n_steps - width + 1, width))
    if starts[-1] + width < dataset.n_steps:
        starts.append(dataset.n_steps - width)  # cover the tail by overlap
    predictions = np.full(dataset.values.shape, np.nan)
    with T.no_grad():
        for start in starts:
            pred = fwd(dataset.window(start, width), graph, params).predictions
            block = predictions[start:start + width]  # a view: filled in place
            block[np.isnan(block)] = pred[np.isnan(block)]
    missing = ~dataset.mask
    with np.errstate(over="ignore"):  # checked just below
        inverted = dataset.stats.invert(predictions[missing])
    if np.isnan(inverted).any():  # a finite prediction inverts to a number
        raise GraphfillError("imputation left unfilled cells")
    if not np.all(np.isfinite(inverted)):
        t, j = np.argwhere(missing)[np.argmin(np.isfinite(inverted))]
        raise ValidationError(f"{cfg.data.values_csv}: data row {t + 1}, column "
                              f"{j + 1}: the imputed value overflows in data units")
    filled = raw.values.copy()
    filled[missing] = inverted
    imputed_path = os.path.join(out, "imputed.csv")
    save_grid_csv(imputed_path, filled, header=dataset.columns)
    n_filled = int(missing.sum())
    print(f"impute: filled {n_filled} missing cells; wrote {imputed_path}")
    return 0


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str) -> int:
    dataset, graph, _ = prepare(cfg)
    params = _load_model(cfg, dataset.n_nodes, checkpoint_path)
    windows = cfg.data.width, cfg.data.stride, cfg.data.split
    try:
        metrics = {cfg.model.variant: evaluate(params, dataset, graph, *windows)}
    except MetricError:  # only an injection hides entries to score
        raise FieldError(f"'inject.policy' ({cfg.inject.policy!r}) hides no "
                         "entry in the test windows to score") from None
    for kind in ("mean", "knn"):
        metrics[kind] = evaluate_baseline(kind, dataset, graph, *windows)
    path = _write_json(cfg, "metrics.json", metrics)
    for name in (cfg.model.variant, "mean", "knn"):
        print(f"evaluate: {name:6s} mae {metrics[name]['mae']:.5f} "
              f"(n_eval {metrics[name]['n_eval']})")
    print(f"evaluate: wrote {path}")
    return 0


def cmd_benchmark(cfg: RunConfig) -> int:
    b = cfg.benchmark
    rng = np.random.default_rng(b.seed)
    coords = geometric_positions(b.n_nodes, rng)
    distances = pairwise_distances(coords)
    gamma, delta = suggest_kernel(distances)
    graph = build_adjacency_gaussian(distances, gamma, delta)
    n, e = graph.n_nodes, graph.n_edges
    report = {"n_nodes": n, "n_edges": e, "widths": list(BENCHMARK_WIDTHS),
              "variants": {}}
    for variant in ("spin", "spin-h"):
        # both variants at depth 2, whatever the config's variant
        model_cfg = replace(cfg.model, variant=variant, n_layers=2, n_masked=1)
        params = build_params(model_cfg, n, b.seed)
        fwd = forward_fn(params)
        windows = [Dataset(rng.normal(size=(width, n)),
                           np.ones((width, n))).window(0, width)
                   for width in BENCHMARK_WIDTHS]
        # Repeats cycle through the widths, so a machine that runs slowly
        # for a while (CPUs waking from idle) slows every width alike and
        # the best time per width stays comparable.
        best = [np.inf] * len(windows)
        outs = [None] * len(windows)
        for _ in range(b.repeats):
            for k, win in enumerate(windows):
                t0 = time.perf_counter()
                with T.no_grad():
                    outs[k] = fwd(win, graph, params)
                best[k] = min(best[k], time.perf_counter() - t0)
        entries = []
        for width, out, wall in zip(BENCHMARK_WIDTHS, outs, best):
            pairs = out.pairs_per_layer
            open_layer = next(p for p in pairs if not p["masked"])
            if variant == "spin":
                observed = open_layer["self"] + open_layer["cross"]
                expected = (n + e) * width * width
            else:
                observed = (open_layer["hub"] + open_layer["self"]
                            + open_layer["cross"])
                expected = (n + e) * params.n_hubs * width + n * width * params.n_hubs
            # exact closed forms also fix the growth per doubling of W:
            # x4 for spin, x2 for spin-h
            if observed != expected:
                raise GraphfillError(
                    f"{variant} W={width}: attention pair count {observed} != "
                    f"closed form {expected}")
            entries.append({"W": width, "pairs_per_open_layer": observed,
                            "wall_s": wall})
        report["variants"][variant] = entries
    path = _write_json(cfg, "complexity_report.json", report)
    for variant, entries in report["variants"].items():
        line = "  ".join(f"W={r['W']}: {r['pairs_per_open_layer']} pairs, "
                         f"{r['wall_s'] * 1e3:.1f}ms" for r in entries)
        print(f"benchmark: {variant:6s} {line}")
    print(f"benchmark: wrote {path}")
    return 0


COMMANDS = {"synth": cmd_synth, "inject": cmd_inject, "train": cmd_train,
            "impute": cmd_impute, "evaluate": cmd_evaluate,
            "benchmark": cmd_benchmark}
NEEDS_DATA = ("inject", "train", "impute", "evaluate")
NEEDS_CHECKPOINT = ("impute", "evaluate")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfill",
        description="Sparse spatiotemporal attention for imputing missing "
                    "sensor-network series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--output-dir", default=None,
                       help="override output.dir from the config")
        if name in NEEDS_CHECKPOINT:
            p.add_argument("--checkpoint", default=None,
                           help="parameter file (default: <output>/checkpoint.json)")
    return parser


def main(argv=None) -> int:
    T._keep_large_allocations_on_heap()
    args = make_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.output_dir is not None:
            cfg.output.dir = args.output_dir
        if cfg.data is None and args.command in NEEDS_DATA:
            raise ValidationError(
                f"{args.config}: '{args.command}' needs a 'data' section")
        extra = ((args.checkpoint or _default_checkpoint(cfg),)
                 if args.command in NEEDS_CHECKPOINT else ())
        code = COMMANDS[args.command](cfg, *extra)
        if code == 0:
            _write_json(cfg, f"resolved_config.{args.command}.json",
                        {"command": args.command, "version": __version__,
                         "config": cfg.to_dict()})
        return code
    except ValidationError as exc:
        where = f"{args.config}: " if isinstance(exc, FieldError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    except MetricError as exc:  # a score the input leaves empty or non-finite
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        # an input that cannot be read or an output that cannot be created
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report, do not traceback-dump
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
