"""Command-line entry point.

Subcommands: synth | inject | train | impute | evaluate | benchmark.
All behavior is driven by one JSON config (see config.py); the only
flags are the config path, an optional checkpoint path, and an optional
output-directory override. Every command writes a resolved-config
snapshot into the output directory so a run can be replayed bit-exactly.

Exit codes: 0 success, 1 config/input validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import tensor as T
from .checkpoint import load_params, save_params
from .config import RunConfig, build_params, load_run_config, train_config_from
from .data import (Dataset, inject_block_missing, inject_point_missing,
                   inject_sparsity_sweep, load_dataset, make_windows,
                   normalize, save_grid_csv, split_slices)
from .errors import GraphfillError, ValidationError
from .graph import (SensorGraph, build_adjacency_gaussian, load_distances_csv,
                    load_edges_csv)
from .spin import spin_forward
from .spin_h import spinh_forward
from .synth import (geometric_positions, pairwise_distances, suggest_kernel,
                    synth_series)
from .train import evaluate, evaluate_baseline, train

BENCHMARK_WIDTHS = (8, 16, 32, 64)


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _write_snapshot(cfg: RunConfig, command: str):
    path = os.path.join(_outdir(cfg), f"resolved_config.{command}.json")
    with open(path, "w") as f:
        json.dump({"command": command, "version": __version__,
                   "config": cfg.to_dict()}, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    path = os.path.join(_outdir(cfg), name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def build_graph(cfg: RunConfig, n_nodes: int) -> SensorGraph:
    data = cfg.data
    if data.distances_csv is not None:
        distances = load_distances_csv(data.distances_csv)
        if distances.shape[0] != n_nodes:
            raise ValidationError(
                f"distance matrix is {distances.shape[0]}x{distances.shape[1]} "
                f"but the series has {n_nodes} sensors")
        return build_adjacency_gaussian(distances, data.gamma, data.delta)
    return load_edges_csv(data.edges_csv, n_nodes)


def apply_inject(dataset: Dataset, policy: str, params: dict, seed: int):
    """Move observations into the evaluation mask per the configured policy."""
    if policy == "none":
        return dataset
    if policy == "point":
        mask, dropped = inject_point_missing(dataset.mask,
                                             rate=params.get("rate", 0.25),
                                             rng=seed)
    elif policy == "sweep":
        if "p" not in params:
            raise ValidationError("inject policy 'sweep' needs params.p")
        mask, dropped = inject_sparsity_sweep(dataset.mask, p=params["p"],
                                              rng=seed)
    elif policy == "block":
        mask, dropped = inject_block_missing(
            dataset.mask, point_rate=params.get("point_rate", 0.05),
            failure_prob=params.get("failure_prob", 0.0015),
            len_min=params.get("len_min", 12),
            len_max=params.get("len_max", 48), rng=seed)
    else:
        raise ValidationError(f"unknown inject policy {policy!r}")
    return dataset.replace(mask=mask,
                           eval_mask=(dataset.eval_mask | dropped).astype(np.uint8))


def prepare(cfg: RunConfig):
    """Load, inject, and normalize; returns (dataset, stats, graph, raw)."""
    if cfg.data is None:
        raise ValidationError("this command needs a 'data' config section")
    raw = load_dataset(cfg.data.values_csv, cfg.data.mask_csv)
    raw = apply_inject(raw, cfg.inject.policy, cfg.inject.params,
                       cfg.inject.seed)
    train_sl, _, _ = split_slices(raw.n_steps, cfg.data.split)
    dataset, stats = normalize(raw, train_sl)
    graph = build_graph(cfg, raw.n_nodes)
    return dataset, stats, graph, raw


def _default_checkpoint(cfg: RunConfig) -> str:
    return os.path.join(cfg.output_dir, "checkpoint.json")


def cmd_synth(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    s = cfg.synth
    res = synth_series(n_nodes=s.n_nodes, n_steps=s.n_steps, seed=s.seed,
                       periods=s.periods, noise_std=s.noise_std,
                       target_neighbors=s.target_neighbors)
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
    _write_snapshot(cfg, "synth")
    print(f"synth: wrote {values_path} ({s.n_steps}x{s.n_nodes}) and "
          f"{dist_path}; suggested gamma={res.gamma:.6g} delta={res.delta:.6g} "
          f"({graph.n_edges} directed edges)")
    return 0


def cmd_inject(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    raw = load_dataset(cfg.data.values_csv, cfg.data.mask_csv)
    n_before = int(raw.mask.sum())
    injected = apply_inject(raw, cfg.inject.policy, cfg.inject.params,
                            cfg.inject.seed)
    mask_path = os.path.join(out, "mask.csv")
    eval_path = os.path.join(out, "eval_mask.csv")
    save_grid_csv(mask_path, injected.mask.astype(int), fmt="%d")
    save_grid_csv(eval_path, injected.eval_mask.astype(int), fmt="%d")
    n_removed = int(injected.eval_mask.sum()) - int(raw.eval_mask.sum())
    summary = {"policy": cfg.inject.policy, "params": cfg.inject.params,
               "seed": cfg.inject.seed, "n_valid_before": n_before,
               "n_removed": n_removed,
               "fraction_removed": n_removed / max(n_before, 1),
               "n_valid_after": int(injected.mask.sum()),
               "mask_csv": mask_path, "eval_mask_csv": eval_path}
    _write_json(cfg, "inject_summary.json", summary)
    _write_snapshot(cfg, "inject")
    print(f"inject: policy={cfg.inject.policy} removed {n_removed} of "
          f"{n_before} valid entries ({summary['fraction_removed']:.2%}); "
          f"wrote {mask_path}, {eval_path}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    dataset, _, graph, _ = prepare(cfg)
    params = build_params(cfg.model, dataset.n_nodes, cfg.train.seed)
    tcfg = train_config_from(cfg)
    t0 = time.time()

    def report(row):
        print(f"epoch {row['epoch']:3d}  loss {row['train_loss']:.5f}  "
              f"val_mae {row['val_mae']:.5f}  lr {row['lr']:.2e}", flush=True)

    params, history, best_val = train(dataset, graph, tcfg, params,
                                      progress=report)
    ckpt_path = _default_checkpoint(cfg)
    save_params(ckpt_path, params.named_parameters())
    hist_path = os.path.join(out, "history.csv")
    with open(hist_path, "w") as f:
        f.write("epoch,train_loss,val_mae,lr\n")
        for row in history:
            f.write(f"{row['epoch']},{row['train_loss']:.17g},"
                    f"{row['val_mae']:.17g},{row['lr']:.17g}\n")
    _write_snapshot(cfg, "train")
    print(f"train: best val_mae {best_val:.5f} after {len(history)} epochs "
          f"({time.time() - t0:.0f}s); wrote {ckpt_path}, {hist_path}")
    return 0


def _load_model(cfg: RunConfig, n_nodes: int, checkpoint_path: str):
    params = build_params(cfg.model, n_nodes, cfg.train.seed)
    load_params(checkpoint_path, params.named_parameters())
    return params


def cmd_impute(cfg: RunConfig, checkpoint_path: str) -> int:
    out = _outdir(cfg)
    dataset, stats, graph, raw = prepare(cfg)
    params = _load_model(cfg, dataset.n_nodes, checkpoint_path)
    fwd = spin_forward if cfg.model.variant == "spin" else spinh_forward
    width = cfg.data.width
    if dataset.n_steps < width:
        raise ValidationError(
            f"series has {dataset.n_steps} steps, shorter than window {width}")
    starts = list(range(0, dataset.n_steps - width + 1, width))
    if starts[-1] + width < dataset.n_steps:
        starts.append(dataset.n_steps - width)  # cover the tail by overlap
    predictions = np.full(dataset.values.shape, np.nan)
    with T.no_grad():
        for start in starts:
            sl = slice(start, start + width)
            win_dataset = Dataset(values=dataset.values[sl],
                                  mask=dataset.mask[sl],
                                  eval_mask=dataset.eval_mask[sl],
                                  timestamps=dataset.timestamps[sl],
                                  stats=dataset.stats, columns=dataset.columns)
            win = make_windows(win_dataset, width, width)[0]
            pred = stats.invert(fwd(win, graph, params).predictions)
            block = predictions[sl]
            block[np.isnan(block)] = pred[np.isnan(block)]
            predictions[sl] = block
    filled = np.where(dataset.mask == 1, raw.values, predictions)
    if not np.all(np.isfinite(filled)):
        raise GraphfillError("imputation left unfilled cells")
    imputed_path = os.path.join(out, "imputed.csv")
    save_grid_csv(imputed_path, filled, header=dataset.columns)
    _write_snapshot(cfg, "impute")
    n_filled = int((dataset.mask == 0).sum())
    print(f"impute: filled {n_filled} missing cells; wrote {imputed_path}")
    return 0


def cmd_evaluate(cfg: RunConfig, checkpoint_path: str) -> int:
    dataset, _, graph, _ = prepare(cfg)
    params = _load_model(cfg, dataset.n_nodes, checkpoint_path)
    width, stride, split = cfg.data.width, cfg.data.stride, cfg.data.split
    metrics = {
        cfg.model.variant: evaluate(params, dataset, graph, width, stride,
                                    split),
        "mean": evaluate_baseline("mean", dataset, graph, width, stride,
                                  split),
        "knn": evaluate_baseline("knn", dataset, graph, width, stride, split),
    }
    path = _write_json(cfg, "metrics.json", metrics)
    _write_snapshot(cfg, "evaluate")
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
        model_cfg = cfg.model
        fwd = spin_forward if variant == "spin" else spinh_forward
        cases = [(build_params(_benchmark_model_cfg(model_cfg, variant), n,
                               b.seed), _full_window(rng.normal(size=(width, n))))
                 for width in BENCHMARK_WIDTHS]
        # Repeats cycle through the widths, so a machine that runs slowly
        # for a while (CPUs waking from idle) slows every width alike and
        # the best time per width stays comparable.
        best = [np.inf] * len(cases)
        outs = [None] * len(cases)
        for _ in range(max(1, b.repeats)):
            for k, (params, win) in enumerate(cases):
                t0 = time.perf_counter()
                with T.no_grad():
                    outs[k] = fwd(win, graph, params)
                best[k] = min(best[k], time.perf_counter() - t0)
        entries = []
        for width, (params, _), out, wall in zip(BENCHMARK_WIDTHS, cases, outs,
                                                 best):
            pairs = out.pairs_per_layer
            open_layer = next(p for p in pairs if not p["masked"])
            if variant == "spin":
                observed = open_layer["self"] + open_layer["cross"]
                expected = (n + e) * width * width
            else:
                observed = (open_layer["hub"] + open_layer["self"]
                            + open_layer["cross"])
                expected = (n + e) * params.n_hubs * width + n * width * params.n_hubs
            if observed != expected:
                raise GraphfillError(
                    f"{variant} W={width}: attention pair count {observed} != "
                    f"closed form {expected}")
            entries.append({"W": width, "pairs_per_open_layer": observed,
                            "wall_s": wall})
        for prev, cur in zip(entries, entries[1:]):
            ratio = cur["pairs_per_open_layer"] / prev["pairs_per_open_layer"]
            want = 4.0 if variant == "spin" else 2.0
            if ratio != want:
                raise GraphfillError(
                    f"{variant}: pair count grew x{ratio} when W doubled, "
                    f"expected x{want}")
        report["variants"][variant] = entries
    path = _write_json(cfg, "complexity_report.json", report)
    _write_snapshot(cfg, "benchmark")
    for variant, entries in report["variants"].items():
        line = "  ".join(f"W={r['W']}: {r['pairs_per_open_layer']} pairs, "
                         f"{r['wall_s'] * 1e3:.1f}ms" for r in entries)
        print(f"benchmark: {variant:6s} {line}")
    print(f"benchmark: wrote {path}")
    return 0


def _benchmark_model_cfg(model_cfg, variant):
    """Benchmark both variants at depth 2 regardless of the config variant."""
    from .config import ModelConfig
    return ModelConfig(variant=variant, n_layers=2, n_masked=1,
                       d_h=model_cfg.d_h, hidden=model_cfg.hidden,
                       hubs=model_cfg.hubs, encoding=model_cfg.encoding)


def _full_window(values):
    from .data import SpatioTemporalWindow
    w, n = values.shape
    return SpatioTemporalWindow(values=values,
                                mask=np.ones((w, n), dtype=np.uint8),
                                eval_mask=np.zeros((w, n), dtype=np.uint8),
                                step_offsets=np.arange(w, dtype=np.float64))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfill",
        description="Sparse spatiotemporal attention for imputing missing "
                    "sensor-network series.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_ckpt in (("synth", False), ("inject", False),
                             ("train", False), ("impute", True),
                             ("evaluate", True), ("benchmark", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--output-dir", default=None,
                       help="override output.dir from the config")
        if needs_ckpt:
            p.add_argument("--checkpoint", default=None,
                           help="parameter file (default: <output>/checkpoint.json)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "inject":
            return cmd_inject(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        ckpt = getattr(args, "checkpoint", None) or _default_checkpoint(cfg)
        if args.command == "impute":
            return cmd_impute(cfg, ckpt)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, ckpt)
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 1
    except GraphfillError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report, do not traceback-dump
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
