"""The training loop and step as they stood before they were rewritten.

`graphfill.train.train` now runs each epoch as a loop over `draw_batch`
and `train_step`, with its state in a `TrainState`. `reference_train` is
the single function it replaced. `graphfill.train.train_step` now runs one
tape per window, last window first; `reference_train_step` is the step
that recorded the whole batch on one tape. Both are kept so that tests can
check the new code against them bit for bit, the way `unfused_ops.py`
keeps the old attention. They call the package's own loss, forward,
whitening, clipping and Adam.

Training and validation now carry a whitened window, whose `mask` the
forward reads and whose `eval_mask` the loss or score reads, and
validation and `evaluate` score through one error pass.
`_val_input_and_loss_masks`, `_validation_mae` and `_score_windows` are
the code they replaced: validation's loose (input mask, loss mask) pairs,
its own no-grad loop, and `evaluate`'s scoring loop. The single-tape step
takes (window, input_mask, loss_mask) triples.

One behaviour follows the package rather than the old loop: an epoch
that takes no optimizer step records the rate its next step would take,
not 0.0.
"""

from __future__ import annotations

import numpy as np

import unfused_ops as U
from graphfill import tensor as T
from graphfill.config import TrainConfig
from graphfill.data import Dataset, make_windows, split_slices, training_whiten
from graphfill.errors import (DivergenceError, MetricError, NonFiniteError,
                              ValidationError)
from graphfill.graph import SensorGraph, khop_subgraph
from graphfill.optim import AdamState, adam_step, clip_global_norm, lr_schedule
from graphfill.train import (GRAD_CLIP_NORM, TrainState,
                             _column_subset_window, forward_fn, spin_loss)


def _val_input_and_loss_masks(windows, seed):
    """Per-window whiten masks that are identical every time (fixed seed)."""
    masks = []
    for k, win in enumerate(windows):
        rng = np.random.default_rng(100003 * (seed + 1) + k)
        try:
            masks.append(training_whiten(win, rng=rng))
        except ValidationError:
            masks.append(None)  # window has no valid entries; skip in scoring
    return masks


def _validation_mae(val_windows, val_masks, graph, params):
    """MAE over the fixed hidden validation entries, in normalized units."""
    fwd = forward_fn(params)
    errors, count = 0.0, 0
    with T.no_grad():
        for win, masks in zip(val_windows, val_masks):
            if masks is None:
                continue
            input_mask, sel = masks
            out = fwd(win, graph, params, input_mask=input_mask)
            errors += float(np.abs(out.predictions[sel] - win.values[sel]).sum())
            count += int(sel.sum())
    if count == 0:
        raise MetricError("no validation targets available")
    return errors / count


def _score_windows(windows, predict, stats, n_nodes):
    """Average per-window MAE of `predict(window)` on eval entries, in data
    units: errors sum in normalized units, and each figure is scaled by
    stats.std once, so data near the float64 limit does not overflow."""
    per_window = []
    node_err = np.zeros(n_nodes)
    node_cnt = np.zeros(n_nodes, dtype=np.intp)
    n_eval = 0
    for win in windows:
        sel = win.eval_mask
        if not sel.any():
            continue
        err = np.abs(np.where(sel, predict(win) - win.values, 0.0))
        per_window.append(float(err[sel].mean()))
        n_eval += int(sel.sum())
        node_err += err.sum(axis=0)
        node_cnt += sel.sum(axis=0)
    if not per_window:
        raise MetricError("no evaluation targets in the test windows")
    per_node = [float(node_err[i] / node_cnt[i]) * stats.std if node_cnt[i]
                else None for i in range(n_nodes)]
    return {"mae": float(np.mean(per_window)) * stats.std, "n_eval": int(n_eval),
            "per_window": [e * stats.std for e in per_window],
            "per_node": per_node}


def reference_train_step(state: TrainState, graph: SensorGraph, batch,
                         lr) -> float:
    """One optimizer step on one tape; returns the batch's loss, the mean
    over its windows of `spin_loss` (a sum over layers)."""
    fwd = forward_fn(state.params)
    try:
        with T.Tape():
            acc = None
            for win, input_mask, loss_mask in batch:
                out = fwd(win, graph, state.params, input_mask=input_mask)
                term = spin_loss(out, win.values, loss_mask)
                acc = term if acc is None else U.add(acc, term)
            loss = T.div(acc, float(len(batch)))
            T.backward(loss)
    except NonFiniteError as exc:
        raise DivergenceError(f"non-finite loss at epoch {state.epoch}, "
                              f"step {state.step}: {exc}") from exc
    clip_global_norm(state.adam.params, GRAD_CLIP_NORM)
    adam_step(state.adam, lr)
    state.step += 1
    return float(loss.data)


def reference_train(dataset: Dataset, graph: SensorGraph, config: TrainConfig,
                    params, progress=None):
    """Fit `params` in place; returns (params, history, best_val_mae).

    dataset must already be normalized. history is a list of per-epoch
    dicts with keys epoch, train_loss, val_mae, lr.
    """
    T._keep_large_allocations_on_heap()
    config.validate()
    rng = np.random.default_rng(config.seed)
    train_sl, val_sl, _ = split_slices(dataset.n_steps, config.split)
    n_train_steps = train_sl.stop - train_sl.start
    if n_train_steps < config.width:
        raise ValidationError(
            f"training split has {n_train_steps} steps, need >= {config.width}")
    train_view = dataset.rows(train_sl)
    val_windows = make_windows(dataset.rows(val_sl), config.width, config.stride)
    val_masks = _val_input_and_loss_masks(val_windows, config.seed)
    if all(m is None for m in val_masks):
        raise ValidationError("validation split has no usable windows")

    param_list = params.parameters()
    adam = AdamState(param_list)
    fwd = forward_fn(params)
    max_offset = n_train_steps - config.width
    history = []
    best_val = np.inf
    best_state = [p.data.copy() for p in param_list]
    bad_epochs = 0
    step = 0

    for epoch in range(1, config.epochs_max + 1):
        epoch_losses = []
        lr = 0.0
        for _ in range(config.batches_per_epoch):
            offsets = rng.integers(0, max_offset + 1, size=config.batch_size)
            windows = [train_view.window(off, config.width) for off in offsets]
            batch_graph, node_map, seed_mask = graph, None, None
            if config.subsample is not None:
                seeds = rng.choice(graph.n_nodes,
                                   size=min(config.subsample.n_seeds,
                                            graph.n_nodes), replace=False)
                batch_graph, node_map, seed_mask = khop_subgraph(
                    graph, seeds, config.subsample.k_hops)
                cols = np.array(sorted(node_map), dtype=np.intp)
                windows = [_column_subset_window(win, cols) for win in windows]

            pairs = []
            for win in windows:
                try:
                    input_mask, loss_mask = training_whiten(win, rng=rng)
                except ValidationError:
                    continue  # nothing observed in this window; skip it
                if np.any(loss_mask & win.eval_mask):
                    raise ValidationError(
                        "whiten produced loss targets on evaluation entries")
                if seed_mask is not None:
                    loss_mask = loss_mask * seed_mask.astype(np.uint8)[None, :]
                    if not loss_mask.any():
                        continue
                pairs.append((win, input_mask, loss_mask))
            if not pairs:
                continue

            try:
                with T.Tape():
                    acc = None
                    for win, input_mask, loss_mask in pairs:
                        out = fwd(win, batch_graph, params, input_mask=input_mask)
                        term = spin_loss(out, win.values, loss_mask)
                        acc = term if acc is None else U.add(acc, term)
                    loss = T.div(acc, float(len(pairs)))
                    loss_value = float(loss.data)
                    T.backward(loss)
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}: {exc}") from exc
            if not np.isfinite(loss_value):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}")

            clip_global_norm(param_list, GRAD_CLIP_NORM)
            lr = lr_schedule(step, epoch - 1, base_lr=config.lr,
                             warmup_steps=config.warmup_steps,
                             restart_period_epochs=config.restart_period)
            adam_step(adam, lr)
            step += 1
            epoch_losses.append(loss_value)

        if not epoch_losses:  # no step: the rate the epoch's next step would take
            lr = lr_schedule(step, epoch - 1, base_lr=config.lr,
                             warmup_steps=config.warmup_steps,
                             restart_period_epochs=config.restart_period)
        val_mae = _validation_mae(val_windows, val_masks, graph, params)
        train_loss = float(np.mean(epoch_losses)) if epoch_losses else np.nan
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_mae": val_mae, "lr": lr})
        if progress is not None:
            progress(history[-1])
        if val_mae < best_val:
            best_val = val_mae
            best_state = [p.data.copy() for p in param_list]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    for p, best in zip(param_list, best_state):
        p.data = best.copy()
    return params, history, best_val
