"""The training loop as it stood before it was split into pieces.

`graphfill.train.train` now runs each epoch as a loop over `draw_batch`
and `train_step`, with its state in a `TrainState`. This is the single
function it replaced, kept so that tests can check the new loop against
it bit for bit, the way `unfused_ops.py` keeps the old attention. It
calls the package's own loss, forward, whitening, clipping and Adam.
"""

from __future__ import annotations

import numpy as np

from graphfill import tensor as T
from graphfill.config import TrainConfig
from graphfill.data import Dataset, make_windows, split_slices, training_whiten
from graphfill.errors import DivergenceError, NonFiniteError, ValidationError
from graphfill.graph import SensorGraph, khop_subgraph
from graphfill.optim import AdamState, adam_step, clip_global_norm, lr_schedule
from graphfill.train import (GRAD_CLIP_NORM, _column_subset_window,
                             _val_input_and_loss_masks, _validation_mae,
                             forward_fn, spin_loss)


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
                        acc = term if acc is None else T.add(acc, term)
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
