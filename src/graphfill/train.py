"""Training loop, evaluation, and the two reference baselines.

Training follows a count-based epoch: every epoch draws batches_per_epoch
minibatches of batch_size window offsets uniformly with replacement from
the training split, hides a random fraction of each window's valid
entries (self-supervision), and minimizes the layer-wise loss — the sum
over layers of the mean absolute error of that layer's readout on the
hidden entries. Validation uses the same hiding mechanism with a fixed
seed so that every epoch scores the exact same validation task; early
stopping tracks strict improvements of validation MAE.

Everything here works on normalized values; `evaluate` converts back to
data units before reporting.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .data import (DEFAULT_SPLIT, Dataset, SpatioTemporalWindow, make_windows,
                   split_slices, training_whiten)
from .errors import (DivergenceError, EmptySetError, MetricError,
                     NonFiniteError, ValidationError)
from .graph import SensorGraph, khop_subgraph
from .optim import AdamState, adam_step, clip_global_norm, lr_schedule
from .spin import SpinParameters, spin_forward
from .spin_h import SpinHParameters, spinh_forward

GRAD_CLIP_NORM = 5.0


def forward_fn(params):
    """The single-window forward matching a parameter object's variant."""
    if isinstance(params, SpinParameters):
        return spin_forward
    if isinstance(params, SpinHParameters):
        return spinh_forward
    raise ValidationError(f"unknown parameter object {type(params).__name__}")


def spin_loss(output, truth, loss_mask) -> T.Value:
    """Layer-wise training loss for one window.

    Sum over layers of mean |prediction - truth| over loss_mask=1
    positions. Gradients flow into every layer's readout, supervising the
    representations at each depth.
    """
    loss_mask = np.asarray(loss_mask)
    pos = np.flatnonzero(loss_mask.ravel() == 1)
    if len(pos) == 0:
        raise EmptySetError("loss mask selects no positions")
    truth_rows = T.Value(np.asarray(truth, dtype=np.float64).reshape(-1, 1)[pos])
    acc = None
    for readout in output.readouts:
        flat = T.reshape(readout, (-1, 1))
        diff = T.sub(T.gather_rows(flat, pos), truth_rows)
        term = T.vmean(T.vabs(diff))
        acc = term if acc is None else T.add(acc, term)
    return acc


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


def _column_subset_window(win, cols):
    return SpatioTemporalWindow(values=win.values[:, cols],
                                mask=win.mask[:, cols],
                                eval_mask=win.eval_mask[:, cols],
                                step_offsets=win.step_offsets, nodes=cols)


def train(dataset: Dataset, graph: SensorGraph, config: TrainConfig, params,
          progress=None):
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


def _validation_mae(val_windows, val_masks, graph, params):
    """MAE over the fixed hidden validation entries, in normalized units."""
    fwd = forward_fn(params)
    errors, count = 0.0, 0
    with T.no_grad():
        for win, masks in zip(val_windows, val_masks):
            if masks is None:
                continue
            input_mask, loss_mask = masks
            out = fwd(win, graph, params, input_mask=input_mask)
            sel = loss_mask == 1
            errors += float(np.abs(out.predictions[sel] - win.values[sel]).sum())
            count += int(sel.sum())
    if count == 0:
        raise MetricError("no validation targets available")
    return errors / count


def fit_node_means(dataset: Dataset, train_slice=None):
    """Per-node mean of valid training entries, plus the global fallback."""
    sl = train_slice if train_slice is not None else slice(None)
    values = dataset.values[sl]
    mask = dataset.mask[sl].astype(bool)
    if not mask.any():
        raise ValidationError("no valid entries to fit node means")
    global_mean = float(values[mask].mean())
    node_means = np.full(dataset.n_nodes, global_mean)
    for i in range(dataset.n_nodes):
        col = values[:, i][mask[:, i]]
        if len(col):
            node_means[i] = float(col.mean())
    return node_means, global_mean


def baseline_mean(window: SpatioTemporalWindow, node_means):
    """Fill each missing entry with its node's training mean (or fallback)."""
    filled = np.where(window.mask == 1, window.values,
                      np.asarray(node_means)[None, :])
    return filled


def baseline_knn(window: SpatioTemporalWindow, graph: SensorGraph, node_means):
    """Fill missing entries with the weighted mean of same-step neighbors.

    Weights are the incoming edge weights; entries with no valid neighbor
    at that step fall back to the node mean.
    """
    filled = np.array(window.values, dtype=np.float64, copy=True)
    mask = window.mask
    for i in range(window.n_nodes):
        missing = np.flatnonzero(mask[:, i] == 0)
        if len(missing) == 0:
            continue
        neighbors = graph.in_neighbors(i)
        if neighbors:
            js = np.array([j for j, _ in neighbors], dtype=np.intp)
            ws = np.array([wt for _, wt in neighbors])
            nb_mask = mask[:, js][missing] == 1  # (n_missing, n_neighbors)
            nb_vals = np.where(nb_mask, window.values[:, js][missing], 0.0)
            denom = nb_mask @ ws
            numer = nb_vals @ ws
            covered = denom > 0.0
            filled[missing, i] = np.where(covered,
                                          numer / np.maximum(denom, 1e-300),
                                          node_means[i])
        else:
            filled[missing, i] = node_means[i]
    return filled


def _test_windows(dataset: Dataset, width, stride, split):
    _, _, test_sl = split_slices(dataset.n_steps, split)
    return make_windows(dataset.rows(test_sl), width, stride)


def _score_windows(windows, predict, stats, n_nodes):
    """Average per-window MAE of `predict(window)` on eval entries, data units."""
    per_window = []
    node_err = np.zeros(n_nodes)
    node_cnt = np.zeros(n_nodes, dtype=np.intp)
    n_eval = 0
    for win in windows:
        sel = win.eval_mask == 1
        if not sel.any():
            continue
        pred = stats.invert(predict(win))
        truth = stats.invert(win.values)
        err = np.abs(np.where(sel, pred - truth, 0.0))
        per_window.append(float(err[sel].mean()))
        n_eval += int(sel.sum())
        node_err += err.sum(axis=0)
        node_cnt += sel.sum(axis=0)
    if not per_window:
        raise MetricError("no evaluation targets in the test windows")
    per_node = [float(node_err[i] / node_cnt[i]) if node_cnt[i] else None
                for i in range(n_nodes)]
    return {"mae": float(np.mean(per_window)), "n_eval": int(n_eval),
            "per_window": per_window, "per_node": per_node}


def evaluate(params, dataset: Dataset, graph: SensorGraph, width, stride,
             split=DEFAULT_SPLIT):
    """Model MAE on the test split's hidden entries, in data units."""
    windows = _test_windows(dataset, width, stride, split)
    fwd = forward_fn(params)

    def predict(win):
        with T.no_grad():
            return fwd(win, graph, params).predictions

    return _score_windows(windows, predict, dataset.stats, dataset.n_nodes)


def evaluate_baseline(kind, dataset: Dataset, graph: SensorGraph, width, stride,
                      split=DEFAULT_SPLIT):
    """MAE of a reference baseline ("mean" or "knn") on the same protocol."""
    train_sl, _, _ = split_slices(dataset.n_steps, split)
    node_means, _ = fit_node_means(dataset, train_sl)
    windows = _test_windows(dataset, width, stride, split)
    if kind == "mean":
        predict = lambda win: baseline_mean(win, node_means)
    elif kind == "knn":
        predict = lambda win: baseline_knn(win, graph, node_means)
    else:
        raise ValidationError(f"unknown baseline {kind!r}")
    return _score_windows(windows, predict, dataset.stats, dataset.n_nodes)
