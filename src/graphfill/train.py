"""Training loop, evaluation, and the two reference baselines.

Training follows a count-based epoch: every epoch draws batches_per_epoch
minibatches of batch_size window offsets uniformly with replacement from
the training split, hides a random fraction of each window's valid
entries (self-supervision), and minimizes the layer-wise loss — the sum
over layers of the mean absolute error of that layer's readout on the
hidden entries. The sample is the whitened window: the forward reads its
`mask`, the loss its `eval_mask`. Validation whitens with a fixed seed so
that every epoch scores the exact same task, through `evaluate`'s error
pass; early stopping tracks strict improvements of validation MAE.

Everything here works on normalized values; `evaluate` converts back to
data units before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .data import (DEFAULT_SPLIT, Dataset, SpatioTemporalWindow, make_windows,
                   split_slices, training_whiten)
from .errors import (DivergenceError, FieldError, MetricError, NonFiniteError,
                     ValidationError)
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

    Sum over layers of mean |prediction - truth| over the positions
    loss_mask selects. Gradients flow into every layer's readout,
    supervising the representations at each depth.
    """
    return T.layer_l1(output.readouts, truth, np.flatnonzero(loss_mask))


def _whitened(win, rng):
    """`win` as a training sample: `training_whiten` moves a share of its
    observed entries from `mask`, which the forward reads, to `eval_mask`,
    which the loss or score reads. None when nothing is observed."""
    try:
        input_mask, hidden = training_whiten(win, rng=rng)
    except ValidationError:
        return None
    return replace(win, mask=input_mask, eval_mask=hidden)


def _column_subset_window(win, cols):
    return replace(win, values=win.values[:, cols], mask=win.mask[:, cols],
                   eval_mask=win.eval_mask[:, cols], nodes=cols)


@dataclass
class TrainState:
    """Everything the training loop carries from one step to the next."""
    params: object
    rng: np.random.Generator
    adam: AdamState
    best_state: list
    step: int = 0
    epoch: int = 0
    history: list = field(default_factory=list)
    best_val: float = np.inf
    bad_epochs: int = 0


def draw_batch(rng, train_view: Dataset, graph: SensorGraph,
               config: TrainConfig):
    """One step's (batch_graph, [whitened window]): windows with nothing
    observed, or no hidden entry on a seed node, are left out."""
    offsets = rng.integers(0, train_view.n_steps - config.width + 1,
                           size=config.batch_size)
    windows = [train_view.window(off, config.width) for off in offsets]
    batch_graph, seed_mask = graph, None
    if config.subsample is not None:
        seeds = rng.choice(graph.n_nodes, size=min(config.subsample.n_seeds,
                                                   graph.n_nodes), replace=False)
        batch_graph, cols, seed_mask = khop_subgraph(
            graph, seeds, config.subsample.k_hops)
        windows = [_column_subset_window(win, cols) for win in windows]
    batch = []
    for win in windows:
        sample = _whitened(win, rng)
        if sample is None:
            continue
        if np.any(sample.eval_mask & win.eval_mask):
            raise ValidationError(
                "whiten produced loss targets on evaluation entries")
        if seed_mask is not None:
            sample.eval_mask = sample.eval_mask & seed_mask
            if not sample.eval_mask.any():
                continue
        batch.append(sample)
    return batch_graph, batch


def train_step(state: TrainState, graph: SensorGraph, batch, lr) -> float:
    """One optimizer step on one tape per window, last window first;
    returns the batch's loss, the mean over its windows of `spin_loss` (a
    sum over layers).

    A window's root is its term over the window count: its backward seeds
    it with the 1/n that one tape over the batch would, and the leaves sum
    window by window in that tape's reverse order. So the bits are the
    same, and one window's activations are alive at a time. A divergence
    clears every gradient before it raises.
    """
    fwd = forward_fn(state.params)
    n = float(len(batch))
    terms = []
    try:
        for win in reversed(batch):
            with T.Tape():
                term = spin_loss(fwd(win, graph, state.params), win.values,
                                 win.eval_mask)
                T.backward(T.div(term, n))
            terms.append(term.data)
        with np.errstate(over="ignore"):  # terms >= 0: an overflow stays inf
            loss = sum(reversed(terms)) / n
        if not np.isfinite(loss):
            raise NonFiniteError("non-finite batch loss")
    except NonFiniteError as exc:
        for p in state.adam.params:
            p.grad = None
        raise DivergenceError(f"non-finite loss at epoch {state.epoch}, "
                              f"step {state.step}: {exc}") from exc
    clip_global_norm(state.adam.params, GRAD_CLIP_NORM)
    adam_step(state.adam, lr)
    state.step += 1
    return float(loss)


def train(dataset: Dataset, graph: SensorGraph, config: TrainConfig, params,
          progress=None):
    """Fit `params` in place; returns (params, history, best_val_mae).

    dataset must already be normalized. history is a list of per-epoch
    dicts with keys epoch, train_loss, val_mae, lr.
    """
    T._keep_large_allocations_on_heap()
    config.validate()
    train_sl, val_sl, _ = split_slices(dataset.n_steps, config.split)
    train_view = _split_rows(dataset, train_sl, "training", config.width)
    val_view = _split_rows(dataset, val_sl, "validation", config.width)
    seed = 100003 * (config.seed + 1)  # each validation window's own seed
    val_windows = [_whitened(win, np.random.default_rng(seed + k)) for k, win
                   in enumerate(make_windows(val_view, config.width, config.stride))]
    val_windows = [win for win in val_windows if win is not None]
    if not val_windows:
        raise ValidationError(
            f"the validation split ('data.split', data rows "
            f"{val_sl.start + 1}-{val_sl.stop}) has no observed entry to hide")

    param_list = params.parameters()
    state = TrainState(params=params, rng=np.random.default_rng(config.seed),
                       adam=AdamState(param_list),
                       best_state=[p.data.copy() for p in param_list])
    for epoch in range(1, config.epochs_max + 1):
        state.epoch = epoch
        losses, lr = [], 0.0
        for _ in range(config.batches_per_epoch):
            batch_graph, batch = draw_batch(state.rng, train_view, graph, config)
            if batch:
                lr = lr_schedule(state.step, epoch - 1, base_lr=config.lr,
                                 warmup_steps=config.warmup_steps,
                                 restart_period_epochs=config.restart_period)
                losses.append(train_step(state, batch_graph, batch, lr))

        val_mae = _validation_mae(val_windows, graph, params)
        train_loss = float(np.mean(losses)) if losses else np.nan
        state.history.append({"epoch": epoch, "train_loss": train_loss,
                              "val_mae": val_mae, "lr": lr})
        if progress is not None:
            progress(state.history[-1])
        if val_mae < state.best_val:
            state.best_val, state.bad_epochs = val_mae, 0
            state.best_state = [p.data.copy() for p in param_list]
        else:
            state.bad_epochs += 1
            if state.bad_epochs >= config.patience:
                break

    for p, best in zip(param_list, state.best_state):
        p.data = best.copy()
    return params, state.history, state.best_val


def _validation_mae(val_windows, graph, params):
    """MAE over the fixed hidden validation entries, in normalized units."""
    sums, counts, _, _ = _error_pass(val_windows, partial(_predict, params, graph))
    return sum(sums) / sum(counts)


def _predict(params, graph, win):
    """The model's no-grad predictions for `win`."""
    with T.no_grad():
        return forward_fn(params)(win, graph, params).predictions


def _error_pass(windows, predict):
    """|predict(window) - truth| on eval entries: per window its sum and
    count, per node both over all windows; (sums, counts, node_sums,
    node_counts). A window with no eval entry is left out."""
    sums, counts, node_err, node_cnt = [], [], 0.0, 0
    for win in windows:
        sel = win.eval_mask
        if not sel.any():
            continue
        err = np.abs(np.where(sel, predict(win) - win.values, 0.0))
        sums.append(float(err[sel].sum()))
        counts.append(int(sel.sum()))
        node_err = node_err + err.sum(axis=0)
        node_cnt = node_cnt + sel.sum(axis=0)
    return sums, counts, node_err, node_cnt


def fit_node_means(dataset: Dataset, train_slice=None):
    """Per-node mean of valid training entries, plus the global fallback."""
    sl = train_slice if train_slice is not None else slice(None)
    values = dataset.values[sl]
    mask = dataset.mask[sl]
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
    return np.where(window.mask, window.values, np.asarray(node_means)[None, :])


def baseline_knn(window: SpatioTemporalWindow, graph: SensorGraph, node_means):
    """Fill missing entries with the weighted mean of same-step neighbors.

    Weights are the incoming edge weights; entries with no valid neighbor
    at that step fall back to the node mean.
    """
    adjacency = np.zeros((graph.n_nodes, graph.n_nodes))
    adjacency[graph.src, graph.dst] = graph.weight
    observed = window.mask
    numer = np.where(observed, window.values, 0.0) @ adjacency  # (W, N)
    denom = observed @ adjacency
    knn = np.where(denom > 0.0, numer / np.maximum(denom, 1e-300),
                   np.asarray(node_means)[None, :])
    return np.where(observed, window.values, knn)


def _split_rows(dataset: Dataset, sl, name, width):
    """The rows of split `sl`, which must hold one window of `width`."""
    if sl.stop - sl.start < width:
        raise FieldError(f"'data.W' ({width}) exceeds the {name} split's "
                         f"{sl.stop - sl.start} steps")
    return dataset.rows(sl)


def _test_windows(dataset: Dataset, width, stride, split):
    _, _, test_sl = split_slices(dataset.n_steps, split)
    return make_windows(_split_rows(dataset, test_sl, "test", width),
                        width, stride)


def _score_windows(windows, predict, stats):
    """Average per-window MAE of `predict(window)` on eval entries, in data
    units: errors sum in normalized units, and each figure is scaled by
    stats.std once, so data near the float64 limit does not overflow."""
    sums, counts, node_err, node_cnt = _error_pass(windows, predict)
    if not sums:
        raise MetricError("no evaluation targets in the test windows")
    per_window = [s / c for s, c in zip(sums, counts)]
    per_node = [float(e / c) * stats.std if c else None
                for e, c in zip(node_err, node_cnt)]
    return {"mae": float(np.mean(per_window)) * stats.std, "n_eval": sum(counts),
            "per_window": [e * stats.std for e in per_window],
            "per_node": per_node}


def evaluate(params, dataset: Dataset, graph: SensorGraph, width, stride,
             split=DEFAULT_SPLIT):
    """Model MAE on the test split's hidden entries, in data units."""
    windows = _test_windows(dataset, width, stride, split)
    return _score_windows(windows, partial(_predict, params, graph), dataset.stats)


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
    return _score_windows(windows, predict, dataset.stats)
