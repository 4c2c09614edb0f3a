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

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .data import (DEFAULT_SPLIT, Dataset, SpatioTemporalWindow, make_windows,
                   split_slices, training_whiten)
from .errors import (DivergenceError, EmptySetError, FieldError, MetricError,
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

    Sum over layers of mean |prediction - truth| over the positions
    loss_mask selects. Gradients flow into every layer's readout,
    supervising the representations at each depth.
    """
    pos = np.flatnonzero(loss_mask)
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
    """One step's (batch_graph, [(window, input_mask, loss_mask)]): windows
    with nothing observed, or no loss target on a seed node, are left out."""
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
        try:
            input_mask, loss_mask = training_whiten(win, rng=rng)
        except ValidationError:
            continue  # nothing observed in this window; skip it
        if np.any(loss_mask & win.eval_mask):
            raise ValidationError(
                "whiten produced loss targets on evaluation entries")
        if seed_mask is not None:
            loss_mask = loss_mask & seed_mask
            if not loss_mask.any():
                continue
        batch.append((win, input_mask, loss_mask))
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
        for win, input_mask, loss_mask in reversed(batch):
            with T.Tape():
                term = spin_loss(fwd(win, graph, state.params,
                                     input_mask=input_mask),
                                 win.values, loss_mask)
                T.backward(T.div(term, n))
            terms.append(term.data)
        loss = T.div(reduce(T.add, reversed(terms)), n)
    except NonFiniteError as exc:
        for p in state.adam.params:
            p.grad = None
        raise DivergenceError(f"non-finite loss at epoch {state.epoch}, "
                              f"step {state.step}: {exc}") from exc
    clip_global_norm(state.adam.params, GRAD_CLIP_NORM)
    adam_step(state.adam, lr)
    state.step += 1
    return float(loss.data)


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
    val_windows = make_windows(val_view, config.width, config.stride)
    val_masks = _val_input_and_loss_masks(val_windows, config.seed)
    if all(m is None for m in val_masks):
        raise ValidationError("validation split has no usable windows")

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

        val_mae = _validation_mae(val_windows, val_masks, graph, params)
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


def _score_windows(windows, predict, stats, n_nodes):
    """Average per-window MAE of `predict(window)` on eval entries, data units."""
    per_window = []
    node_err = np.zeros(n_nodes)
    node_cnt = np.zeros(n_nodes, dtype=np.intp)
    n_eval = 0
    for win in windows:
        sel = win.eval_mask
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
