"""Training loop, loss, baselines, and evaluation."""

import tracemalloc

import numpy as np
import pytest

import graphfill.tensor as T
import graphfill.train
from graphfill.config import SubsampleConfig
from graphfill.data import (Dataset, SpatioTemporalWindow, normalize,
                            split_slices, training_whiten)
from graphfill.errors import DivergenceError, NonFiniteError, ValidationError
from graphfill.graph import SensorGraph, khop_subgraph
from graphfill.optim import AdamState
from graphfill.spin import SpinParameters, spin_forward
from graphfill.spin_h import SpinHParameters, spinh_forward
from graphfill.train import (TrainConfig, TrainState, baseline_knn,
                             baseline_mean, evaluate, evaluate_baseline,
                             fit_node_means, spin_loss, train, train_step)
from test_spin import random_case as spin_case
from test_spin_h import random_case as hub_case


def ring_graph(n):
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, 1.0))
        edges.append(((i + 1) % n, i, 1.0))
    return SensorGraph(n, edges)


def tiny_params(seed=0, n_nodes=4, n_layers=2, n_masked=1):
    return SpinParameters(n_nodes=n_nodes, d_h=8, n_layers=n_layers,
                          n_masked=n_masked, hidden=8, d_v=4, d_q=6,
                          rng=np.random.default_rng(seed))


def wave_dataset(n_steps=120, n_nodes=4, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps, dtype=np.float64)
    values = np.stack([np.sin(2 * np.pi * t / 12.0 + 0.5 * i)
                       for i in range(n_nodes)], axis=1)
    values += noise * rng.normal(size=values.shape)
    mask = np.ones((n_steps, n_nodes), dtype=np.uint8)
    return Dataset(values=values, mask=mask,
                   eval_mask=np.zeros_like(mask),
                   timestamps=t)


def random_window(seed, n_nodes=4, width=6):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(width, n_nodes))
    mask = np.ones((width, n_nodes), dtype=np.uint8)
    return SpatioTemporalWindow(values=values, mask=mask,
                                eval_mask=np.zeros_like(mask),
                                step_offsets=np.arange(width, dtype=float))


def test_single_layer_loss_is_masked_mae():
    for seed in range(5):
        window = random_window(seed)
        graph = ring_graph(4)
        params = tiny_params(seed, n_layers=1, n_masked=1)
        input_mask, loss_mask = training_whiten(
            window, rng=np.random.default_rng(seed), p=0.5)
        with T.Tape():
            out = spin_forward(window, graph, params, input_mask=input_mask)
            loss = spin_loss(out, window.values, loss_mask)
        want = np.abs(out.predictions - window.values)[loss_mask == 1].mean()
        assert abs(float(loss.data) - want) < 1e-12


def test_loss_gradients_reach_first_layer():
    window = random_window(3)
    graph = ring_graph(4)
    params = tiny_params(3, n_layers=2, n_masked=1)
    input_mask, loss_mask = training_whiten(
        window, rng=np.random.default_rng(3), p=0.5)
    with T.Tape():
        out = spin_forward(window, graph, params, input_mask=input_mask)
        T.backward(spin_loss(out, window.values, loss_mask))
    first_layer = [(n, p) for n, p in params.named_parameters()
                   if n.startswith("layers.0.")]
    assert first_layer
    for name, p in first_layer:
        g = p.grad
        assert g is not None, f"no gradient for {name}"
        assert np.all(np.isfinite(g))
    assert any(np.any(p.grad != 0.0) for _, p in first_layer)


def quick_config(**kw):
    base = dict(epochs_max=3, batches_per_epoch=2, batch_size=3, patience=3,
                seed=0, width=6, stride=6)
    base.update(kw)
    return TrainConfig(**base)


def test_training_is_deterministic():
    graph = ring_graph(4)
    runs = []
    for _ in range(2):
        ds, _ = normalize(wave_dataset(), split_slices(120)[0])
        params = tiny_params(1)
        _, history, best = train(ds, graph, quick_config(), params)
        runs.append((history, best))
    (h1, b1), (h2, b2) = runs
    assert len(h1) == len(h2) == 3
    for r1, r2 in zip(h1, h2):
        assert r1 == r2
    assert b1 == b2
    assert b1 == min(r["val_mae"] for r in h1)


def test_zero_lr_stops_after_patience():
    graph = ring_graph(4)
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    params = tiny_params(2)
    _, history, _ = train(ds, graph,
                          quick_config(epochs_max=10, patience=1, lr=0.0),
                          params)
    # epoch 1 sets the best; epoch 2 cannot improve strictly, so stop
    assert len(history) == 2
    assert history[0]["val_mae"] == history[1]["val_mae"]


def test_learns_node_constants():
    n_steps, n_nodes = 120, 3
    values = np.tile(np.array([-2.0, 0.5, 3.0]), (n_steps, 1))
    ds = Dataset(values=values,
                 mask=np.ones((n_steps, n_nodes), dtype=np.uint8),
                 eval_mask=np.zeros((n_steps, n_nodes), dtype=np.uint8),
                 timestamps=np.arange(n_steps, dtype=np.float64))
    ds, _ = normalize(ds, split_slices(n_steps)[0])
    graph = ring_graph(n_nodes)
    params = tiny_params(4, n_nodes=n_nodes)
    _, history, best = train(
        ds, graph, quick_config(epochs_max=40, batches_per_epoch=6,
                                patience=40, lr=0.01), params)
    assert best < 0.2 * history[0]["val_mae"]
    assert best < 0.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_learning_rate_raises_divergence():
    graph = ring_graph(4)
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    params = tiny_params(5)
    cfg = quick_config(epochs_max=2, batches_per_epoch=3, lr=1e200,
                       warmup_steps=1, patience=1)
    with pytest.raises(DivergenceError):
        train(ds, graph, cfg, params)


def fresh_state(params, seed=0, **kw):
    return TrainState(params=params, rng=np.random.default_rng(seed),
                      adam=AdamState(params.parameters()), best_state=[], **kw)


def whitened_batch(dataset, offsets, width, rng):
    """The whitened windows at `offsets`."""
    return [graphfill.train._whitened(dataset.window(off, width), rng)
            for off in offsets]


def test_divergence_leaves_no_gradient_behind(monkeypatch):
    # The step runs the batch's last window first, so a forward that fails
    # on the first window fails after every other window's backward.
    graph = ring_graph(4)
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    params = tiny_params(7)
    state = fresh_state(params, epoch=3, step=7)
    batch = whitened_batch(ds, (0, 10, 20, 30), 6, state.rng)
    seen = []

    def failing_on_first(win, graph, params, input_mask=None):
        seen.append(id(win))
        if win is batch[0]:
            raise NonFiniteError("non-finite values produced by a forward "
                                 "operation")
        return spin_forward(win, graph, params, input_mask=input_mask)

    monkeypatch.setattr(graphfill.train, "spin_forward", failing_on_first)
    with pytest.raises(DivergenceError, match="at epoch 3, step 7: non-finite"):
        train_step(state, graph, batch, lr=0.01)
    assert seen == [id(win) for win in reversed(batch)]
    assert all(p.grad is None for p in params.parameters())
    assert state.step == 7 and state.adam.t == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_terms_whose_sum_overflows_raise_divergence(monkeypatch):
    # Every window's term is finite (about 6e307), so each window runs its
    # backward; their sum is not, and the step must still diverge.
    graph = ring_graph(4)
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    params = tiny_params(7)
    state = fresh_state(params, epoch=2, step=5)
    batch = whitened_batch(ds, (0, 10, 20, 30), 6, state.rng)

    def huge_loss(output, truth, loss_mask):
        term = spin_loss(output, truth, loss_mask)
        return T.div(term, T.Value(term.data / 6e307))

    monkeypatch.setattr(graphfill.train, "spin_loss", huge_loss)
    with pytest.raises(DivergenceError, match="at epoch 2, step 5: non-finite"):
        train_step(state, graph, batch, lr=0.01)
    assert all(p.grad is None for p in params.parameters())


def test_step_memory_does_not_grow_with_batch():
    # A step holds one window's activations at a time, so its allocation
    # peak with 8 windows stays near the largest one-window peak; one tape
    # over the whole batch holds all 8 (about 6x at W=24, N=20).
    n_nodes, width = 6, 12
    rng = np.random.default_rng(0)
    edges = [(i, j, 1.0) for i in range(n_nodes) for j in range(n_nodes)
             if i != j and rng.random() < 0.5]
    graph = SensorGraph(n_nodes, edges)
    ds, _ = normalize(wave_dataset(n_nodes=n_nodes), split_slices(120)[0])
    batch = whitened_batch(ds, range(0, 80, 10), width, rng)

    def peak(windows):
        state = fresh_state(tiny_params(8, n_nodes=n_nodes))
        tracemalloc.start()
        try:
            train_step(state, graph, windows, lr=0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(batch[:1])  # warm up: a first step may allocate one-time caches
    one = max(peak([item]) for item in batch)
    assert peak(batch) <= 1.25 * one  # 1.03 here; 5.7 with one tape


def test_whiten_onto_eval_entries_is_rejected(monkeypatch):
    # The loop re-checks that hidden loss targets never touch evaluation
    # entries; force a broken whiten to confirm the guard fires.
    n_steps, n_nodes = 80, 3
    rng = np.random.default_rng(0)
    mask = np.ones((n_steps, n_nodes), dtype=np.uint8)
    eval_mask = np.zeros_like(mask)
    for t in range(0, n_steps, 4):
        mask[t, t % n_nodes] = 0
        eval_mask[t, t % n_nodes] = 1
    ds = Dataset(values=rng.normal(size=(n_steps, n_nodes)),
                 mask=mask, eval_mask=eval_mask,
                 timestamps=np.arange(n_steps, dtype=np.float64))
    ds, _ = normalize(ds, split_slices(n_steps)[0])
    params = tiny_params(6, n_nodes=n_nodes)

    def leaky_whiten(window, rng=None, p=None):
        return window.mask.copy(), window.eval_mask.copy()

    monkeypatch.setattr("graphfill.train.training_whiten", leaky_whiten)
    with pytest.raises(ValidationError, match="loss targets on evaluation"):
        train(ds, ring_graph(n_nodes), quick_config(), params)


@pytest.mark.parametrize("per_node_hubs", [None, True],
                         ids=["spin", "spin-h per-node hubs"])
@pytest.mark.parametrize("subsample", [SubsampleConfig(n_seeds=2, k_hops=1),
                                       SubsampleConfig(n_seeds=1, k_hops=0),
                                       SubsampleConfig(n_seeds=1, k_hops=1),
                                       SubsampleConfig(n_seeds=3, k_hops=0)],
                         ids=["2 seeds 1 hop", "1 seed 0 hops", "1 seed 1 hop",
                              "3 seeds 0 hops"])
def test_subsampled_batches_run(subsample, per_node_hubs):
    # all but the first keep at most 3 of the ring's 4 nodes
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    if per_node_hubs is None:
        params = tiny_params(8)
    else:
        params = SpinHParameters(n_nodes=4, d_h=8, d_z=8, n_hubs=2, n_layers=2,
                                 n_masked=1, hidden=8, d_v=4, d_q=6,
                                 per_node_hubs=True, rng=np.random.default_rng(8))
    cfg = quick_config(epochs_max=2, patience=2, subsample=subsample)
    _, history, best = train(ds, ring_graph(4), cfg, params)
    assert len(history) == 2
    assert np.isfinite(best)


@pytest.mark.parametrize("variant", ["spin", "spin-h", "spin-h per-node hubs"])
def test_khop_subgraph_predictions_match_full_graph(variant):
    """With k = L hops a seed's subgraph holds everything that reaches it
    in L layers, so its predictions equal the full graph's bit for bit;
    with k = L - 1 they differ."""
    n_layers, seeds = 2, [0, 4]
    if variant == "spin":
        window, graph, params = spin_case(3, n_nodes=9, width=6,
                                          n_layers=n_layers, edge_p=0.2)
        fwd = spin_forward
    else:
        window, graph, params = hub_case(3, n_nodes=9, width=6,
                                         n_layers=n_layers, edge_p=0.2,
                                         per_node_hubs=variant.endswith("hubs"))
        fwd = spinh_forward
    gaps = {}
    with T.no_grad():
        full = fwd(window, graph, params).predictions[:, seeds]
        for k in (n_layers, n_layers - 1):
            sub, cols, seed_mask = khop_subgraph(graph, seeds, k)
            assert len(cols) < graph.n_nodes
            part = SpatioTemporalWindow(
                values=window.values[:, cols], mask=window.mask[:, cols],
                eval_mask=window.eval_mask[:, cols],
                step_offsets=window.step_offsets, nodes=cols)
            got = fwd(part, sub, params).predictions[:, seed_mask]
            gaps[k] = float(np.max(np.abs(got - full)))
    assert gaps[n_layers] == 0.0
    assert gaps[n_layers - 1] > 0.0


def test_config_validation():
    with pytest.raises(ValidationError):
        quick_config(patience=5, epochs_max=3).validate()
    with pytest.raises(ValidationError):
        quick_config(width=0).validate()
    with pytest.raises(ValidationError):
        quick_config(lr=-0.1).validate()
    with pytest.raises(ValidationError):
        quick_config(subsample=SubsampleConfig(n_seeds=0, k_hops=1)).validate()


def test_training_split_must_cover_one_window():
    ds, _ = normalize(wave_dataset(n_steps=40), split_slices(40)[0])
    params = tiny_params(9)
    with pytest.raises(ValidationError, match="training split"):
        train(ds, ring_graph(4), quick_config(width=30, stride=30), params)


def test_fit_node_means_with_gaps():
    values = np.array([[1.0, 10.0], [3.0, 20.0], [5.0, 30.0]])
    mask = np.array([[1, 0], [1, 0], [0, 0]], dtype=np.uint8)
    ds = Dataset(values=values, mask=mask,
                 eval_mask=np.zeros_like(mask),
                 timestamps=np.arange(3, dtype=np.float64))
    node_means, global_mean = fit_node_means(ds)
    assert node_means[0] == pytest.approx(2.0)
    assert global_mean == pytest.approx(2.0)
    assert node_means[1] == pytest.approx(global_mean)  # nothing observed


def test_baseline_mean_fills_only_missing():
    win = random_window(30, n_nodes=3)
    win.mask[2, 1] = 0
    filled = baseline_mean(win, np.array([5.0, 6.0, 7.0]))
    assert filled[2, 1] == 6.0
    keep = win.mask == 1
    assert np.array_equal(filled[keep], win.values[keep])


def test_baseline_knn_weighted_mean_and_fallbacks():
    graph = SensorGraph(3, [(0, 2, 2.0), (1, 2, 1.0)])
    values = np.array([[1.0, 4.0, 0.0],
                       [2.0, 8.0, 0.0],
                       [3.0, 6.0, 0.0]])
    mask = np.array([[1, 1, 0],
                     [1, 0, 0],
                     [0, 0, 0]], dtype=np.uint8)
    win = SpatioTemporalWindow(values=values, mask=mask,
                               eval_mask=np.zeros_like(mask),
                               step_offsets=np.arange(3, dtype=float))
    node_means = np.array([-1.0, -2.0, -3.0])
    filled = baseline_knn(win, graph, node_means)
    assert filled[0, 2] == pytest.approx((2.0 * 1.0 + 1.0 * 4.0) / 3.0)
    assert filled[1, 2] == pytest.approx(2.0)    # only node 0 observed
    assert filled[2, 2] == pytest.approx(-3.0)   # no neighbor observed
    assert filled[2, 0] == pytest.approx(-1.0)   # node 0 has no in-edges
    assert filled[0, 0] == 1.0                   # observed pass-through


def test_mean_baseline_is_exact_on_constant_nodes():
    n_steps, n_nodes = 100, 3
    consts = np.array([-1.0, 2.0, 4.0])
    values = np.tile(consts, (n_steps, 1))
    mask = np.ones((n_steps, n_nodes), dtype=np.uint8)
    eval_mask = np.zeros_like(mask)
    rng = np.random.default_rng(1)
    test_start = split_slices(n_steps)[2].start
    for t in range(test_start, n_steps, 3):
        i = rng.integers(n_nodes)
        mask[t, i] = 0
        eval_mask[t, i] = 1
    ds = Dataset(values=values, mask=mask, eval_mask=eval_mask,
                 timestamps=np.arange(n_steps, dtype=np.float64))
    ds, _ = normalize(ds, split_slices(n_steps)[0])
    metrics = evaluate_baseline("mean", ds, ring_graph(n_nodes), 10, 10)
    assert metrics["mae"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["n_eval"] > 0
    assert len(metrics["per_node"]) == n_nodes


def test_evaluate_reports_data_units():
    ds = wave_dataset(n_steps=100, n_nodes=4, noise=0.0)
    rng = np.random.default_rng(2)
    test_start = split_slices(100)[2].start
    for t in range(test_start, 100, 2):
        i = rng.integers(4)
        ds.mask[t, i] = 0
        ds.eval_mask[t, i] = 1
    ds, stats = normalize(ds, split_slices(100)[0])
    params = tiny_params(11)
    metrics = evaluate(params, ds, ring_graph(4), 10, 10)
    with T.no_grad():
        manual = []
        for win_start in range(test_start, 100 - 10 + 1, 10):
            sl = slice(win_start, win_start + 10)
            win = SpatioTemporalWindow(values=ds.values[sl], mask=ds.mask[sl],
                                       eval_mask=ds.eval_mask[sl],
                                       step_offsets=ds.timestamps[sl])
            if not (win.eval_mask == 1).any():
                continue
            pred = stats.invert(
                spin_forward(win, ring_graph(4), params).predictions)
            truth = stats.invert(win.values)
            manual.append(np.abs(pred - truth)[win.eval_mask == 1].mean())
    assert metrics["mae"] == pytest.approx(float(np.mean(manual)), abs=1e-12)


def test_unknown_baseline_rejected():
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    with pytest.raises(ValidationError):
        evaluate_baseline("median", ds, ring_graph(4), 10, 10)
