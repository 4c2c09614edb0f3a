"""Validation and `evaluate` against the scoring code they replaced, bit for bit.

Training and validation now carry a whitened window (the forward reads
its `mask`, the score its `eval_mask`), and validation, `evaluate` and the
baselines score through one error pass. `reference_train` keeps the old
code: validation's (input mask, loss mask) pairs with `None` for a window
with nothing observed, its own no-grad loop, and `evaluate`'s
`_score_windows`.

Over drawn series (spin and spin-h, N 3-5, W 2-6, sparse and blank
windows, k-hop column subsets whose hidden entries are cut to the seed
nodes), the new validation MAE must have the old one's bits, and every
`metrics.json` field of `evaluate` and both baselines (`mae`, `n_eval`,
`per_window`, `per_node` with its `None` nodes) must equal the old one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphfill.tensor as T
from graphfill.data import Dataset, make_windows, normalize, split_slices
from graphfill.errors import MetricError
from graphfill.graph import SensorGraph, khop_subgraph
from graphfill.spin import SpinParameters
from graphfill.spin_h import SpinHParameters
from graphfill.train import (_column_subset_window, _validation_mae,
                             _whitened, baseline_knn, baseline_mean, evaluate,
                             evaluate_baseline, fit_node_means, forward_fn)
from reference_train import (_score_windows, _val_input_and_loss_masks,
                             _validation_mae as reference_validation_mae)


def problem(variant, n_nodes, seed):
    """(graph, params, rng) of a small random problem."""
    rng = np.random.default_rng(seed)
    edges = [(s, d, float(rng.uniform(0.5, 1.5)))
             for s in range(n_nodes) for d in range(n_nodes)
             if s != d and rng.random() < 0.5]
    small = dict(n_nodes=n_nodes, d_h=4, n_layers=2, n_masked=1, hidden=4,
                 d_v=2, d_q=2, rng=rng)
    params = (SpinParameters(**small) if variant == "spin"
              else SpinHParameters(d_z=4, n_hubs=1, **small))
    return SensorGraph(n_nodes, edges), params, rng


@st.composite
def validation_cases(draw):
    return dict(variant=draw(st.sampled_from(["spin", "spin-h"])),
                n_nodes=draw(st.integers(3, 5)), width=draw(st.integers(2, 6)),
                n_windows=draw(st.integers(1, 5)),
                observed=draw(st.sampled_from([0.1, 0.5, 0.9])),
                blank=draw(st.lists(st.integers(0, 4), max_size=3)),
                khop=draw(st.none() | st.tuples(st.integers(1, 3),
                                                st.integers(0, 2))),
                seed=draw(st.integers(0, 2**16)))


@settings(max_examples=40)
@given(validation_cases())
@example(dict(variant="spin", n_nodes=4, width=3, n_windows=3, observed=0.5,
              blank=[0, 2], khop=None, seed=1))
@example(dict(variant="spin-h", n_nodes=5, width=4, n_windows=4, observed=0.9,
              blank=[1], khop=(1, 1), seed=2))
def test_validation_mae_matches_reference(case):
    graph, params, rng = problem(case["variant"], case["n_nodes"], case["seed"])
    width, n = case["width"], case["n_nodes"]
    n_steps = width * case["n_windows"]
    mask = rng.random((n_steps, n)) < case["observed"]
    for k in case["blank"]:  # windows with nothing observed
        mask[k * width:(k + 1) * width] = False
    data = Dataset(values=rng.normal(size=(n_steps, n)), mask=mask)
    windows = make_windows(data, width, width)
    seed_mask = None
    if case["khop"] is not None:
        n_seeds, k_hops = case["khop"]
        seeds = rng.choice(n, size=min(n_seeds, n), replace=False)
        graph, cols, seed_mask = khop_subgraph(graph, seeds, k_hops)
        windows = [_column_subset_window(win, cols) for win in windows]

    old_masks = _val_input_and_loss_masks(windows, case["seed"])
    samples = []
    for k, win in enumerate(windows):  # the whiten `train` gives window k
        sample = _whitened(win, np.random.default_rng(
            100003 * (case["seed"] + 1) + k))
        assert (sample is None) == (old_masks[k] is None)
        if sample is None:
            continue
        assert np.array_equal(sample.mask, old_masks[k][0])
        if seed_mask is not None:
            sample.eval_mask = sample.eval_mask & seed_mask
            old_masks[k] = (old_masks[k][0], old_masks[k][1] & seed_mask)
        samples.append(sample)
    if not any(s.eval_mask.any() for s in samples):
        with pytest.raises(MetricError):
            reference_validation_mae(windows, old_masks, graph, params)
        return
    want = reference_validation_mae(windows, old_masks, graph, params)
    assert _validation_mae(samples, graph, params).hex() == want.hex()


@st.composite
def evaluation_cases(draw):
    return dict(variant=draw(st.sampled_from(["spin", "spin-h"])),
                n_nodes=draw(st.integers(3, 5)), width=draw(st.integers(2, 6)),
                stride=draw(st.integers(1, 4)),
                hidden=draw(st.sampled_from([0.0, 0.05, 0.3])),
                silent_node=draw(st.booleans()),
                scale=draw(st.sampled_from([1.0, 1e-300, 1e300])),
                seed=draw(st.integers(0, 2**16)))


def old_scores(case, dataset, graph, params, windows):
    """Every metrics.json entry by the old `_score_windows`."""
    n, stats = dataset.n_nodes, dataset.stats
    fwd = forward_fn(params)

    def predict(win):
        with T.no_grad():
            return fwd(win, graph, params).predictions

    train_sl = split_slices(dataset.n_steps)[0]
    node_means, _ = fit_node_means(dataset, train_sl)
    predictors = {case["variant"]: predict,
                  "mean": lambda win: baseline_mean(win, node_means),
                  "knn": lambda win: baseline_knn(win, graph, node_means)}
    scores = {}
    for name, fn in predictors.items():
        try:
            scores[name] = repr(_score_windows(windows, fn, stats, n))
        except MetricError:
            scores[name] = "MetricError"
    return scores


def new_scores(case, dataset, graph, params):
    width, stride = case["width"], case["stride"]
    scorers = {case["variant"]: lambda: evaluate(params, dataset, graph, width,
                                                 stride),
               "mean": lambda: evaluate_baseline("mean", dataset, graph, width,
                                                 stride),
               "knn": lambda: evaluate_baseline("knn", dataset, graph, width,
                                                stride)}
    scores = {}
    for name, score in scorers.items():
        try:
            scores[name] = repr(score())
        except MetricError:
            scores[name] = "MetricError"
    return scores


@settings(max_examples=30)
@given(evaluation_cases())
@example(dict(variant="spin", n_nodes=4, width=3, stride=2, hidden=0.3,
              silent_node=True, scale=1.0, seed=3))
@example(dict(variant="spin-h", n_nodes=3, width=4, stride=4, hidden=0.0,
              silent_node=False, scale=1e300, seed=4))
def test_evaluate_and_baselines_match_reference(case):
    graph, params, rng = problem(case["variant"], case["n_nodes"], case["seed"])
    n_steps, n = 40, case["n_nodes"]
    values = case["scale"] * rng.normal(size=(n_steps, n))
    observed = rng.random((n_steps, n)) < 0.9
    hidden = observed & (rng.random((n_steps, n)) < case["hidden"])
    if case["silent_node"]:  # a node with nothing to score: per_node None
        hidden[:, 0] = False
    raw = Dataset(values=values, mask=observed & ~hidden, eval_mask=hidden)
    dataset, _ = normalize(raw, split_slices(n_steps)[0])
    test_rows = dataset.rows(split_slices(n_steps)[2])
    windows = make_windows(test_rows, case["width"], case["stride"])
    want = old_scores(case, dataset, graph, params, windows)
    assert new_scores(case, dataset, graph, params) == want
    if case["silent_node"] and want["mean"] != "MetricError":
        assert "'per_node': [None" in want["mean"]

