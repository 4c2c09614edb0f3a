"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. The synthetic end-to-end experiment (criterion 7) trains a
real model and takes a few minutes; everything else is fast.
"""

import json
import time

import numpy as np
import pytest

import graphfill.tensor as T
import unfused_ops as U
from graphfill.cli import main
from graphfill.data import (Dataset, SpatioTemporalWindow,
                            inject_block_missing, inject_point_missing,
                            inject_sparsity_sweep, normalize, split_slices)
from graphfill.graph import SensorGraph, build_adjacency_gaussian
from graphfill.spin import SpinParameters, spin_forward
from graphfill.spin_h import SpinHParameters, spinh_forward
from graphfill.synth import synth_series
from graphfill.train import (TrainConfig, evaluate, evaluate_baseline,
                             spin_loss, train)
from test_spin import brute_force, random_case
from test_spin_h import random_case as random_hub_case


# --- criterion 1: full-model finite-difference gradient check ---------------

def _projection_loss_value(out, projections):
    acc = None
    for readout, proj in zip(out.readouts, projections):
        term = U.vsum(U.mul(readout, T.Value(proj)))
        acc = term if acc is None else U.add(acc, term)
    return acc


def _projection_loss_float(forward, window, graph, params, projections):
    with T.no_grad():
        out = forward(window, graph, params)
    return float(sum(np.sum(r.data * proj)
                     for r, proj in zip(out.readouts, projections)))


def _fd_on_array(arr, loss_fn, h=1e-6):
    flat = arr.reshape(-1)
    fd = np.zeros_like(flat)
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + h
        up = loss_fn()
        flat[k] = keep - h
        down = loss_fn()
        flat[k] = keep
        fd[k] = (up - down) / (2.0 * h)
    return fd.reshape(arr.shape)


def _full_model_gradcheck(forward, window, graph, params, n_layers, tol=1e-4):
    rng = np.random.default_rng(99)
    w, n = window.values.shape
    projections = [rng.normal(size=(w, n)) for _ in range(n_layers)]
    with T.Tape():
        out = forward(window, graph, params)
        T.backward(_projection_loss_value(out, projections))
    loss_fn = lambda: _projection_loss_float(forward, window, graph, params,
                                             projections)
    worst = 0.0
    for name, p in params.named_parameters():
        got = p.grad
        if got is None:
            got = np.zeros_like(p.data)
        fd = _fd_on_array(p.data, loss_fn)
        err = np.max(np.abs(got - fd)) / (1.0 + np.max(np.abs(fd)))
        assert err < tol, f"{name}: fd mismatch {err:.3g}"
        worst = max(worst, err)
    got = out.x_leaf.grad.reshape(w, n)
    fd = _fd_on_array(window.values, loss_fn)
    err = np.max(np.abs(got - fd)) / (1.0 + np.max(np.abs(fd)))
    assert err < tol, f"input values: fd mismatch {err:.3g}"
    return max(worst, err)


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(12)
    ring4 = SensorGraph(4, [(i, (i + 1) % 4, 1.0) for i in range(4)]
                        + [((i + 1) % 4, i, 0.5) for i in range(4)])
    win4 = SpatioTemporalWindow(
        values=rng.normal(size=(6, 4)),
        mask=(rng.random((6, 4)) < 0.7).astype(np.uint8),
        eval_mask=np.zeros((6, 4), dtype=np.uint8),
        step_offsets=np.arange(6, dtype=float))
    win4.mask[0, 0] = 1
    spin = SpinParameters(n_nodes=4, d_h=8, n_layers=2, n_masked=1, hidden=6,
                          d_v=3, d_q=4, rng=np.random.default_rng(1))
    err_spin = _full_model_gradcheck(spin_forward, win4, ring4, spin, 2)

    ring3 = SensorGraph(3, [(i, (i + 1) % 3, 1.0) for i in range(3)]
                        + [((i + 1) % 3, i, 0.5) for i in range(3)])
    win3 = SpatioTemporalWindow(
        values=rng.normal(size=(6, 3)),
        mask=(rng.random((6, 3)) < 0.7).astype(np.uint8),
        eval_mask=np.zeros((6, 3), dtype=np.uint8),
        step_offsets=np.arange(6, dtype=float))
    win3.mask[0, 0] = 1
    hub = SpinHParameters(n_nodes=3, d_h=8, d_z=8, n_hubs=2, n_layers=2,
                          n_masked=1, hidden=6, d_v=3, d_q=4,
                          rng=np.random.default_rng(2))
    err_hub = _full_model_gradcheck(spinh_forward, win3, ring3, hub, 2)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    print(f"\ncriterion 1: worst rel err core {err_spin:.2e} / "
          f"hub {err_hub:.2e} in {elapsed:.1f}s")


# --- criterion 2: masking invariance with every layer masked ----------------

def test_criterion_2_outputs_ignore_unobserved_values():
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        n_nodes = int(rng.integers(2, 6))
        width = int(rng.integers(4, 9))
        window, graph, params = random_case(5000 + trial, n_nodes=n_nodes,
                                            width=width, n_layers=2,
                                            n_masked=2)
        hub_params = SpinHParameters(n_nodes=n_nodes, d_h=8, d_z=8, n_hubs=2,
                                     n_layers=2, n_masked=2, hidden=8, d_v=4,
                                     d_q=6, rng=np.random.default_rng(trial))
        hidden_vals = window.values.copy()
        hidden = window.mask == 0
        tamper = rng.normal(size=hidden_vals.shape) * 1e9
        tamper[rng.random(tamper.shape) < 0.2] = np.nan
        hidden_vals[hidden] = tamper[hidden]
        tampered = SpatioTemporalWindow(values=hidden_vals, mask=window.mask,
                                        eval_mask=window.eval_mask,
                                        step_offsets=window.step_offsets)
        with T.no_grad():
            for fwd, p in ((spin_forward, params), (spinh_forward, hub_params)):
                base = fwd(window, graph, p).predictions
                out = fwd(tampered, graph, p).predictions
                assert np.array_equal(base, out)


# --- criterion 3: dense attention oracle ------------------------------------

def test_criterion_3_single_node_matches_dense_attention():
    worst = 0.0
    for seed in range(50):
        window, graph, params = random_case(7000 + seed, n_nodes=1, width=6,
                                            n_layers=1, n_masked=1, edge_p=0.0)
        with T.no_grad():
            out = spin_forward(window, graph, params)
        want = brute_force(window.values, window.mask, window.step_offsets,
                           graph, params, 1, 1)
        worst = max(worst, float(np.max(np.abs(out.predictions - want[-1]))))
    assert worst <= 1e-12, f"worst oracle gap {worst:.3g}"
    print(f"\ncriterion 3: worst gap {worst:.2e} over 50 instances")


# --- criterion 4: softmax partitions and permutation equivariance -----------

def _alpha_partition_errors(weights):
    errs = [float(err) for w in weights
            for err in np.abs(w.sum(axis=-1) - 1.0).ravel()]
    return errs


def test_criterion_4_alpha_sums_and_node_permutation():
    worst_sum = 0.0
    for seed in range(5):
        window, graph, params = random_case(400 + seed, n_nodes=5, width=6,
                                            n_layers=2, n_masked=1)
        hub_window, hub_graph, hub_params = random_hub_case(
            400 + seed, n_nodes=5)
        with T.no_grad():
            core = spin_forward(window, graph, params)
            hub = spinh_forward(hub_window, hub_graph, hub_params)
        for out in (core, hub):
            for layer in out.alphas:
                for audit in layer.values():
                    if not audit:
                        continue
                    errs = _alpha_partition_errors(audit)
                    assert errs
                    worst_sum = max(worst_sum, max(errs))
    assert worst_sum <= 1e-12, f"alpha sets sum to 1 within {worst_sum:.3g}"

    worst_perm = 0.0
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        perm = rng.permutation(5)
        inv = np.empty(5, dtype=int)
        inv[perm] = np.arange(5)

        window, graph, params = random_case(450 + seed, n_nodes=5, width=6,
                                            n_layers=2, n_masked=1)
        p_window = SpatioTemporalWindow(values=window.values[:, perm],
                                        mask=window.mask[:, perm],
                                        eval_mask=window.eval_mask[:, perm],
                                        step_offsets=window.step_offsets)
        p_graph = SensorGraph(5, [(int(inv[s]), int(inv[d]), w)
                                  for s, d, w in zip(graph.src, graph.dst,
                                                     graph.weight)])
        p_params = SpinParameters(n_nodes=5, d_h=8, n_layers=2, n_masked=1,
                                  hidden=8, d_v=4, d_q=6,
                                  rng=np.random.default_rng(0))
        for (_, a), (_, b) in zip(p_params.named_parameters(),
                                  params.named_parameters()):
            a.data = b.data.copy()
        p_params.encoding.spatial.data = params.encoding.spatial.data[perm]

        h_window, h_graph, h_params = random_hub_case(450 + seed, n_nodes=5)
        ph_window = SpatioTemporalWindow(values=h_window.values[:, perm],
                                         mask=h_window.mask[:, perm],
                                         eval_mask=h_window.eval_mask[:, perm],
                                         step_offsets=h_window.step_offsets)
        ph_graph = SensorGraph(5, [(int(inv[s]), int(inv[d]), w)
                                   for s, d, w in zip(h_graph.src, h_graph.dst,
                                                      h_graph.weight)])
        ph_params = SpinHParameters(n_nodes=5, d_h=8, d_z=8, n_hubs=2,
                                    n_layers=2, n_masked=1, hidden=8, d_v=4,
                                    d_q=6, rng=np.random.default_rng(0))
        for (_, a), (_, b) in zip(ph_params.named_parameters(),
                                  h_params.named_parameters()):
            a.data = b.data.copy()
        ph_params.encoding.spatial.data = h_params.encoding.spatial.data[perm]

        with T.no_grad():
            base = spin_forward(window, graph, params).predictions
            moved = spin_forward(p_window, p_graph, p_params).predictions
            worst_perm = max(worst_perm,
                             float(np.max(np.abs(moved - base[:, perm]))))
            base = spinh_forward(h_window, h_graph, h_params).predictions
            moved = spinh_forward(ph_window, ph_graph, ph_params).predictions
            worst_perm = max(worst_perm,
                             float(np.max(np.abs(moved - base[:, perm]))))
    assert worst_perm <= 1e-10, f"permutation gap {worst_perm:.3g}"
    print(f"\ncriterion 4: worst alpha-sum err {worst_sum:.2e}, "
          f"worst permutation gap {worst_perm:.2e}")


# --- criterion 5: attention pair counts and wall-time scaling ---------------

def test_criterion_5_complexity_audit(tmp_path):
    cfg_path = tmp_path / "bench.json"
    with open(cfg_path, "w") as f:
        # best of 20 forwards per width: with best of 5, one busy process on
        # a 2-CPU machine pushed the hub ratio past its bound in 2 of 8 runs
        json.dump({"benchmark": {"n_nodes": 24, "seed": 0, "repeats": 20},
                   "output": {"dir": str(tmp_path / "out")}}, f)
    # the command itself verifies the exact closed-form counts and the
    # exact x4 / x2 growth per doubling, exiting non-zero on mismatch
    assert main(["benchmark", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "out" / "complexity_report.json") as f:
        report = json.load(f)
    n, e = report["n_nodes"], report["n_edges"]
    walls = {}
    for variant, entries in report["variants"].items():
        by_w = {entry["W"]: entry for entry in entries}
        walls[variant] = by_w[64]["wall_s"] / by_w[32]["wall_s"]
        for width, entry in by_w.items():
            if variant == "spin":
                assert entry["pairs_per_open_layer"] == (n + e) * width * width
            else:
                k = 4
                assert entry["pairs_per_open_layer"] == ((n + e) * k * width
                                                         + n * width * k)
    assert walls["spin"] >= 3.2, \
        f"quadratic variant wall ratio {walls['spin']:.2f} < 3.2"
    assert walls["spin-h"] <= 2.5, \
        f"hub variant wall ratio {walls['spin-h']:.2f} > 2.5"
    print(f"\ncriterion 5: W 32->64 wall ratios core {walls['spin']:.2f}x, "
          f"hub {walls['spin-h']:.2f}x")


# --- criterion 6: injection statistics --------------------------------------

def test_criterion_6_injection_statistics():
    full = np.ones((100, 100), dtype=np.uint8)  # 10,000 valid entries
    mask, dropped = inject_point_missing(full, rate=0.25, rng=0)
    point_frac = dropped.sum() / full.sum()
    assert abs(point_frac - 0.25) <= 0.02, f"point removal {point_frac:.4f}"

    # isolate the failure-driven removal (no extra point noise) and average
    # enough grids that the estimate reflects the expectation, not one draw
    fractions = []
    for seed in range(40):
        grid = np.ones((500, 20), dtype=np.uint8)
        _, blocks = inject_block_missing(grid, point_rate=0.0,
                                         failure_prob=0.0015, len_min=12,
                                         len_max=48, rng=seed)
        fractions.append(blocks.sum() / grid.sum())
    block_frac = float(np.mean(fractions))
    assert abs(block_frac - 0.045) <= 0.01, f"block removal {block_frac:.4f}"

    # conservation on a partially observed grid, every policy
    rng = np.random.default_rng(3)
    partial = (rng.random((80, 25)) < 0.8).astype(np.uint8)
    outcomes = [inject_point_missing(partial, rate=0.3, rng=4),
                inject_sparsity_sweep(partial, p=0.6, rng=5),
                inject_block_missing(partial, rng=6)]
    for new_mask, dropped in outcomes:
        assert not np.any((new_mask == 1) & (dropped == 1))
        assert np.array_equal((new_mask | dropped), partial)
    print(f"\ncriterion 6: point {point_frac:.4f} (target 0.25+-0.02), "
          f"block {block_frac:.4f} (target 0.045+-0.01)")


# --- criterion 7: end-to-end synthetic experiment ---------------------------

@pytest.fixture(scope="module")
def experiment():
    t0 = time.time()
    series = synth_series(n_nodes=20, n_steps=2000, seed=7)
    graph = build_adjacency_gaussian(series.distances, series.gamma,
                                     series.delta)
    n_steps = series.values.shape[0]
    timestamps = np.arange(n_steps, dtype=np.float64)
    full = np.ones(series.values.shape, dtype=np.uint8)
    train_sl = split_slices(n_steps)[0]

    mask, dropped = inject_point_missing(full, rate=0.25, rng=11)
    dataset = Dataset(values=series.values, mask=mask, eval_mask=dropped,
                      timestamps=timestamps)
    dataset, _ = normalize(dataset, train_sl)

    config = TrainConfig(epochs_max=30, batches_per_epoch=6, batch_size=8,
                         patience=30, seed=3, width=24, stride=24)
    params = SpinParameters(n_nodes=20, rng=np.random.default_rng(5))
    params, history, best_val = train(dataset, graph, config, params)
    train_seconds = time.time() - t0

    metrics = {
        "model": evaluate(params, dataset, graph, 24, 24)["mae"],
        "mean": evaluate_baseline("mean", dataset, graph, 24, 24)["mae"],
        "knn": evaluate_baseline("knn", dataset, graph, 24, 24)["mae"],
    }
    sweep = {}
    for p in (0.25, 0.75):
        m2, d2 = inject_sparsity_sweep(full, p=p, rng=1234)
        ds2 = Dataset(values=series.values, mask=m2, eval_mask=d2,
                      timestamps=timestamps)
        ds2, _ = normalize(ds2, train_sl)
        sweep[p] = {
            "model": evaluate(params, ds2, graph, 24, 24)["mae"],
            "knn": evaluate_baseline("knn", ds2, graph, 24, 24)["mae"],
        }
    return {"metrics": metrics, "sweep": sweep, "history": history,
            "best_val": best_val, "train_seconds": train_seconds,
            "total_seconds": time.time() - t0}


def test_criterion_7_synthetic_benchmark_margins(experiment):
    m = experiment["metrics"]
    sweep = experiment["sweep"]
    model_ratio = sweep[0.75]["model"] / sweep[0.25]["model"]
    knn_ratio = sweep[0.75]["knn"] / sweep[0.25]["knn"]
    assert m["model"] <= 0.75 * m["mean"], \
        f"model mae {m['model']:.4f} not 25% under mean {m['mean']:.4f}"
    assert m["model"] <= 0.90 * m["knn"], \
        f"model mae {m['model']:.4f} not 10% under knn {m['knn']:.4f}"
    assert experiment["total_seconds"] < 600.0, \
        f"experiment took {experiment['total_seconds']:.0f}s"
    assert model_ratio < knn_ratio, \
        f"sparsity degradation {model_ratio:.3f} not below knn {knn_ratio:.3f}"
    print(f"\ncriterion 7: mae model {m['model']:.4f} mean {m['mean']:.4f} "
          f"knn {m['knn']:.4f}; degradation {model_ratio:.3f} vs knn "
          f"{knn_ratio:.3f}; {experiment['total_seconds']:.0f}s total "
          f"({len(experiment['history'])} epochs)")


# --- criterion 8: layer-wise loss wiring ------------------------------------

def test_criterion_8_loss_reduces_to_masked_mae():
    from graphfill.data import training_whiten
    worst = 0.0
    for seed in range(5):
        window, graph, params = random_case(800 + seed, n_nodes=4, width=6,
                                            n_layers=1, n_masked=1)
        input_mask, loss_mask = training_whiten(
            window, rng=np.random.default_rng(seed), p=0.5)
        with T.Tape():
            out = spin_forward(window, graph, params, input_mask=input_mask)
            loss = spin_loss(out, window.values, loss_mask)
            T.backward(loss)
        masked_mae = np.abs(out.predictions - window.values)[loss_mask == 1].mean()
        gap = abs(float(loss.data) - masked_mae)
        assert gap < 1e-12
        worst = max(worst, gap)
        layer_names = [(n, p) for n, p in params.named_parameters()
                       if n.startswith("layers.0.")]
        assert layer_names
        for name, p in layer_names:
            assert p.grad is not None, f"no gradient for {name}"
        assert any(np.any(p.grad != 0.0) for _, p in layer_names)
    print(f"\ncriterion 8: loss == masked mae within {worst:.2e}")
