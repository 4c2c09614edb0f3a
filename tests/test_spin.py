"""Core sparse attention stack against a dense brute-force oracle.

The oracle re-implements the architecture with plain numpy loops —
explicit per-pair message MLPs, per-set softmax, per-edge sums — reading
weights straight out of the parameter objects. Anything vectorized,
planned, or fused in the real forward must agree with it.
"""

import numpy as np
import pytest

import graphfill.tensor as T
from graphfill.data import SpatioTemporalWindow
from graphfill.errors import ShapeError, ValidationError
from graphfill.graph import SensorGraph, build_adjacency_gaussian
from graphfill.spin import SpinParameters, build_attention_plan, spin_forward

LOGIT_SPAN = 60.0


def np_mlp(mlp, *parts):
    x = np.concatenate([np.atleast_2d(p) for p in parts], axis=-1)
    n = len(mlp.weights)
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = x @ w.data + b.data
        if k < n - 1:
            x = np.maximum(x, 0.0)
    return x


def np_codes(enc, steps, n_nodes):
    from graphfill.encoding import temporal_encoding
    u = temporal_encoding(steps, enc.periods)
    u_flat = np.repeat(u, n_nodes, axis=0)
    v_flat = enc.spatial.data[np.tile(np.arange(n_nodes), len(steps))]
    return np_mlp(enc.fuse, u_flat, v_flat)


def np_attention(msg_mlp, score, h, key_pos, query_pos):
    """Dense attention for one query over an explicit key set."""
    keys = h[key_pos]
    queries = np.repeat(h[query_pos:query_pos + 1], len(key_pos), axis=0)
    r = np_mlp(msg_mlp, keys, queries)
    logits = r @ score.data
    shifted = np.clip(logits - logits.max(), -LOGIT_SPAN, LOGIT_SPAN)
    alpha = np.exp(shifted)
    alpha = alpha / alpha.sum()
    return (alpha * r).sum(axis=0)


def brute_force(values, input_mask, steps, graph, params, n_layers, n_masked):
    """Loop-everything reference forward; returns per-layer (W, N) readouts."""
    w, n = values.shape
    d_h = params.d_h
    q = np_codes(params.encoding, steps, n)
    h = np.zeros((w * n, d_h))
    for t in range(w):
        for i in range(n):
            p = t * n + i
            if input_mask[t, i] == 1:
                h[p] = np_mlp(params.init_observed,
                              np.array([[values[t, i]]]), q[p:p + 1])[0]
            else:
                h[p] = np_mlp(params.init_target, q[p:p + 1])[0]
    readouts = []
    for l in range(n_layers):
        masked = l < n_masked
        blk = params.layers[l]
        allowed = {i: [s for s in range(w)
                       if not masked or input_mask[s, i] == 1]
                   for i in range(n)}
        c = np.zeros_like(h)
        e = np.zeros_like(h)
        for i in range(n):
            keys = [s * n + i for s in allowed[i]]
            for t in range(w):
                if keys:
                    c[t * n + i] = np_attention(blk["self_msg"],
                                                blk["self_score"], h,
                                                keys, t * n + i)
        for j, i, _ in graph.edges:  # one attention per edge, summed at i
            keys = [s * n + j for s in allowed[j]]
            if not keys:
                continue
            for t in range(w):
                e[t * n + i] += np_attention(blk["cross_msg"],
                                             blk["cross_score"], h,
                                             keys, t * n + i)
        h = np_mlp(blk["update"], h, c, e)
        readouts.append(np_mlp(params.readout, h).reshape(w, n))
    return readouts


def random_case(seed, n_nodes, width, d_h=8, n_layers=1, n_masked=1,
                edge_p=0.5, obs_p=0.6):
    rng = np.random.default_rng(seed)
    edges = [(i, j, float(rng.random() + 0.1))
             for i in range(n_nodes) for j in range(n_nodes)
             if i != j and rng.random() < edge_p]
    graph = SensorGraph(n_nodes, edges)
    values = rng.normal(size=(width, n_nodes))
    mask = (rng.random((width, n_nodes)) < obs_p).astype(np.uint8)
    mask[rng.integers(width), rng.integers(n_nodes)] = 1  # never fully empty
    window = SpatioTemporalWindow(values=values, mask=mask,
                                  eval_mask=np.zeros_like(mask),
                                  step_offsets=np.arange(width, dtype=float))
    params = SpinParameters(n_nodes=n_nodes, d_h=d_h, n_layers=n_layers,
                            n_masked=n_masked, hidden=8, d_v=4, d_q=6,
                            rng=rng)
    return window, graph, params


def test_single_node_single_layer_matches_dense_oracle():
    worst = 0.0
    for seed in range(50):
        window, graph, params = random_case(seed, n_nodes=1, width=6,
                                            n_layers=1, n_masked=1, edge_p=0.0)
        n_masked = 1 if seed % 2 == 0 else 0  # alternate masked and open
        if n_masked == 0:
            params = SpinParameters(n_nodes=1, d_h=8, n_layers=1, n_masked=1,
                                    hidden=8, d_v=4, d_q=6,
                                    rng=np.random.default_rng(1000 + seed))
            with T.no_grad():
                out = spin_forward(window, graph, params,
                                   input_mask=np.ones_like(window.mask))
            want = brute_force(window.values,
                               np.ones_like(window.mask), window.step_offsets,
                               graph, params, 1, 1)
        else:
            with T.no_grad():
                out = spin_forward(window, graph, params)
            want = brute_force(window.values, window.mask,
                               window.step_offsets, graph, params, 1, 1)
        err = np.max(np.abs(out.predictions - want[-1]))
        worst = max(worst, err)
    assert worst <= 1e-12, f"worst deviation {worst}"


def test_multi_node_stack_matches_brute_force():
    for seed in (0, 1, 2):
        window, graph, params = random_case(seed, n_nodes=4, width=5,
                                            n_layers=2, n_masked=1)
        with T.no_grad():
            out = spin_forward(window, graph, params)
        want = brute_force(window.values, window.mask, window.step_offsets,
                           graph, params, 2, 1)
        for got_r, want_r in zip(out.readouts, want):
            assert np.max(np.abs(got_r.data - want_r)) < 1e-10


def test_attention_weights_sum_to_one_per_set():
    for seed in range(5):
        window, graph, params = random_case(seed + 20, n_nodes=5, width=6,
                                            n_layers=2, n_masked=1)
        with T.no_grad():
            out = spin_forward(window, graph, params)
        assert out.alphas is not None
        checked = 0
        for layer in out.alphas:
            for branch in ("self", "cross"):
                audit = layer[branch]
                if audit is None:
                    continue
                alpha, starts = audit
                bounds = np.append(starts, len(alpha))
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    if hi > lo:
                        assert abs(alpha[lo:hi].sum() - 1.0) <= 1e-12
                        checked += 1
        assert checked > 0


def test_pair_counts_closed_form():
    for seed in range(5):
        window, graph, params = random_case(seed + 40, n_nodes=5, width=7,
                                            n_layers=2, n_masked=1)
        w, n, e = 7, graph.n_nodes, graph.n_edges
        with T.no_grad():
            out = spin_forward(window, graph, params)
        masked_layer, open_layer = out.pairs_per_layer
        assert masked_layer["masked"] and not open_layer["masked"]
        # open layer: every (node, step) and (edge, step) set has W keys
        assert open_layer["self"] + open_layer["cross"] == (n + e) * w * w
        # masked layer: per-node key budget is its observed-step count
        obs = window.mask.sum(axis=0)
        want_self = int(sum(obs[i] * w for i in range(n)))
        want_cross = int(sum(obs[j] * w for j, i, _ in graph.edges))
        assert masked_layer["self"] == want_self
        assert masked_layer["cross"] == want_cross


def test_masked_stack_ignores_hidden_values():
    for seed in range(10):
        window, graph, params = random_case(seed + 60, n_nodes=4, width=6,
                                            n_layers=2, n_masked=2)
        with T.no_grad():
            base = spin_forward(window, graph, params).predictions
        rng = np.random.default_rng(seed)
        tampered = window.values.copy()
        hidden = window.mask == 0
        tampered[hidden] = rng.normal(size=int(hidden.sum())) * 100.0
        tampered_window = SpatioTemporalWindow(
            values=tampered, mask=window.mask, eval_mask=window.eval_mask,
            step_offsets=window.step_offsets)
        with T.no_grad():
            out = spin_forward(tampered_window, graph, params).predictions
        assert np.array_equal(base, out)  # bit-identical


def test_unobserved_values_unread_even_by_open_layers():
    # Values only enter through the observed-position initialization, so
    # the invariance holds for the full stack, not just masked layers.
    window, graph, params = random_case(99, n_nodes=3, width=6, n_layers=2,
                                        n_masked=1)
    tampered = window.values.copy()
    tampered[window.mask == 0] = np.nan
    tampered_window = SpatioTemporalWindow(
        values=tampered, mask=window.mask, eval_mask=window.eval_mask,
        step_offsets=window.step_offsets)
    with T.no_grad():
        base = spin_forward(window, graph, params).predictions
        out = spin_forward(tampered_window, graph, params).predictions
    assert np.array_equal(base, out)


def test_permutation_equivariance():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        window, graph, params = random_case(seed + 80, n_nodes=5, width=6,
                                            n_layers=2, n_masked=1)
        perm = rng.permutation(5)  # new column k shows old node perm[k]
        inv = np.empty(5, dtype=int)
        inv[perm] = np.arange(5)
        p_window = SpatioTemporalWindow(values=window.values[:, perm],
                                        mask=window.mask[:, perm],
                                        eval_mask=window.eval_mask[:, perm],
                                        step_offsets=window.step_offsets)
        p_graph = SensorGraph(5, [(int(inv[s]), int(inv[d]), w)
                                  for s, d, w in graph.edges])
        p_params = SpinParameters(n_nodes=5, d_h=8, n_layers=2, n_masked=1,
                                  hidden=8, d_v=4, d_q=6,
                                  rng=np.random.default_rng(0))
        for (_, a), (_, b) in zip(p_params.named_parameters(),
                                  params.named_parameters()):
            a.data = b.data.copy()
        p_params.encoding.spatial.data = params.encoding.spatial.data[perm]
        with T.no_grad():
            base = spin_forward(window, graph, params).predictions
            permuted = spin_forward(p_window, p_graph, p_params).predictions
        assert np.max(np.abs(permuted - base[:, perm])) <= 1e-10


def test_input_mask_defaults_to_window_mask():
    window, graph, params = random_case(6, n_nodes=3, width=5)
    with T.no_grad():
        a = spin_forward(window, graph, params).predictions
        b = spin_forward(window, graph, params,
                         input_mask=window.mask).predictions
    assert np.array_equal(a, b)


def test_forward_is_deterministic():
    window, graph, params = random_case(8, n_nodes=4, width=6)
    with T.no_grad():
        a = spin_forward(window, graph, params).predictions
        b = spin_forward(window, graph, params).predictions
    assert np.array_equal(a, b)


def test_gradients_reach_every_parameter():
    window, graph, params = random_case(9, n_nodes=4, width=6, n_layers=2,
                                        n_masked=1)
    with T.Tape():
        out = spin_forward(window, graph, params)
        loss = T.vmean(T.vabs(out.readouts[0])) + T.vmean(T.vabs(out.readouts[-1]))
        T.backward(loss)
    for name, p in params.named_parameters():
        g = p.grad
        assert g is not None, f"no gradient for {name}"
        assert g.shape == p.data.shape
        assert np.all(np.isfinite(g))


def test_depth_validation():
    with pytest.raises(ValidationError):
        SpinParameters(n_nodes=2, n_layers=2, n_masked=0,
                       rng=np.random.default_rng(0))
    with pytest.raises(ValidationError):
        SpinParameters(n_nodes=2, n_layers=2, n_masked=3,
                       rng=np.random.default_rng(0))


def test_window_graph_shape_mismatch():
    window, _, params = random_case(11, n_nodes=3, width=4)
    other = SensorGraph(4, [(0, 1, 1.0)])
    with pytest.raises(ShapeError):
        spin_forward(window, other, params)


def block_set_list(got):
    """(keys, query row) of every set in a MessageSets record's blocks."""
    out = []
    for keys, rows in got.blocks:
        assert keys.dtype == rows.dtype == np.intp
        assert keys.ndim == rows.ndim == 2 and len(keys) == len(rows)
        for g in range(len(keys)):
            out += [(keys[g].tolist(), int(q)) for q in rows[g]]
    return out


def assert_sets_equal(got, sets):
    """`got` holds exactly the non-empty sets of `sets`, each once, in
    blocks of one key count each."""
    want = [(keys, q) for keys, q in sets if keys]  # an empty set is absent
    assert sorted(block_set_list(got)) == sorted(want)
    counts = [keys.shape[1] for keys, _ in got.blocks]
    assert min(counts, default=1) >= 1 and len(set(counts)) == len(counts)
    assert got.n_pairs == len(got) == sum(len(keys) for keys, _ in want)


def test_plan_masked_sets_only_cover_observed_keys():
    from graphfill.spin_h import HubPlan

    rng = np.random.default_rng(12)
    mask = (rng.random((5, 3)) < 0.5).astype(np.uint8)
    mask[:, 2] = 0  # node 2 observes nothing: its self and out-edge sets vanish
    cases = [(mask, SensorGraph(3, [(0, 1, 1.0), (2, 1, 0.5), (1, 0, 2.0)])),
             (mask, SensorGraph(3, [])),                      # no edges
             (mask[:1], SensorGraph(3, [(0, 2, 1.0), (1, 2, 1.0)])),  # W = 1
             ((rng.random((7, 4)) < 0.5).astype(np.uint8),
              SensorGraph(4, [(s, d, 1.0) for s in range(4) for d in range(4)
                              if s != d]))]
    n_hubs = 3
    for mask, graph in cases:
        w, n = mask.shape
        edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
        plan = HubPlan(mask, graph, n_hubs, with_open=True)
        for masked in (True, False):
            steps = [[s for s in range(w) if mask[s, i] or not masked]
                     for i in range(n)]
            self_sets, cross_sets = build_attention_plan(mask, graph, masked)
            hub_sets = plan.masked_hub if masked else plan.open_hub
            assert_sets_equal(self_sets, [([s * n + i for s in steps[i]], t * n + i)
                                          for i in range(n) for t in range(w)])
            assert_sets_equal(cross_sets, [([s * n + j for s in steps[j]], t * n + i)
                                           for j, i in edges for t in range(w)])
            assert_sets_equal(hub_sets, [([s * n + i for s in steps[i]], i * n_hubs + k)
                                         for i in range(n) for k in range(n_hubs)])
            # closed form: c_i keys per set, W sets per node and edge, K per node
            c = np.array([len(steps[i]) for i in range(n)])
            assert self_sets.n_pairs == w * c.sum()
            assert cross_sets.n_pairs == w * c[graph.src].sum()
            assert hub_sets.n_pairs == n_hubs * c.sum()
            if masked:
                for keys, rows in self_sets.blocks:  # a row reads its node's
                    assert np.all(keys[:, :, None] % n == rows[:, None, :] % n)
                    assert np.all(mask[keys // n, keys % n] == 1)  # observed steps
                for keys, _ in cross_sets.blocks + hub_sets.blocks:
                    assert np.all(mask[keys // n, keys % n] == 1)
                for i in np.flatnonzero(c == 0):  # no block for a silent node
                    assert not any(np.any(rows % n == i) for _, rows in self_sets.blocks)
                    assert not any(np.any(rows // n_hubs == i)
                                   for _, rows in hub_sets.blocks)
        hubs = [[j * n_hubs + k for k in range(n_hubs)] for j in range(n)]
        assert_sets_equal(plan.read_self, [(hubs[p % n], p) for p in range(w * n)])
        assert_sets_equal(plan.read_cross, [(hubs[j], t * n + i)
                                            for j, i in edges for t in range(w)])
