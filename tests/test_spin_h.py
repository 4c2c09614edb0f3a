"""Hub-bottleneck variant against a dense numpy oracle."""

import numpy as np
import pytest

import graphfill.tensor as T
import unfused_ops as U
from graphfill.data import SpatioTemporalWindow
from graphfill.errors import ValidationError
from graphfill.graph import SensorGraph
from graphfill.spin_h import SpinHParameters, spinh_forward
from test_spin import LOGIT_SPAN, np_codes, np_mlp


def np_set_attention(msg_mlp, score, keys, query):
    r = np_mlp(msg_mlp, keys, np.repeat(query[None, :], len(keys), axis=0))
    logits = r @ score.data
    shifted = np.clip(logits - logits.max(), -LOGIT_SPAN, LOGIT_SPAN)
    alpha = np.exp(shifted)
    alpha = alpha / alpha.sum()
    return (alpha * r).sum(axis=0)


def brute_force_hubs(values, input_mask, steps, graph, params, n_layers,
                     n_masked):
    w, n = values.shape
    k_hubs = params.n_hubs
    q = np_codes(params.encoding, steps, n)
    h = np.zeros((w * n, params.d_h))
    for t in range(w):
        for i in range(n):
            p = t * n + i
            if input_mask[t, i] == 1:
                h[p] = np_mlp(params.init_observed,
                              np.array([[values[t, i]]]), q[p:p + 1])[0]
            else:
                h[p] = np_mlp(params.init_target, q[p:p + 1])[0]
    if params.per_node_hubs:
        z = params.hub_base.data.copy()
    else:
        z = np.tile(params.hub_base.data, (n, 1))
    readouts = []
    for l in range(n_layers):
        masked = l < n_masked
        blk = params.layers[l]
        z_new = z.copy()
        for i in range(n):
            steps_i = [s for s in range(w)
                       if not masked or input_mask[s, i] == 1]
            for k in range(k_hubs):
                row = i * k_hubs + k
                if steps_i:
                    keys = h[[s * n + i for s in steps_i]]
                    ctx = np_set_attention(blk["hub_msg"], blk["hub_score"],
                                           keys, z[row])
                else:
                    ctx = np.zeros(params.d_z)
                z_new[row] = np_mlp(blk["hub_fuse"], z[row:row + 1],
                                    ctx[None, :])[0]
        z = z_new
        c = np.zeros_like(h)
        e = np.zeros_like(h)
        for t in range(w):
            for i in range(n):
                p = t * n + i
                own = z[i * k_hubs:(i + 1) * k_hubs]
                c[p] = np_set_attention(blk["self_msg"], blk["self_score"],
                                        own, h[p])
                for j, dst in zip(graph.src, graph.dst):
                    if dst != i:
                        continue
                    nb = z[j * k_hubs:(j + 1) * k_hubs]
                    e[p] += np_set_attention(blk["cross_msg"],
                                             blk["cross_score"], nb, h[p])
        h = np_mlp(blk["update"], h, c, e)
        readouts.append(np_mlp(params.readout, h).reshape(w, n))
    return readouts


def random_case(seed, n_nodes=3, width=5, n_hubs=2, d_z=8, n_layers=2,
                n_masked=1, per_node_hubs=False, edge_p=0.5):
    rng = np.random.default_rng(seed)
    edges = [(i, j, float(rng.random() + 0.1))
             for i in range(n_nodes) for j in range(n_nodes)
             if i != j and rng.random() < edge_p]
    graph = SensorGraph(n_nodes, edges)
    values = rng.normal(size=(width, n_nodes))
    mask = (rng.random((width, n_nodes)) < 0.6).astype(np.uint8)
    mask[rng.integers(width), rng.integers(n_nodes)] = 1
    window = SpatioTemporalWindow(values=values, mask=mask,
                                  eval_mask=np.zeros_like(mask),
                                  step_offsets=np.arange(width, dtype=float))
    params = SpinHParameters(n_nodes=n_nodes, d_h=8, d_z=d_z, n_hubs=n_hubs,
                             n_layers=n_layers, n_masked=n_masked, hidden=8,
                             d_v=4, d_q=6, per_node_hubs=per_node_hubs,
                             rng=rng)
    return window, graph, params


def test_matches_dense_oracle():
    for seed in range(5):
        window, graph, params = random_case(seed)
        with T.no_grad():
            out = spinh_forward(window, graph, params)
        want = brute_force_hubs(window.values, window.mask,
                                window.step_offsets, graph, params, 2, 1)
        for got_r, want_r in zip(out.readouts, want):
            assert np.max(np.abs(got_r.data - want_r)) < 1e-10


def test_matches_dense_oracle_per_node_hubs():
    window, graph, params = random_case(50, per_node_hubs=True)
    with T.no_grad():
        out = spinh_forward(window, graph, params)
    want = brute_force_hubs(window.values, window.mask, window.step_offsets,
                            graph, params, 2, 1)
    assert np.max(np.abs(out.predictions - want[-1])) < 1e-10


def test_attention_weights_sum_to_one():
    for seed in range(5):
        window, graph, params = random_case(seed + 10, n_nodes=5)
        with T.no_grad():
            out = spinh_forward(window, graph, params)
        checked = 0
        for layer in out.alphas:
            for branch in ("hub", "self", "cross"):
                for w in layer[branch]:
                    assert np.all(abs(w.sum(-1) - 1) <= 1e-12)
                    checked += w.shape[0] * w.shape[1]
        assert checked > 0


def test_pair_counts_linear_in_width():
    window, graph, params = random_case(20, n_nodes=4, width=6, n_hubs=3)
    w, n, e, k = 6, graph.n_nodes, graph.n_edges, 3
    with T.no_grad():
        out = spinh_forward(window, graph, params)
    masked_layer, open_layer = out.pairs_per_layer
    obs = window.mask.sum(axis=0)
    assert masked_layer["hub"] == int(sum(obs[i] * k for i in range(n)))
    assert masked_layer["self"] == n * w * k
    assert masked_layer["cross"] == e * w * k
    # open layer: (N+E)KW phase-2 plus N·W·K phase-1
    assert open_layer["hub"] == n * w * k
    assert open_layer["self"] + open_layer["cross"] == (n + e) * k * w


def test_masked_stack_ignores_hidden_values():
    for seed in range(5):
        window, graph, params = random_case(seed + 30, n_layers=2, n_masked=2)
        with T.no_grad():
            base = spinh_forward(window, graph, params).predictions
        tampered = window.values.copy()
        tampered[window.mask == 0] = 1e6
        t_window = SpatioTemporalWindow(values=tampered, mask=window.mask,
                                        eval_mask=window.eval_mask,
                                        step_offsets=window.step_offsets)
        with T.no_grad():
            out = spinh_forward(t_window, graph, params).predictions
        assert np.array_equal(base, out)


def test_permutation_equivariance_shared_hubs():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        window, graph, params = random_case(seed + 40, n_nodes=5)
        perm = rng.permutation(5)
        inv = np.empty(5, dtype=int)
        inv[perm] = np.arange(5)
        p_window = SpatioTemporalWindow(values=window.values[:, perm],
                                        mask=window.mask[:, perm],
                                        eval_mask=window.eval_mask[:, perm],
                                        step_offsets=window.step_offsets)
        p_graph = SensorGraph(5, [(int(inv[s]), int(inv[d]), w)
                                  for s, d, w in zip(graph.src, graph.dst,
                                                     graph.weight)])
        p_params = SpinHParameters(n_nodes=5, d_h=8, d_z=8, n_hubs=2,
                                   n_layers=2, n_masked=1, hidden=8, d_v=4,
                                   d_q=6, rng=np.random.default_rng(0))
        for (_, a), (_, b) in zip(p_params.named_parameters(),
                                  params.named_parameters()):
            a.data = b.data.copy()
        p_params.encoding.spatial.data = params.encoding.spatial.data[perm]
        # shared hub base is node-independent: nothing else to permute
        with T.no_grad():
            base = spinh_forward(window, graph, params).predictions
            permuted = spinh_forward(p_window, p_graph, p_params).predictions
        assert np.max(np.abs(permuted - base[:, perm])) <= 1e-10


def test_gradients_reach_every_parameter():
    window, graph, params = random_case(60)
    with T.Tape():
        out = spinh_forward(window, graph, params)
        T.backward(U.vmean(U.vabs(out.readouts[-1])))
    for name, p in params.named_parameters():
        g = p.grad
        assert g is not None, f"no gradient for {name}"
        assert np.all(np.isfinite(g))
    base_grad = params.hub_base.grad
    assert np.any(base_grad != 0.0)


def test_forward_is_deterministic():
    window, graph, params = random_case(70)
    with T.no_grad():
        a = spinh_forward(window, graph, params).predictions
        b = spinh_forward(window, graph, params).predictions
    assert np.array_equal(a, b)


def test_hub_count_validation():
    with pytest.raises(ValidationError):
        SpinHParameters(n_nodes=3, n_hubs=0, rng=np.random.default_rng(0))
    with pytest.raises(ValidationError):
        SpinHParameters(n_nodes=3, n_layers=2, n_masked=3,
                        rng=np.random.default_rng(0))


def test_per_node_hub_table_shape():
    shared = SpinHParameters(n_nodes=4, n_hubs=3, d_z=8, d_v=4, d_q=6,
                             hidden=8, rng=np.random.default_rng(1))
    per_node = SpinHParameters(n_nodes=4, n_hubs=3, d_z=8, d_v=4, d_q=6,
                               hidden=8, per_node_hubs=True,
                               rng=np.random.default_rng(1))
    assert shared.hub_base.data.shape == (3, 8)
    assert per_node.hub_base.data.shape == (12, 8)
    with T.no_grad():
        rows = shared.hub_rows(4).data
    assert rows.shape == (12, 8)
    assert np.array_equal(rows[0:3], rows[3:6])  # replicated per node
