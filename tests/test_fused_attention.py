"""The fused attention op against the unfused chain it replaced.

`unfused_ops.unfused_attention` is the old composition (first-layer row
slices and matmuls, per-pair messages, score matmul, per-set softmax,
weighted per-set sum, scatter onto query rows). The fused op must
agree with it on values within 1e-12 and on every input gradient within
1e-10 relative, on single ops and inside whole spin and spin-h stacks.
"""

import warnings

import numpy as np
import pytest

import graphfill.tensor as T
import unfused_ops as U
from graphfill.errors import EmptySetError, NonFiniteError, ShapeError
from graphfill.nn import Mlp
from graphfill.spin import attend, spin_forward
from graphfill.spin_h import spinh_forward
from test_spin import random_case
from test_spin_h import random_case as random_hub_case
from test_tensor import check_grads


def random_sets(rng, set_sizes, n_keys, n_queries):
    """(key_idx, starts, query) for sets of the given sizes."""
    key_idx = rng.integers(0, n_keys, size=int(np.sum(set_sizes)))
    starts = np.concatenate(([0], np.cumsum(set_sizes)[:-1])).astype(np.intp)
    return key_idx, starts, rng.integers(0, n_queries, size=len(set_sizes))


def random_inputs(rng, n_keys, n_queries, hidden=6, d=4, score_scale=1.0):
    """[key_src, query_src, w_in, b_in, w_out, b_out, score]. w_in stacks
    two identities, so the first-layer rows the op sums are the source
    rows themselves."""
    return [rng.normal(size=(n_keys, hidden)), rng.normal(size=(n_queries, hidden)),
            np.vstack([np.eye(hidden), np.eye(hidden)]), rng.normal(size=hidden),
            rng.normal(size=(hidden, d)), rng.normal(size=d),
            rng.normal(size=(d, 1)) * score_scale]


def run_op(op, arrays, key_idx, starts, query, proj):
    """Values, weights and input gradients of sum(proj * op(...))."""
    leaves = [T.Value(a.copy(), requires_grad=True) for a in arrays]
    with T.Tape():
        out, alpha = op(leaves[0], leaves[1], key_idx, starts, query, *leaves[2:])
        T.backward(T.vsum(U.mul(out, proj)))
    return out.data, alpha, [leaf.grad for leaf in leaves]


def assert_matches_unfused(arrays, key_idx, starts, query, rng):
    proj = rng.normal(size=(arrays[1].shape[0], arrays[4].shape[1]))
    got = run_op(T.attention_sets, arrays, key_idx, starts, query, proj)
    want = run_op(U.unfused_attention, arrays, key_idx, starts, query, proj)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12
    assert np.max(np.abs(got[1] - want[1])) <= 1e-12
    for k, (g, w) in enumerate(zip(got[2], want[2])):
        assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), f"input {k}"


def test_matches_unfused_on_random_sets():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 7, size=12)
        sizes[:3] = 1  # single-key sets have alpha 1 and no logit gradient
        key_idx, starts, query = random_sets(rng, sizes, 9, 5)
        assert_matches_unfused(random_inputs(rng, 9, 5), key_idx, starts,
                               query, rng)


def test_matches_unfused_with_clamped_logits():
    rng = np.random.default_rng(20)
    sizes = np.array([5, 4, 1, 6, 3])
    key_idx, starts, query = random_sets(rng, sizes, 8, 4)
    arrays = random_inputs(rng, 8, 4, score_scale=200.0)
    with T.no_grad():
        _, alpha = T.attention_sets(T.Value(arrays[0]), T.Value(arrays[1]),
                                    key_idx, starts, query, *arrays[2:])
    # some logits sit more than LOGIT_SPAN below their set max
    assert np.any(alpha < 2.0 * np.exp(-T.LOGIT_SPAN))
    assert_matches_unfused(arrays, key_idx, starts, query, rng)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    key_idx, starts, query = random_sets(rng, np.array([3, 1, 4, 2]), 5, 3)
    arrays = random_inputs(rng, 5, 3, hidden=4, d=3)
    arrays[3] += 0.5  # keep pre-activations away from the relu kink
    proj = rng.normal(size=(3, 3))

    def fv(*leaves):
        out, _ = T.attention_sets(leaves[0], leaves[1], key_idx, starts, query,
                                  *leaves[2:])
        return T.vsum(U.mul(out, proj))

    def ff(key_src, query_src, w_in, b_in, w, b_out, score):
        bounds = np.append(starts, len(key_idx))
        dk = key_src.shape[1]
        query_idx = np.repeat(query, np.diff(bounds))
        hid = np.maximum(key_src[key_idx] @ w_in[:dk]
                         + query_src[query_idx] @ w_in[dk:] + b_in, 0.0)
        r = hid @ w + b_out
        logits = (r @ score)[:, 0]
        total = 0.0
        for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            e = np.exp(logits[lo:hi] - logits[lo:hi].max())
            ctx = (e / e.sum()) @ r[lo:hi]
            total += float(ctx @ proj[query[s]])
        return total

    check_grads(fv, ff, arrays)


def test_rejects_malformed_sets_and_nonfinite_logits():
    rng = np.random.default_rng(40)
    arrays = random_inputs(rng, 4, 3)
    key_idx = np.array([0, 1, 2, 3])

    def call(starts, arrays=arrays):
        T.attention_sets(arrays[0], arrays[1], key_idx, np.array(starts),
                         np.array([0, 1, 2][:len(starts)]), *arrays[2:])

    with pytest.raises(EmptySetError):
        call([0, 2, 2])      # the middle set is empty
    poisoned = list(arrays)
    poisoned[0] = arrays[0].copy()
    poisoned[0][2, 0] = np.inf
    poisoned[3] = np.abs(arrays[3])  # the relu would pass the inf on
    with pytest.raises(NonFiniteError):
        call([0, 2], poisoned)
    # a first-layer product that overflows to -inf, which the relu would hide
    hidden = list(arrays)
    hidden[0] = arrays[0].copy()
    hidden[0][2, 0] = -1e300
    hidden[2] = arrays[2] * 1e10
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError):
            call([0, 2], hidden)
    assert not caught, [str(w.message) for w in caught]


def test_attend_requires_two_layer_messages_and_handles_no_pairs():
    rng = np.random.default_rng(50)
    h = T.Value(rng.normal(size=(3, 4)))
    score = T.Value(rng.normal(size=(4, 1)))
    empty = np.zeros(0, dtype=np.intp)
    sets = dict(key_idx=empty, starts=empty, query=empty, score=score)
    out, audit = attend(h, h, msg_mlp=Mlp([8, 5, 4], rng), **sets)
    assert np.array_equal(out.data, np.zeros((3, 4))) and audit is None
    with pytest.raises(ShapeError):
        attend(h, h, msg_mlp=Mlp([8, 5, 5, 4], rng), **sets)


def compare_stacks(monkeypatch, forward, window, graph, params):
    """Readouts, alpha audits and parameter gradients, fused vs unfused."""
    rng = np.random.default_rng(60)
    projections = [rng.normal(size=window.values.shape)
                   for _ in range(params.n_layers)]
    results = []
    for op in (T.attention_sets, U.unfused_attention):
        monkeypatch.setattr(T, "attention_sets", op)
        for p in params.parameters():
            p.grad = None  # each run starts from no gradient
        with T.Tape():
            out = forward(window, graph, params, collect_alphas=True)
            loss = None
            for readout, proj in zip(out.readouts, projections):
                term = T.vsum(U.mul(readout, proj))
                loss = term if loss is None else T.add(loss, term)
            T.backward(loss)
        results.append((out, [p.grad for p in params.parameters()]))
    (got, got_grads), (want, want_grads) = results
    for r_got, r_want in zip(got.readouts, want.readouts):
        assert np.max(np.abs(r_got.data - r_want.data)) <= 1e-12
    for layer_got, layer_want in zip(got.alphas, want.alphas):
        assert layer_got.keys() == layer_want.keys()
        for branch, audit in layer_got.items():
            if audit is None:
                assert layer_want[branch] is None
                continue
            assert np.array_equal(audit[1], layer_want[branch][1])
            assert np.max(np.abs(audit[0] - layer_want[branch][0])) <= 1e-12
    for (name, _), g, w in zip(params.named_parameters(), got_grads, want_grads):
        assert g is not w, name  # two runs, two arrays
        assert np.max(np.abs(g - w)) <= 1e-10 * max(np.max(np.abs(w)), 1e-300), name


def test_spin_stack_matches_unfused(monkeypatch):
    # cross-branch sets of every in-edge land on the same out position
    for seed in range(3):
        window, graph, params = random_case(seed + 70, n_nodes=5, width=6,
                                            n_layers=2, n_masked=1)
        assert len(set(graph.dst.tolist())) < graph.n_edges
        compare_stacks(monkeypatch, spin_forward, window, graph, params)


def test_spinh_stack_matches_unfused(monkeypatch):
    for seed in range(3):
        window, graph, params = random_hub_case(seed + 90, n_nodes=4,
                                                per_node_hubs=seed == 2)
        compare_stacks(monkeypatch, spinh_forward, window, graph, params)
