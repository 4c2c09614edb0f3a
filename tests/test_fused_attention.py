"""The block attention op against the two flat paths it replaced.

`unfused_ops.unfused_attention` is the oldest composition (first-layer
row slices and matmuls, per-pair messages, score matmul, per-set
softmax, weighted per-set sum, scatter onto query rows), and
`unfused_ops.attention_sets` the fused flat op that followed it. Both
read the blocks flattened into (key_idx, starts, query) sets. The block
op must agree with each on values within 1e-12 and on every input
gradient within 1e-10 relative, on single ops and inside whole spin and
spin-h stacks.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill.tensor as T
import unfused_ops as U
from graphfill.errors import EmptySetError, NonFiniteError, ShapeError
from graphfill.nn import Mlp
from graphfill.spin import attend, spin_forward
from graphfill.spin_h import spinh_forward
from test_spin import random_case
from test_spin_h import random_case as random_hub_case
from test_tensor import check_grads

REFERENCES = {"unfused": U.on_blocks(U.unfused_attention),
              "attention_sets": U.on_blocks(U.attention_sets)}


def random_blocks(rng, shapes, n_keys, n_queries):
    """One (keys (G, c), rows (G, Wq)) entry per (G, Wq, c) in `shapes`.
    Rows are drawn with replacement, so blocks share query rows."""
    return [(rng.integers(0, n_keys, size=(g, c)),
             rng.integers(0, n_queries, size=(g, wq))) for g, wq, c in shapes]


def random_inputs(rng, n_keys, n_queries, hidden=6, d=4, score_scale=1.0):
    """[key_src, query_src, w_in, b_in, w_out, b_out, score]. w_in stacks
    two identities, so the first-layer rows the op sums are the source
    rows themselves."""
    return [rng.normal(size=(n_keys, hidden)), rng.normal(size=(n_queries, hidden)),
            np.vstack([np.eye(hidden), np.eye(hidden)]), rng.normal(size=hidden),
            rng.normal(size=(hidden, d)), rng.normal(size=d),
            rng.normal(size=(d, 1)) * score_scale]


def run_op(op, arrays, blocks, proj):
    """Values, weights and input gradients of sum(proj * op(...))."""
    leaves = [T.Value(a.copy(), requires_grad=True) for a in arrays]
    with T.Tape():
        out, alpha = op(leaves[0], leaves[1], T.MessageSets(blocks), *leaves[2:])
        T.backward(U.vsum(U.mul(out, proj)))
    return out.data, alpha, [leaf.grad for leaf in leaves]


def assert_matches_references(arrays, blocks, rng):
    proj = rng.normal(size=(arrays[1].shape[0], arrays[4].shape[1]))
    got = run_op(T.attention_blocks, arrays, blocks, proj)
    for name, reference in REFERENCES.items():
        want = run_op(reference, arrays, blocks, proj)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-12, name
        assert np.max(np.abs(got[1] - want[1])) <= 1e-12, name
        for k, (g, w) in enumerate(zip(got[2], want[2])):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), (name, k)


def test_matches_unfused_on_random_sets():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # c = 1 blocks have alpha 1 and no logit gradient
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 5)), c)
                  for c in (1, *sorted(rng.choice(np.arange(2, 8), 3, replace=False)))]
        blocks = random_blocks(rng, shapes, 9, 5)
        assert_matches_references(random_inputs(rng, 9, 5), blocks, rng)


def test_matches_unfused_with_clamped_logits():
    rng = np.random.default_rng(20)
    arrays = random_inputs(rng, 8, 4, score_scale=200.0)
    # distinct keys per block, so no two logits of a set tie
    blocks = [(np.argsort(rng.random((g, 8)), axis=1)[:, :c],
               rng.integers(0, 4, size=(g, wq)))
              for g, wq, c in [(2, 3, 1), (1, 2, 4), (3, 2, 6)]]
    with T.no_grad():
        _, alpha = T.attention_blocks(T.Value(arrays[0]), T.Value(arrays[1]),
                                      T.MessageSets(blocks), *arrays[2:])
    # Every logit is its set's max or sits more than LOGIT_SPAN below it.
    # Then every logit gradient, and so the score gradient, is exactly 0
    # on all three paths; a weight between 0 and 1 would leave a score
    # gradient of rounding noise, which no two summation orders share.
    assert np.any(alpha < 2.0 * np.exp(-T.LOGIT_SPAN))
    assert np.all((alpha == 1.0) | (alpha < 2.0 * np.exp(-T.LOGIT_SPAN)))
    assert_matches_references(arrays, blocks, rng)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    blocks = random_blocks(rng, [(2, 2, 1), (1, 3, 3), (2, 1, 4)], 5, 3)
    key_idx, starts, query = U.flat_sets(blocks)
    arrays = random_inputs(rng, 5, 3, hidden=4, d=3)
    arrays[3] += 0.5  # keep pre-activations away from the relu kink
    proj = rng.normal(size=(3, 3))

    def fv(*leaves):
        out, _ = T.attention_blocks(leaves[0], leaves[1], T.MessageSets(blocks),
                                    *leaves[2:])
        return U.vsum(U.mul(out, proj))

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
    blocks = [(np.array([[0, 1]]), np.array([[0, 1]])),
              (np.array([[2, 3]]), np.array([[2]]))]

    def call(blocks=blocks, arrays=arrays):
        T.attention_blocks(arrays[0], arrays[1], T.MessageSets(blocks), *arrays[2:])

    with pytest.raises(EmptySetError):
        call([(np.zeros((1, 0), dtype=np.intp), np.array([[0]]))])  # no keys
    with pytest.raises(ShapeError):
        call([(np.array([[0], [1]]), np.array([[0]]))])  # 2 key groups, 1 row set
    poisoned = list(arrays)
    poisoned[0] = arrays[0].copy()
    poisoned[0][2, 0] = np.inf
    poisoned[3] = np.abs(arrays[3])  # the relu would pass the inf on
    # a first-layer product that overflows to -inf, which the relu would hide
    hidden = list(arrays)
    hidden[0] = arrays[0].copy()
    hidden[0][2, 0] = -1e300
    hidden[2] = arrays[2] * 1e10
    for bad in (poisoned, hidden):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError):
                call(arrays=bad)
        assert not caught, [str(w.message) for w in caught]


def test_attend_requires_two_layer_messages_and_handles_no_pairs():
    rng = np.random.default_rng(50)
    h = T.Value(rng.normal(size=(3, 4)))
    score = T.Value(rng.normal(size=(4, 1)))
    sets = dict(key_idx=T.MessageSets([]), score=score)
    out, audit = attend(h, h, msg_mlp=Mlp([8, 5, 4], rng), **sets)
    assert np.array_equal(out.data, np.zeros((3, 4))) and audit is None
    with pytest.raises(ShapeError):
        attend(h, h, msg_mlp=Mlp([8, 5, 5, 4], rng), **sets)


def compare_stacks(monkeypatch, forward, window, graph, params):
    """Readouts, alpha audits and parameter gradients, block op vs each
    flat reference."""
    rng = np.random.default_rng(60)
    projections = [rng.normal(size=window.values.shape)
                   for _ in range(params.n_layers)]
    results = []
    for op in (T.attention_blocks, *REFERENCES.values()):
        monkeypatch.setattr(T, "attention_blocks", op)
        for p in params.parameters():
            p.grad = None  # each run starts from no gradient
        with T.Tape():
            out = forward(window, graph, params)
            loss = None
            for readout, proj in zip(out.readouts, projections):
                term = U.vsum(U.mul(readout, proj))
                loss = term if loss is None else U.add(loss, term)
            T.backward(loss)
        results.append((out, [p.grad for p in params.parameters()]))
    got, got_grads = results[0]
    for want, want_grads in results[1:]:
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
            assert g is not w, name  # separate runs, separate arrays
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


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(1, 24), st.integers(1, 90),
       st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_key_axis_einsum_sums_like_numpy_sum(g, wq, c, hidden, seed):
    # The backward sums a block's (G, Wq, c, hidden) pair gradients over
    # the key axis with einsum, relying on it adding the c terms in the
    # order .sum(axis=2) does; relu zeroes many of them. At hidden 1 the
    # key axis is the contiguous one, and the two add in different orders
    # (the last bit may differ), so that width is left out.
    rng = np.random.default_rng(seed)
    g_hid = (rng.normal(size=(g, wq, c, hidden))
             * 10.0 ** rng.integers(-8, 9, size=(g, wq, c, 1))
             * (rng.random((g, wq, c, hidden)) > 0.4))
    got = np.einsum("gqkh->gqh", g_hid)
    assert got.tobytes() == g_hid.sum(axis=2).tobytes()
