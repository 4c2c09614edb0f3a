"""Row chunks in the block attention op: the same bits, less memory.

`attention_blocks` forms pair activations a chunk of block rows at a
time, `T.CHUNK_BYTES` of them: in a forward no tape records, and in every
backward. `reference_attention.attention_blocks` is the op before chunks,
which formed each block whole. Every value and gradient must be the same
bytes at any budget, from one row per chunk to whole blocks, and the
chunks must bound what a call holds above its entry.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill.tensor as T
import reference_attention as R
import unfused_ops as U
from graphfill.spin import spin_forward
from graphfill.spin_h import spinh_forward
from graphfill.train import spin_loss
from test_spin import random_case
from test_spin_h import random_case as random_hub_case

@st.composite
def attention_cases(draw):
    """(arrays, blocks, budget): the op's seven inputs, 1-4 blocks whose
    query rows repeat, and a chunk budget from half a row of the
    narrowest block up to the whole largest block, so chunks run from one
    row to whole blocks and leave uneven tails."""
    hidden = draw(st.integers(2, 8))
    shapes = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6),
                                     st.integers(1, 8)), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_keys, n_queries, d = 7, 4, 3
    blocks = [(rng.integers(0, n_keys, size=(g, c)),
               rng.integers(0, n_queries, size=(g, wq))) for g, wq, c in shapes]
    row_bytes = [wq * c * hidden * 8 for _, wq, c in shapes]
    budget = draw(st.integers(min(row_bytes) // 2,
                              max(g * b for (g, _, _), b in zip(shapes, row_bytes))))
    score_scale = draw(st.sampled_from([1.0, 30.0]))  # 30 clamps some logits
    arrays = [rng.normal(size=(n_keys, 5)), rng.normal(size=(n_queries, 3)),
              rng.normal(size=(8, hidden)), rng.normal(size=hidden),
              rng.normal(size=(hidden, d)), rng.normal(size=d),
              rng.normal(size=(d, 1)) * score_scale]
    return arrays, blocks, budget


def taped(op, arrays, blocks, proj):
    leaves = [T.Value(a.copy(), requires_grad=True) for a in arrays]
    with T.Tape():
        out, weights = op(leaves[0], leaves[1], T.MessageSets(blocks), *leaves[2:])
        T.backward(U.vsum(U.mul(out, proj)))
    return ([out.data, np.concatenate([w.ravel() for w in weights])]
            + [leaf.grad for leaf in leaves])


def untaped(op, arrays, blocks):
    out, weights = op(arrays[0], arrays[1], T.MessageSets(blocks), *arrays[2:])
    return [out.data, np.concatenate([w.ravel() for w in weights])]


@settings(max_examples=150)
@given(attention_cases())
def test_chunks_give_the_whole_blocks_bits(case):
    arrays, blocks, budget = case
    proj = np.random.default_rng(budget).normal(size=(arrays[1].shape[0],
                                                      arrays[4].shape[1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "CHUNK_BYTES", budget)
        got = taped(T.attention_blocks, arrays, blocks, proj)
        got_plain = untaped(T.attention_blocks, arrays, blocks)
    want = taped(R.attention_blocks, arrays, blocks, proj)
    want_plain = untaped(R.attention_blocks, arrays, blocks)
    assert len(got) == 9  # output, alpha and seven input gradients
    for k, (g, w) in enumerate(zip(got + got_plain, want + want_plain)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), k


def stack_run(forward, window, graph, params, tape):
    """Loss, readouts and parameter gradients of one window."""
    for p in params.parameters():
        p.grad = None
    if not tape:
        with T.no_grad():
            out = forward(window, graph, params)
        return [r.data for r in out.readouts]
    with T.Tape():
        out = forward(window, graph, params)
        loss = spin_loss(out, window.values, window.mask)
        T.backward(loss)
    return ([loss.data] + [r.data for r in out.readouts]
            + [p.grad for p in params.parameters()])


@pytest.mark.parametrize("forward, case", [
    (spin_forward, lambda s: random_case(s, n_nodes=5, width=6, n_layers=2)),
    (spinh_forward, lambda s: random_hub_case(s, n_nodes=4, width=6)),
    (spinh_forward, lambda s: random_hub_case(s, n_nodes=4, per_node_hubs=True)),
])
@pytest.mark.parametrize("tape", [True, False])
def test_stacks_with_one_row_chunks_match_whole_blocks(monkeypatch, forward,
                                                       case, tape):
    for seed in range(3):
        window, graph, params = case(seed + 200)
        monkeypatch.setattr(T, "CHUNK_BYTES", 1)  # one block row per chunk
        got = stack_run(forward, window, graph, params, tape)
        monkeypatch.setattr(T, "attention_blocks", R.attention_blocks)
        want = stack_run(forward, window, graph, params, tape)
        monkeypatch.undo()
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.tobytes() == w.tobytes(), (seed, k)


def open_cross_block(hidden=32):
    """(inputs, sets, hid bytes) of a block shaped like spin's open cross
    block at W=24, E=52, whose pair activations take 7.3 MiB."""
    rng = np.random.default_rng(5)
    n_rows = 24 * 20
    blocks = [(rng.integers(0, n_rows, size=(52, 24)),
               rng.integers(0, n_rows, size=(52, 24)))]
    arrays = [rng.normal(size=(n_rows, 8)), rng.normal(size=(n_rows, 8)),
              rng.normal(size=(16, hidden)) * 0.3, rng.normal(size=hidden),
              rng.normal(size=(hidden, 8)), rng.normal(size=8),
              rng.normal(size=(8, 1))]
    hid_bytes = 52 * 24 * 24 * hidden * 8
    return arrays, T.MessageSets(blocks), hid_bytes


def traced_peak(fn):
    """tracemalloc peak of fn() above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_untaped_forward_holds_one_chunk():
    arrays, sets, hid_bytes = open_cross_block()
    peak = traced_peak(lambda: T.attention_blocks(arrays[0], arrays[1], sets,
                                                  *arrays[2:]))
    assert peak < hid_bytes / 2  # 3.2 MB; 9.2 MB with the block whole


def test_backward_forms_pair_gradients_chunk_by_chunk():
    arrays, sets, hid_bytes = open_cross_block()
    leaves = [T.Value(a, requires_grad=True) for a in arrays]
    proj = np.random.default_rng(6).normal(size=(arrays[1].shape[0], 8))
    with T.Tape():
        out, _ = T.attention_blocks(leaves[0], leaves[1], sets, *leaves[2:])
        root = U.vsum(U.mul(out, proj))
        peak = traced_peak(lambda: T.backward(root))
    assert peak < hid_bytes / 2  # 3.6 MB; 10.4 MB with the block whole
