"""The fused MLP op against the chain it replaced.

`T.mlp` records a whole multi-layer perceptron over its concatenated
input parts as one tape op. `unfused_ops.mlp_chain` is the older chain
(concat, then matmul, add and relu per layer). The fused op must give the
same bits in values and in every gradient, on the op alone and inside
whole spin and spin-h windows, while its tape holds fewer bytes.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill.tensor as T
import unfused_ops as U
from graphfill.data import training_whiten
from graphfill.errors import NonFiniteError, ShapeError
from graphfill.nn import Mlp
from graphfill.spin import spin_forward
from graphfill.spin_h import spinh_forward
from graphfill.train import spin_loss
from test_spin import random_case
from test_spin_h import random_case as random_hub_case
from test_tensor import check_grads


def run(op, parts, grad_parts, weights, biases, proj):
    """Output and gradients (parts, weights, biases) of sum(proj * op(...))."""
    parts = [T.Value(p.copy(), requires_grad=r) for p, r in zip(parts, grad_parts)]
    weights = [T.Value(w.copy(), requires_grad=True) for w in weights]
    biases = [T.Value(b.copy(), requires_grad=True) for b in biases]
    with T.Tape():
        out = op(parts, weights, biases)
        T.backward(U.vsum(U.mul(out, proj)))
    return out.data, [v.grad for v in parts + weights + biases]


@st.composite
def mlp_cases(draw):
    lead = draw(st.sampled_from([(7,), (1,), (3, 4), (2, 1)]))
    part_widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    widths = [sum(part_widths)] + draw(st.lists(st.integers(1, 6), min_size=1,
                                                max_size=3))
    grad_parts = draw(st.lists(st.booleans(), min_size=len(part_widths),
                               max_size=len(part_widths)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=lead + (k,)) for k in part_widths]
    weights = [rng.normal(size=(a, b)) for a, b in zip(widths[:-1], widths[1:])]
    biases = [rng.normal(size=b) for b in widths[1:]]
    proj = rng.normal(size=lead + (widths[-1],))
    return parts, grad_parts, weights, biases, proj


@settings(max_examples=120)
@given(mlp_cases())
def test_mlp_matches_chain_bit_for_bit(case):
    # parts that do not require grad stand for encoding's temporal codes
    got, got_grads = run(T.mlp, *case)
    want, want_grads = run(U.mlp_chain, *case)
    assert got.tobytes() == want.tobytes()
    for k, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert (g is None) == (w is None), k
        if g is not None:
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), k


def test_mlp_grads_match_finite_differences():
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(5, 2)), rng.normal(size=(5, 3)),
              rng.normal(size=(5, 4)) * 0.7, rng.normal(size=4),
              rng.normal(size=(4, 2)) * 0.7, rng.normal(size=2)]
    proj = rng.normal(size=(5, 2))

    def fv(a, b, w0, b0, w1, b1):
        return U.vsum(U.mul(T.mlp([a, b], [w0, w1], [b0, b1]), proj))

    def ff(a, b, w0, b0, w1, b1):
        h = np.maximum(np.concatenate([a, b], axis=-1) @ w0 + b0, 0.0)
        return float(np.sum((h @ w1 + b1) * proj))

    check_grads(fv, ff, arrays)


@pytest.mark.parametrize("layer", [0, 1])
def test_overflowing_product_raises(layer):
    weights = [np.ones((3, 4)), np.ones((4, 1))]
    weights[layer] = weights[layer] * 1e308
    with pytest.raises(NonFiniteError):
        T.mlp([np.ones((2, 3))], weights, [np.zeros(4), np.zeros(1)])


def test_bias_overflowing_a_finite_product_raises():
    x = np.full((2, 3), 1e308 / 3)  # each product entry is 1e308
    with pytest.raises(NonFiniteError):
        T.mlp([x], [np.ones((3, 4)), np.ones((4, 1))],
              [np.full(4, 1e308), np.zeros(1)])


def test_mlp_shape_errors():
    w, b = [np.ones((5, 2))], [np.zeros(2)]
    with pytest.raises(ShapeError):
        T.mlp([np.ones((3, 2)), np.ones((4, 3))], w, b)  # leading axes differ
    with pytest.raises(ShapeError):
        T.mlp([np.ones((3, 2)), np.ones((3, 2))], w, b)  # width 4, not 5
    with pytest.raises(ShapeError):
        Mlp([5, 2], np.random.default_rng(0))(np.ones((3, 4)))


def test_one_mlp_call_appends_one_tape_record():
    rng = np.random.default_rng(3)
    mlp = Mlp([5, 4, 3, 2], rng)
    a = T.Value(rng.normal(size=(6, 2)), requires_grad=True)
    b = T.Value(rng.normal(size=(6, 3)))
    with T.Tape() as tape:
        out = mlp(a, b)
        assert len(tape.records) == 1
        assert tape.records[0][0] is out
    with T.Tape() as tape:
        U.unfused_mlp_call(mlp, a, b)
        assert len(tape.records) == 1 + 3 * 2 + 2  # concat, 3 x (matmul, add), 2 relus


def window_tape(forward, window, graph, params):
    """(traced bytes alive when backward starts, tape records, parameter
    gradients) of one training window's loss."""
    for p in params.parameters():
        p.grad = None
    input_mask, loss_mask = training_whiten(window, rng=np.random.default_rng(4))
    gc.collect()
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            loss = spin_loss(forward(window, graph, params, input_mask=input_mask),
                             window.values, loss_mask)
            alive = tracemalloc.get_traced_memory()[0]
            n_records = len(tape.records)
            T.backward(loss)
    finally:
        tracemalloc.stop()
    return alive, n_records, [p.grad for p in params.parameters()]


def chain_only_bytes(calls):
    """Bytes of the arrays the chain's records hold and the fused records
    do not, over MLP calls given as (part shapes, weight shapes): each
    join of several parts, each layer's matmul output, and each hidden
    layer's pre-activation. Both keep the relu outputs and the result."""
    total = 0
    for part_shapes, weight_shapes in calls:
        rows = int(np.prod(part_shapes[0][:-1]))
        if len(part_shapes) > 1:
            total += rows * sum(shape[-1] for shape in part_shapes)
        outs = [shape[1] for shape in weight_shapes]
        total += rows * (sum(outs) + sum(outs[:-1]))
    return 8 * total


@pytest.mark.parametrize("variant", ["spin", "spin-h"])
def test_fused_tape_is_smaller_with_equal_gradients(monkeypatch, variant):
    if variant == "spin":
        window, graph, params = random_case(11, n_nodes=6, width=12, n_layers=2)
        forward = spin_forward
    else:
        window, graph, params = random_hub_case(12, n_nodes=6, width=12)
        forward = spinh_forward
    calls, fused_mlp = [], T.mlp

    def recording_mlp(parts, weights, biases):
        calls.append(([np.shape(T.as_value(p).data) for p in parts],
                      [np.shape(T.as_value(w).data) for w in weights]))
        return fused_mlp(parts, weights, biases)

    monkeypatch.setattr(T, "mlp", recording_mlp)
    window_tape(forward, window, graph, params)  # also builds what is cached
    monkeypatch.setattr(T, "mlp", fused_mlp)
    fused = window_tape(forward, window, graph, params)
    monkeypatch.setattr(Mlp, "__call__", U.unfused_mlp_call)
    chain = window_tape(forward, window, graph, params)
    for (name, _), g, w in zip(params.named_parameters(), fused[2], chain[2]):
        assert g.tobytes() == w.tobytes(), name
    assert fused[1] < chain[1]
    # at least the update MLP's [h, self context, cross context] joins
    w, n = window.values.shape
    assert chain_only_bytes(calls) >= params.n_layers * w * n * 3 * params.d_h * 8
    assert chain[0] - fused[0] >= chain_only_bytes(calls)
