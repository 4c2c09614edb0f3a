"""Adam reads and clears each parameter's .grad; clipping and the schedule."""

import math

import numpy as np
import pytest

import graphfill.tensor as T
import unfused_ops as U
from graphfill.errors import ShapeError
from graphfill.optim import AdamState, adam_step, clip_global_norm, lr_schedule


def leaf(values, grad=None):
    p = T.Value(np.array(values, dtype=np.float64), requires_grad=True)
    p.grad = None if grad is None else np.array(grad, dtype=np.float64)
    return p


def test_adam_matches_two_hand_computed_steps():
    p = leaf([1.0, -2.0])
    state = AdamState([p])
    lr, eps = 0.01, 1e-8
    g1, g2 = np.array([0.5, -1.0]), np.array([0.1, 0.2])

    p.grad = g1.copy()
    adam_step(state, lr)
    # Step 1: m = 0.1 g, v = 0.001 g², so m̂ = g and v̂ = g².
    want = np.array([1.0, -2.0]) - lr * g1 / (np.abs(g1) + eps)
    assert np.allclose(p.data, want, rtol=1e-14, atol=0)

    p.grad = g2.copy()
    adam_step(state, lr)
    m = 0.9 * 0.1 * g1 + 0.1 * g2
    v = 0.999 * 0.001 * g1 ** 2 + 0.001 * g2 ** 2
    m_hat, v_hat = m / (1 - 0.9 ** 2), v / (1 - 0.999 ** 2)
    want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.allclose(p.data, want, rtol=1e-14, atol=0)
    assert np.allclose(state.m[0], m, rtol=1e-14, atol=0)
    assert np.allclose(state.v[0], v, rtol=1e-14, atol=0)
    assert state.t == 2


def test_adam_consumes_grad_and_decays_moments_without_one():
    touched, untouched = leaf([1.0, 2.0]), leaf([3.0])
    state = AdamState([touched, untouched])
    untouched.grad = np.array([0.4])
    touched.grad = np.array([0.2, -0.3])
    adam_step(state, 0.1)
    assert touched.grad is None and untouched.grad is None
    m, v = state.m[1].copy(), state.v[1].copy()
    before = untouched.data.copy()

    touched.grad = np.array([0.1, 0.1])  # untouched gets no gradient
    adam_step(state, 0.1)
    assert np.array_equal(state.m[1], 0.9 * m)
    assert np.array_equal(state.v[1], 0.999 * v)
    assert not np.array_equal(untouched.data, before)  # momentum still moves it
    assert touched.grad is None and untouched.grad is None


def test_adam_rejects_a_gradient_of_the_wrong_shape():
    p = leaf([1.0, 2.0], grad=[1.0])
    with pytest.raises(ShapeError):
        adam_step(AdamState([p]), 0.1)


def test_clip_scales_only_above_the_limit_and_returns_the_norm():
    a, b, none = leaf([0.0, 0.0], grad=[3.0, 0.0]), leaf([0.0], grad=[4.0]), leaf([1.0])
    assert clip_global_norm([a, none, b], 10.0) == 5.0
    assert np.array_equal(a.grad, [3.0, 0.0]) and np.array_equal(b.grad, [4.0])
    assert none.grad is None

    assert clip_global_norm([a, none, b], 2.5) == 5.0  # the norm before clipping
    assert np.array_equal(a.grad, [1.5, 0.0]) and np.array_equal(b.grad, [2.0])
    assert none.grad is None
    assert clip_global_norm([none], 1.0) == 0.0


def test_clip_scales_a_gradient_shared_by_two_parameters_once():
    # add gives both inputs its output gradient, here vsum's read-only
    # broadcast view, so a and b end up holding the same array.
    a, b = leaf([1.0, 2.0, 3.0]), leaf([-1.0, 0.5, 4.0])
    with T.Tape():
        T.backward(U.vsum(U.add(a, b)))
    assert a.grad is b.grad
    norm = clip_global_norm([a, b], 1.0)
    assert norm == math.sqrt(6.0)
    for p in (a, b):
        assert np.array_equal(p.grad, np.full(3, 1.0 / norm))


def test_lr_schedule_warmup_then_cosine_restarts():
    base, warmup, period = 0.01, 12, 100
    assert lr_schedule(0, 0, base, warmup, period) == 0.0
    assert lr_schedule(6, 0, base, warmup, period) == pytest.approx(base / 2, rel=1e-15)
    # the first epoch after warm-up is one epoch into the cosine
    assert lr_schedule(12, 1, base, warmup, period) == pytest.approx(
        base * 0.5 * (1.0 + math.cos(math.pi / period)), rel=1e-15)
    # the last epoch of a period decays toward 0, the next restarts at base
    assert lr_schedule(5000, 99, base, warmup, period) == pytest.approx(
        base * 0.5 * (1.0 + math.cos(math.pi * 0.99)), rel=1e-12)
    assert lr_schedule(5000, 100, base, warmup, period) == base
