"""Adam optimizer and the warm-up/cosine-restart learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


class AdamState:
    """The parameters Adam updates, their first/second moment estimates
    and the shared step counter."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0


def adam_step(state: AdamState, lr):
    """One in-place Adam update of state.params from their .grad, with
    bias correction; every .grad is None afterwards.

    A parameter whose .grad is None (untouched this pass) still has its
    moments decay, matching an all-zero gradient.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for k, p in enumerate(state.params):
        g = p.grad
        if g is None:
            g = 0.0
        elif g.shape != p.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter shape {p.data.shape}")
        state.m[k] = BETA1 * state.m[k] + (1.0 - BETA1) * g
        state.v[k] = BETA2 * state.v[k] + (1.0 - BETA2) * np.square(g)
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None


def lr_schedule(step, epoch, base_lr, warmup_steps, restart_period_epochs):
    """Linear warm-up by optimizer step, then per-epoch cosine decay.

    The cosine phase restarts from base_lr at the start of every
    restart_period_epochs-epoch block and decays toward 0 at its end.
    """
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    phase = (epoch % restart_period_epochs) / restart_period_epochs
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * phase))


def clip_global_norm(params, max_norm):
    """Replace each parameter's .grad (skipping None) with a copy scaled so
    their joint L2 norm is <= max_norm; returns the norm before clipping."""
    params = [p for p in params if p.grad is not None]
    norm = math.sqrt(sum(float(np.sum(np.square(p.grad))) for p in params))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad = p.grad * scale
    return norm
