"""Adam optimizer and the warm-up/cosine-restart learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, params):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params, grads, state: AdamState, lr,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One in-place Adam update with bias correction.

    grads[k] may be None (parameter untouched this pass): its moments
    still decay, matching an all-zero gradient.
    """
    if len(grads) != len(state.m):
        raise ShapeError(f"got {len(grads)} gradients for {len(state.m)} parameters")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for k, p in enumerate(params):
        g = grads[k]
        if g is None:
            g = 0.0
        elif np.shape(g) != p.data.shape:
            raise ShapeError(
                f"gradient shape {np.shape(g)} != parameter shape {p.data.shape}")
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * np.square(g)
        m_hat = state.m[k] / bc1
        v_hat = state.v[k] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def lr_schedule(step, epoch, base_lr, warmup_steps, restart_period_epochs):
    """Linear warm-up by optimizer step, then per-epoch cosine decay.

    The cosine phase restarts from base_lr at the start of every
    restart_period_epochs-epoch block and decays toward 0 at its end.
    """
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    phase = (epoch % restart_period_epochs) / restart_period_epochs
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * phase))


def clip_global_norm(grads, max_norm):
    """Scale the gradient list in place so its joint L2 norm is <= max_norm."""
    total = 0.0
    for g in grads:
        if g is not None:
            total += float(np.sum(np.square(g)))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            if g is not None:
                g *= scale
    return norm
