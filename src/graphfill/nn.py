"""Multi-layer perceptrons over Value arrays.

An Mlp is defined by its layer widths: widths [a, b, c] mean two weight
matrices (a×b, b×c) with rectified-linear activation after every layer
except the last, which stays linear. All model sub-blocks in this package
are instances of this one class.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError


class Mlp:
    """Fully connected layers: linear + ReLU repeated, final layer linear."""

    def __init__(self, widths, rng: np.random.Generator):
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ShapeError(f"layer widths must be >= 2 positive entries, got {widths}")
        self.widths = list(widths)
        self.weights = []
        self.biases = []
        last = len(widths) - 2
        for k, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            # Rectifier-scaled hidden layers and a unit-gain final layer
            # keep the output scale close to the input scale, so stacked
            # blocks neither attenuate nor explode at initialization.
            scale = np.sqrt((1.0 if k == last else 2.0) / a)
            self.weights.append(T.Value(rng.normal(0.0, scale, size=(a, b)),
                                        requires_grad=True))
            self.biases.append(T.Value(np.zeros(b), requires_grad=True))

    def named_parameters(self, prefix: str):
        out = []
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{prefix}.layer{k}.weight", w))
            out.append((f"{prefix}.layer{k}.bias", b))
        return out

    def __call__(self, *parts):
        """The MLP over the concatenation of `parts` along their last axis,
        recorded as one tape op."""
        return T.mlp(parts, self.weights, self.biases)
