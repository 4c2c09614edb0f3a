"""Spatiotemporal position codes q_t^i.

Every (node, step) position gets a code regardless of whether its value
was measured: a sinusoidal function of the absolute step index fused with
a learnable per-node embedding by a small MLP. These codes are what let
the model address positions whose values are missing.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .nn import Mlp

DEFAULT_PERIODS = (24.0,)
DEFAULT_D_V = 16
DEFAULT_D_Q = 32
DEFAULT_HIDDEN = 32  # hidden width of every two-layer MLP in the model
SPATIAL_INIT_STD = 0.1


def temporal_encoding(steps, periods=DEFAULT_PERIODS) -> np.ndarray:
    """[sin(2π·t/P), cos(2π·t/P)] per period P, concatenated; shape (T, 2·|periods|)."""
    steps = np.atleast_1d(np.asarray(steps, dtype=np.float64))
    if len(periods) == 0:
        raise ValidationError("need at least one period")
    if any(p <= 0 for p in periods):
        raise ValidationError(f"periods must be positive, got {tuple(periods)}")
    if np.any(steps < 0):
        raise ValidationError("step indices must be non-negative")
    cols = []
    for p in periods:
        phase = 2.0 * np.pi * steps / p
        cols.append(np.sin(phase))
        cols.append(np.cos(phase))
    return np.stack(cols, axis=-1)


class EncodingParams:
    """Learnable spatial embeddings plus the fusion MLP ρ."""

    def __init__(self, n_nodes, periods=DEFAULT_PERIODS, d_v=DEFAULT_D_V,
                 d_q=DEFAULT_D_Q, hidden=DEFAULT_HIDDEN, rng=None):
        if n_nodes <= 0:
            raise ValidationError(f"need at least one node, got {n_nodes}")
        rng = np.random.default_rng(rng)
        self.periods = tuple(periods)
        self.d_u = 2 * len(self.periods)
        self.d_v = d_v
        self.spatial = T.Value(rng.normal(0.0, SPATIAL_INIT_STD, size=(n_nodes, d_v)),
                               requires_grad=True)
        self.fuse = Mlp([self.d_u + d_v, hidden, d_q], rng)
        self.d_q = d_q

    @property
    def n_nodes(self) -> int:
        return self.spatial.data.shape[0]

    def named_parameters(self):
        return ([("encoding.spatial", self.spatial)]
                + self.fuse.named_parameters("encoding.fuse"))

    def codes_flat(self, step_offsets, n_nodes, nodes=None) -> T.Value:
        """q for all positions, flattened so row τ·N + i is (step τ, column i).

        nodes[i] is the node id of column i; without them the columns are
        nodes 0..N-1 and must cover every node.
        """
        if nodes is None:
            if n_nodes != self.n_nodes:
                raise ValidationError(
                    f"window has {n_nodes} nodes but embeddings cover {self.n_nodes}")
            nodes = np.arange(n_nodes)
        elif len(nodes) != n_nodes or not np.all((0 <= nodes) & (nodes < self.n_nodes)):
            raise ValidationError(f"window node ids {list(nodes)} do not index "
                                  f"{n_nodes} of {self.n_nodes} embeddings")
        u = temporal_encoding(step_offsets, self.periods)  # (W, d_u)
        w = len(step_offsets)
        u_flat = T.Value(np.repeat(u, n_nodes, axis=0))
        v_flat = T.gather_rows(self.spatial, np.tile(nodes, w))
        return self.fuse(u_flat, v_flat)

