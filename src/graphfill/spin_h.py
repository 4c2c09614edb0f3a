"""Hierarchical variant: per-node hubs make attention linear in W.

Instead of letting every position attend over whole step sequences
(quadratic in W), each node carries K hub vectors that act as a learned
summary of its sequence. Every layer runs two phases:

  1. hub update — each hub of node i attends over node i's steps
     (observed steps only in the first `n_masked` layers) and is updated
     from [hub, context];
  2. position update — spin's block (`spin.position_update`) with the
     updated hubs as keys: each position (i, τ) attends over the K hubs
     of node i (self branch) and of every in-neighbor j (cross branch,
     one set per edge), then the update and readout apply unchanged.

All softmax sets in phase 2 have fixed size K, so the per-layer pair
count is (N+E)·W·K plus the phase-1 count (N·W_obs·K when masked), linear
in W instead of quadratic. `HubPlan` builds every branch of a forward
once: a hub block (spin's `block_sets`) is a node's K hubs reading its
steps (Wq = K), and the read branches are spin's `position_sets` with a
node's K hubs as its key group, the W positions of a node reading the K
hubs of that node or of an in-neighbor (c = K).

Hubs start from one shared trainable (K, d_z) base replicated to every
node, which keeps the model permutation-equivariant and its size
independent of N; a per-node table is available as a config switch. Hubs
are re-derived from the base on every forward pass.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoding import DEFAULT_D_Q, DEFAULT_D_V, DEFAULT_HIDDEN, DEFAULT_PERIODS
from .errors import ValidationError
from .graph import SensorGraph
from .nn import Mlp
from .spin import (D_H, N_MASKED_LAYERS, ImputationOutput, _Parameters, attend,
                   block_sets, init_states, node_steps, position_sets,
                   position_update, run_layers, score_vector)

N_LAYERS_H = 5
N_HUBS = 4
D_Z = 128
HUB_INIT_STD = 0.1


class HubPlan:
    """Every message set of one spin-h forward.

    `masked_hub` and `open_hub`: hub (i, k) reads node i's observed steps,
    or all W of them, one block per node. `read_self`: position (i, τ)
    reads node i's K hubs, one block per node. `read_cross`: it reads the
    K hubs of each in-neighbor j, one block per edge, so that edge
    contexts sum over in-neighbors. `open_hub` is built only `with_open`.
    """

    def __init__(self, input_mask, graph: SensorGraph, n_hubs, with_open):
        w, n = input_mask.shape
        nodes = np.arange(n)
        hub_ids = nodes[:, None] * n_hubs + np.arange(n_hubs)
        self.read_self, self.read_cross = position_sets(
            hub_ids.ravel(), np.arange(n + 1) * n_hubs, graph, w)

        def hub_sets(mask):
            return block_sets(*node_steps(mask), nodes, hub_ids)

        self.masked_hub = hub_sets(input_mask)
        self.open_hub = hub_sets(np.ones((w, n), dtype=bool)) if with_open else None


class SpinHParameters(_Parameters):
    """Trainable state for the hierarchical variant."""

    def __init__(self, n_nodes, d_h=D_H, d_z=D_Z, n_hubs=N_HUBS,
                 n_layers=N_LAYERS_H, n_masked=N_MASKED_LAYERS,
                 hidden=DEFAULT_HIDDEN, periods=DEFAULT_PERIODS, d_v=DEFAULT_D_V,
                 d_q=DEFAULT_D_Q, per_node_hubs=False, rng=None):
        if n_hubs < 1:
            raise ValidationError(f"need at least one hub, got {n_hubs}")
        rng = np.random.default_rng(rng)
        super().__init__(n_nodes, d_h, n_layers, n_masked, hidden, periods,
                         d_v, d_q, rng)
        self.d_z = d_z
        self.n_hubs = n_hubs
        self.per_node_hubs = per_node_hubs
        base_rows = n_nodes * n_hubs if per_node_hubs else n_hubs
        self.hub_base = T.Value(rng.normal(0.0, HUB_INIT_STD, size=(base_rows, d_z)),
                                requires_grad=True)
        self.layers = [{
            "hub_msg": Mlp([d_h + d_z, hidden, d_z], rng),
            "hub_score": score_vector(d_z, rng),
            "hub_fuse": Mlp([2 * d_z, hidden, d_z], rng),
            "self_msg": Mlp([d_z + d_h, hidden, d_h], rng),
            "self_score": score_vector(d_h, rng),
            "cross_msg": Mlp([d_z + d_h, hidden, d_h], rng),
            "cross_score": score_vector(d_h, rng),
            "update": Mlp([3 * d_h, hidden, d_h], rng),
        } for _ in range(n_layers)]
        self.readout = Mlp([d_h, hidden, 1], rng)

    def _init_parameters(self):
        return super()._init_parameters() + [("hubs.base", self.hub_base)]

    def hub_rows(self, n_nodes, nodes=None) -> T.Value:
        """The layer-0 hub state, one row per (window column, hub). nodes
        are the columns' node ids (None: 0..n_nodes-1); they pick the rows
        of a per-node table."""
        hubs = np.arange(self.n_hubs)
        if not self.per_node_hubs:
            return T.gather_rows(self.hub_base, np.tile(hubs, n_nodes))
        ids = np.arange(n_nodes) if nodes is None else np.asarray(nodes)
        return T.gather_rows(self.hub_base, (ids[:, None] * self.n_hubs + hubs).ravel())


def spinh_forward(window, graph: SensorGraph, params: SpinHParameters,
                  input_mask=None) -> ImputationOutput:
    """Run the hierarchical stack on one window."""
    input_mask, x_leaf, h = init_states(params, window, graph, input_mask)
    z = params.hub_rows(graph.n_nodes, window.nodes)
    plan = HubPlan(input_mask, graph, params.n_hubs,
                   params.n_masked < params.n_layers)

    def layer(blk, h, masked):
        nonlocal z
        hub = plan.masked_hub if masked else plan.open_hub
        c_hub, a_hub = attend(h, z, key_idx=hub, msg_mlp=blk["hub_msg"],
                              score=blk["hub_score"])
        z = blk["hub_fuse"](z, c_hub)
        h, audits = position_update(blk, z, h, plan.read_self, plan.read_cross)
        return h, {"hub": a_hub, **audits}

    return run_layers(params, x_leaf, h, input_mask.shape, layer)
