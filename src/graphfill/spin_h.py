"""Hierarchical variant: per-node hubs make attention linear in W.

Instead of letting every position attend over whole step sequences
(quadratic in W), each node carries K hub vectors that act as a learned
summary of its sequence. Every layer runs two phases:

  1. hub update — each hub of node i attends over node i's steps
     (observed steps only in the first `n_masked` layers) and is updated
     from [hub, context];
  2. position update — each position (i, τ) attends over the K updated
     hubs of node i (self branch) and of every in-neighbor j (cross
     branch, one set per edge), then the update/readout from the base
     model apply unchanged.

All softmax sets in phase 2 have fixed size K, so the per-layer pair
count is (N+E)·W·K plus the phase-1 count (N·W_obs·K when masked), linear
in W instead of quadratic.

Hubs start from one shared trainable (K, d_z) base replicated to every
node, which keeps the model permutation-equivariant and its size
independent of N; a per-node table is available as a config switch. Hubs
are re-derived from the base on every forward pass.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoding import EncodingParams
from .errors import ValidationError
from .graph import SensorGraph
from .nn import Mlp
from .spin import (ImputationOutput, _check_window, _resolve_depth, attend)

N_LAYERS_H = 5
N_MASKED_LAYERS_H = 3
N_HUBS = 4
D_Z = 128
HUB_INIT_STD = 0.1


class HubPlan:
    """Index arrays for one phase-1 pass: hub (i,k) attends node i's steps."""

    def __init__(self, input_mask, n_hubs, masked):
        w, n = input_mask.shape
        key, query, starts, out = [], [], [], []
        offset = 0
        for i in range(n):
            steps = (np.flatnonzero(input_mask[:, i]).astype(np.intp) if masked
                     else np.arange(w, dtype=np.intp))
            t = len(steps)
            if t == 0:
                continue
            hubs = i * n_hubs + np.arange(n_hubs, dtype=np.intp)
            key.append(np.tile(steps * n + i, n_hubs))
            query.append(np.repeat(hubs, t))
            starts.append(offset + np.arange(n_hubs, dtype=np.intp) * t)
            out.append(hubs)
            offset += n_hubs * t
        cat = lambda parts: (np.concatenate(parts) if parts
                             else np.zeros(0, dtype=np.intp))
        self.key = cat(key)
        self.query = cat(query)
        self.starts = cat(starts)
        self.out = cat(out)
        self.n_out = n * n_hubs
        self.masked = masked

    @property
    def n_pairs(self) -> int:
        return len(self.key)


class HubReadPlan:
    """Index arrays for phase 2: position (i, τ) reads K hubs per source node.

    The self branch reads node i's own hubs; the cross branch reads the
    hubs of each in-neighbor j, one K-sized set per edge, scattered so
    that edge contexts sum over in-neighbors in ascending-source order.
    """

    def __init__(self, w, n, graph: SensorGraph, n_hubs):
        taus = np.arange(w, dtype=np.intp)
        pos = np.arange(w * n, dtype=np.intp)  # flat position τ·N + i
        karr = np.arange(n_hubs, dtype=np.intp)

        self.self_key = (np.repeat((pos % n) * n_hubs, n_hubs)
                         + np.tile(karr, w * n))
        self.self_query = np.repeat(pos, n_hubs)
        self.self_starts = np.arange(w * n, dtype=np.intp) * n_hubs
        self.self_out = pos

        key, query, starts, out = [], [], [], []
        offset = 0
        for e in range(graph.n_edges):
            j, i = graph.src[e], graph.dst[e]
            key.append(np.tile(j * n_hubs + karr, w))
            query.append(np.repeat(taus * n + i, n_hubs))
            starts.append(offset + taus * n_hubs)
            out.append(taus * n + i)
            offset += w * n_hubs
        cat = lambda parts: (np.concatenate(parts) if parts
                             else np.zeros(0, dtype=np.intp))
        self.cross_key = cat(key)
        self.cross_query = cat(query)
        self.cross_starts = cat(starts)
        self.cross_out = cat(out)
        self.n_out = w * n

    @property
    def n_self_pairs(self) -> int:
        return len(self.self_key)

    @property
    def n_cross_pairs(self) -> int:
        return len(self.cross_key)


class SpinHParameters:
    """Trainable state for the hierarchical variant."""

    def __init__(self, n_nodes, d_h=32, d_z=D_Z, n_hubs=N_HUBS,
                 n_layers=N_LAYERS_H, n_masked=N_MASKED_LAYERS_H, hidden=32,
                 periods=(24,), d_v=None, d_q=None, per_node_hubs=False,
                 rng=None, encoding=None):
        if not (1 <= n_masked <= n_layers):
            raise ValidationError(
                f"masked-layer count {n_masked} out of range [1, {n_layers}]")
        if n_hubs < 1:
            raise ValidationError(f"need at least one hub, got {n_hubs}")
        rng = np.random.default_rng(rng)
        self.d_h = d_h
        self.d_z = d_z
        self.n_hubs = n_hubs
        self.n_layers = n_layers
        self.n_masked = n_masked
        self.per_node_hubs = per_node_hubs
        if encoding is not None:
            self.encoding = encoding
        else:
            kw = {}
            if d_v is not None:
                kw["d_v"] = d_v
            if d_q is not None:
                kw["d_q"] = d_q
            self.encoding = EncodingParams(n_nodes, periods=periods, hidden=hidden,
                                           rng=rng, **kw)
        d_q = self.encoding.d_q
        self.init_target = Mlp([d_q, hidden, d_h], rng)
        self.init_observed = Mlp([1 + d_q, hidden, d_h], rng)
        base_rows = n_nodes * n_hubs if per_node_hubs else n_hubs
        self.hub_base = T.Value(rng.normal(0.0, HUB_INIT_STD, size=(base_rows, d_z)),
                                requires_grad=True)
        self.layers = []
        for _ in range(n_layers):
            self.layers.append({
                "hub_msg": Mlp([d_h + d_z, hidden, d_z], rng),
                "hub_score": T.Value(rng.normal(0.0, 1.0 / np.sqrt(d_z),
                                                size=(d_z, 1)), requires_grad=True),
                "hub_fuse": Mlp([2 * d_z, hidden, d_z], rng),
                "self_msg": Mlp([d_z + d_h, hidden, d_h], rng),
                "self_score": T.Value(rng.normal(0.0, 1.0 / np.sqrt(d_h),
                                                 size=(d_h, 1)), requires_grad=True),
                "cross_msg": Mlp([d_z + d_h, hidden, d_h], rng),
                "cross_score": T.Value(rng.normal(0.0, 1.0 / np.sqrt(d_h),
                                                  size=(d_h, 1)), requires_grad=True),
                "update": Mlp([3 * d_h, hidden, d_h], rng),
            })
        self.readout = Mlp([d_h, hidden, 1], rng)

    def named_parameters(self):
        out = list(self.encoding.named_parameters())
        out += self.init_target.named_parameters("init.target")
        out += self.init_observed.named_parameters("init.observed")
        out.append(("hubs.base", self.hub_base))
        for l, blk in enumerate(self.layers):
            out += blk["hub_msg"].named_parameters(f"layers.{l}.hub.message")
            out.append((f"layers.{l}.hub.score", blk["hub_score"]))
            out += blk["hub_fuse"].named_parameters(f"layers.{l}.hub.fuse")
            out += blk["self_msg"].named_parameters(f"layers.{l}.self.message")
            out.append((f"layers.{l}.self.score", blk["self_score"]))
            out += blk["cross_msg"].named_parameters(f"layers.{l}.cross.message")
            out.append((f"layers.{l}.cross.score", blk["cross_score"]))
            out += blk["update"].named_parameters(f"layers.{l}.update")
        out += self.readout.named_parameters("readout")
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def hub_rows(self, n_nodes) -> T.Value:
        """The layer-0 hub state, one row per (node, hub)."""
        if self.per_node_hubs:
            idx = np.arange(n_nodes * self.n_hubs, dtype=np.intp)
        else:
            idx = np.tile(np.arange(self.n_hubs, dtype=np.intp), n_nodes)
        return T.gather_rows(self.hub_base, idx)


def spinh_forward(window, graph: SensorGraph, params: SpinHParameters,
                  n_layers=None, n_masked=None, input_mask=None,
                  collect_alphas=False) -> ImputationOutput:
    """Run the hierarchical stack on one window."""
    n_layers, n_masked = _resolve_depth(params, n_layers, n_masked)
    values, input_mask = _check_window(window, input_mask, graph)
    w, n = values.shape

    x_leaf = T.Value(values.reshape(w * n, 1), requires_grad=True)
    q_flat = params.encoding.codes_flat(window.step_offsets, n)
    obs_pos = np.flatnonzero(input_mask.ravel() == 1)
    targ_pos = np.flatnonzero(input_mask.ravel() == 0)
    h_obs = params.init_observed(T.concat(
        [T.gather_rows(x_leaf, obs_pos, unique=True),
         T.gather_rows(q_flat, obs_pos, unique=True)], axis=-1))
    h_targ = params.init_target(T.gather_rows(q_flat, targ_pos, unique=True))
    h = T.add(T.scatter_rows(h_obs, obs_pos, w * n),
              T.scatter_rows(h_targ, targ_pos, w * n))
    z = params.hub_rows(n)

    masked_hub = HubPlan(input_mask, params.n_hubs, masked=True)
    open_hub = (HubPlan(input_mask, params.n_hubs, masked=False)
                if n_masked < n_layers else None)
    read_plan = HubReadPlan(w, n, graph, params.n_hubs)

    readouts, pairs, alphas = [], [], []
    for l in range(n_layers):
        hub_plan = masked_hub if l < n_masked else open_hub
        blk = params.layers[l]
        c_hub, a_hub = attend(h, z, hub_plan.key, hub_plan.query, hub_plan.starts,
                              hub_plan.out, hub_plan.n_out,
                              blk["hub_msg"], blk["hub_score"], collect_alphas)
        z = blk["hub_fuse"](T.concat([z, c_hub], axis=-1))
        c, a_self = attend(z, h, read_plan.self_key, read_plan.self_query,
                           read_plan.self_starts, read_plan.self_out,
                           read_plan.n_out, blk["self_msg"], blk["self_score"],
                           collect_alphas)
        e, a_cross = attend(z, h, read_plan.cross_key, read_plan.cross_query,
                            read_plan.cross_starts, read_plan.cross_out,
                            read_plan.n_out, blk["cross_msg"], blk["cross_score"],
                            collect_alphas)
        h = blk["update"](T.concat([h, c, e], axis=-1))
        readouts.append(T.reshape(params.readout(h), (w, n)))
        pairs.append({"hub": hub_plan.n_pairs,
                      "self": read_plan.n_self_pairs,
                      "cross": read_plan.n_cross_pairs,
                      "masked": hub_plan.masked})
        if collect_alphas:
            alphas.append({"hub": a_hub, "self": a_self, "cross": a_cross})

    return ImputationOutput(readouts=readouts, x_leaf=x_leaf, values=values,
                            input_mask=input_mask.copy(), pairs_per_layer=pairs,
                            alphas=alphas if collect_alphas else None)
