"""Sparse spatiotemporal attention over a sensor graph.

The model fills missing entries of a (W steps × N nodes) window. Each
position (i, τ) holds a hidden state h; states are initialized from the
position code q (plus the value x where observed) and refined by L
attention blocks. Per block, every position attends over two kinds of
message sets:

  * self branch — the other steps of the same node;
  * cross branch — the steps of each in-neighbor, one set per edge.

A message is an MLP of [sender state, receiver state]; per-set softmax
weights (scored by a learned vector) combine messages into a context, and
edge contexts are summed over in-neighbors. The receiver state is then
updated from [state, self context, neighbor sum]. In the first `eta`
blocks the message sets contain only steps whose value was observed, so
unobserved inputs cannot influence anything; later blocks attend over all
W steps of the learned states. A shared readout maps every block's states
to value predictions; training supervises all of them, imputation uses
the last.

All message sets of one branch are one `tensor.MessageSets` record,
built once per forward and run in every layer by one tape op,
`tensor.attention_blocks`: the message MLP, the per-set softmax and the
sum of contexts onto query rows. Every set reads one whole key group: a
node's observed steps (masked phase), all W of its steps (open phase),
or, in spin-h, a node's K hubs. So a group and the Wq query rows that
read it form a dense Wq × c block; `block_sets` buckets blocks by key
count c into (G, Wq, c) arrays, and `position_sets` makes the self
blocks (nodes) and cross blocks (edges) of spin and spin-h, each with
the W steps of the receiving node as query rows. Sets exist only for
allowed (sender, receiver) pairs — masking is structural, never an
additive penalty — so hidden values are unread by construction, and a
masked-phase forward is bit-for-bit independent of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoding import (DEFAULT_D_Q, DEFAULT_D_V, DEFAULT_HIDDEN, DEFAULT_PERIODS,
                       EncodingParams)
from .data import _as_binary
from .errors import ShapeError, ValidationError
from .graph import SensorGraph
from .nn import Mlp

D_H = 32
N_LAYERS = 4
N_MASKED_LAYERS = 3  # eta, for both variants


def block_sets(members, offsets, group, rows) -> T.MessageSets:
    """Blocks whose query rows each read one key group.

    Key group j holds members[offsets[j]:offsets[j + 1]]; the query rows
    rows[b] (a (B, Wq) array) all read group[b]. Blocks with equal group
    sizes c form one (keys (G, c), rows (G, Wq)) entry, in ascending c
    and then in the given block order; blocks whose group is empty are
    dropped (their contexts stay zero).
    """
    sizes = np.diff(offsets)[group]
    blocks = []
    for c in np.unique(sizes[sizes > 0]):
        pick = sizes == c
        keys = members[offsets[group[pick]][:, None] + np.arange(c)]
        blocks.append((keys, rows[pick]))
    return T.MessageSets(blocks)


def node_steps(mask):
    """Key groups of each node's nonzero steps as positions τ·N + i.

    Returns (members, offsets) with node i's group at
    members[offsets[i]:offsets[i + 1]], steps ascending.
    """
    w, n = mask.shape
    flat = np.flatnonzero(mask.T)  # i·W + τ, node-major
    offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=0))))
    return (flat % w) * n + flat // w, offsets


def step_rows(dst, w, n):
    """(len(dst), W) query rows: row g holds the positions τ·N + dst[g]."""
    return dst[:, None] + np.arange(w) * n


def position_sets(members, offsets, graph: SensorGraph, w):
    """(self_sets, cross_sets) of a W-step window's positions. Node i
    sends key group i, members[offsets[i]:offsets[i + 1]] (its steps, or
    its hubs in spin-h): to node i's W steps (one self block per node)
    and to the destination's W steps (one cross block per out-edge)."""
    n = len(offsets) - 1
    if graph.n_nodes != n:
        raise ShapeError(f"graph has {graph.n_nodes} nodes, window has {n}")
    nodes = np.arange(n)
    return (block_sets(members, offsets, nodes, step_rows(nodes, w, n)),
            block_sets(members, offsets, graph.src, step_rows(graph.dst, w, n)))


def build_attention_plan(input_mask, graph: SensorGraph, masked: bool):
    """(self_sets, cross_sets) of one phase: node j's key group is its
    observed steps with `masked` set, otherwise all W steps."""
    w, n = input_mask.shape
    keys = node_steps(input_mask if masked else np.ones((w, n), dtype=bool))
    return position_sets(*keys, graph, w)


def score_vector(d, rng) -> T.Value:
    """A trainable (d, 1) attention scorer drawn with standard deviation 1/√d."""
    return T.Value(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, 1)),
                   requires_grad=True)


class _Parameters:
    """The encoding and init MLPs that both variants start from."""

    def __init__(self, n_nodes, d_h, n_layers, n_masked, hidden, periods,
                 d_v, d_q, rng):
        if not (1 <= n_masked <= n_layers):
            raise ValidationError(
                f"masked-layer count {n_masked} out of range [1, {n_layers}]")
        self.d_h = d_h
        self.n_layers = n_layers
        self.n_masked = n_masked
        self.encoding = EncodingParams(n_nodes, periods=periods, d_v=d_v,
                                       d_q=d_q, hidden=hidden, rng=rng)
        self.init_target = Mlp([d_q, hidden, d_h], rng)
        self.init_observed = Mlp([1 + d_q, hidden, d_h], rng)

    def _init_parameters(self):
        return (list(self.encoding.named_parameters())
                + self.init_target.named_parameters("init.target")
                + self.init_observed.named_parameters("init.observed"))

    def named_parameters(self):
        """(name, Value) pairs in checkpoint, Adam and clipping order: init,
        each layer's entries as `self_msg` -> `layers.l.self.message`, readout.
        """
        out = self._init_parameters()
        for l, blk in enumerate(self.layers):
            for key, part in blk.items():
                name = f"layers.{l}." + key.replace("_msg", "_message").replace("_", ".")
                if isinstance(part, Mlp):
                    out += part.named_parameters(name)
                else:
                    out.append((name, part))
        return out + self.readout.named_parameters("readout")

    def parameters(self):
        return [p for _, p in self.named_parameters()]


class SpinParameters(_Parameters):
    """All trainable state: encodings, init/readout MLPs, per-layer blocks."""

    def __init__(self, n_nodes, d_h=D_H, n_layers=N_LAYERS,
                 n_masked=N_MASKED_LAYERS, hidden=DEFAULT_HIDDEN,
                 periods=DEFAULT_PERIODS, d_v=DEFAULT_D_V, d_q=DEFAULT_D_Q,
                 rng=None):
        rng = np.random.default_rng(rng)
        super().__init__(n_nodes, d_h, n_layers, n_masked, hidden, periods,
                         d_v, d_q, rng)
        self.layers = [{
            "cross_msg": Mlp([2 * d_h, hidden, d_h], rng),
            "cross_score": score_vector(d_h, rng),
            "self_msg": Mlp([2 * d_h, hidden, d_h], rng),
            "self_score": score_vector(d_h, rng),
            "update": Mlp([3 * d_h, hidden, d_h], rng),
        } for _ in range(n_layers)]
        self.readout = Mlp([d_h, hidden, 1], rng)


@dataclass
class ImputationOutput:
    """Everything a forward pass produces.

    readouts[l] is the (W, N) prediction from layer l+1's states; the
    last one is the imputation. x_leaf is the value array the pass read
    from, kept so callers can inspect input gradients. pairs_per_layer
    records how many (key, query) pairs each branch materialized, and
    alphas each branch's audit from `attend`.
    """
    readouts: list
    x_leaf: T.Value
    pairs_per_layer: list
    alphas: list

    @property
    def predictions(self) -> np.ndarray:
        return self.readouts[-1].data


def attend(key_src, query_src, *, key_idx, msg_mlp, score):
    """One attention branch over a `MessageSets` record: (context, audit).

    key_idx is the branch's MessageSets. Each set's keys are rows of
    key_src and its query is a row of query_src. A pair's message is
    msg_mlp([key row, query row]); per-set softmax weights (scored by
    `score`) combine messages into contexts, which are summed onto their
    query rows: the result has query_src's row count. key_src and
    query_src may live in different index spaces (e.g. hub rows vs
    position rows). The branch is one tape op, `tensor.attention_blocks`.
    The audit is (alpha, starts), the (P, 1) weights and each set's
    first pair, flat in block order; None for a branch without pairs.

    Arguments after the sources are keyword-only, and the record keeps
    the name `key_idx`, because perfbench's tracer attributes a branch by
    the `msg_mlp` it reads from the call's keywords and counts its pairs
    as len(key_idx). The name stays until the tracer counts pairs from
    `pairs_per_layer` (ROADMAP item 1).
    """
    if len(msg_mlp.weights) != 2:
        raise ShapeError(
            f"message MLP must have widths [in, hidden, out], got {msg_mlp.widths}")
    if len(key_idx) == 0:
        return T.Value(np.zeros((len(query_src.data), msg_mlp.widths[-1]))), None
    dk = key_src.data.shape[-1]
    dq = query_src.data.shape[-1]
    if msg_mlp.widths[0] != dk + dq:
        raise ShapeError(
            f"message MLP expects width {msg_mlp.widths[0]}, sources have "
            f"{dk} + {dq}")
    out, alpha = T.attention_blocks(key_src, query_src, key_idx,
                                    msg_mlp.weights[0], msg_mlp.biases[0],
                                    msg_mlp.weights[1], msg_mlp.biases[1], score)
    return out, (alpha, key_idx.starts)


def init_states(params, window, graph, input_mask=None):
    """(input_mask, x_leaf, h): the input mask (default: the window's) as
    a checked bool array, the value leaf and the layer-0 states. Row
    p = τ·N + i of h is init_observed([x, q]) where it is set, else init_target(q).
    """
    values = np.asarray(window.values, dtype=np.float64)
    w, n = values.shape
    input_mask = _as_binary(window.mask if input_mask is None else input_mask,
                            "input mask")
    if input_mask.shape != (w, n):
        raise ShapeError(
            f"input mask shape {input_mask.shape} != window shape {(w, n)}")
    if graph.n_nodes != n:
        raise ShapeError(f"graph has {graph.n_nodes} nodes, window has {n}")
    x_leaf = T.Value(values.reshape(w * n, 1), requires_grad=True)
    q_flat = params.encoding.codes_flat(window.step_offsets, n, window.nodes)
    obs_pos = np.flatnonzero(input_mask)
    targ_pos = np.flatnonzero(~input_mask)
    h_obs = params.init_observed(T.gather_rows(x_leaf, obs_pos),
                                 T.gather_rows(q_flat, obs_pos))
    h_targ = params.init_target(T.gather_rows(q_flat, targ_pos))
    h = T.scatter_rows([h_obs, h_targ], [obs_pos, targ_pos], w * n)
    return input_mask, x_leaf, h


def position_update(blk, key_src, h, self_sets, cross_sets):
    """One block's position update: (new h, pair counts, alpha audits).

    Every position attends over its self and cross sets with keys from
    key_src (spin: the states h; spin-h: the hubs), then is updated from
    [h, self context, neighbor sum].
    """
    parts, pairs, audits = [h], {}, {}
    for branch, sets in (("self", self_sets), ("cross", cross_sets)):
        ctx, audits[branch] = attend(key_src, h, key_idx=sets,
                                     msg_mlp=blk[f"{branch}_msg"],
                                     score=blk[f"{branch}_score"])
        parts.append(ctx)
        pairs[branch] = sets.n_pairs
    return blk["update"](*parts), pairs, audits


def run_layers(params, x_leaf, h, shape, layer) -> ImputationOutput:
    """Run every block from the layer-0 states h; layer(blk, h, masked)
    returns one block's (h, pair counts, audits), and each block's states
    go through the shared readout, reshaped to the (W, N) `shape`.
    """
    readouts, pairs, alphas = [], [], []
    for l, blk in enumerate(params.layers):
        masked = l < params.n_masked
        h, n_pairs, audits = layer(blk, h, masked)
        readouts.append(T.reshape(params.readout(h), shape))
        pairs.append({**n_pairs, "masked": masked})
        alphas.append(audits)
    return ImputationOutput(readouts=readouts, x_leaf=x_leaf,
                            pairs_per_layer=pairs, alphas=alphas)


def spin_forward(window, graph: SensorGraph, params: SpinParameters,
                 input_mask=None) -> ImputationOutput:
    """Run the full stack on one window.

    input_mask defaults to the window's mask, which in training is
    already whitened.
    """
    input_mask, x_leaf, h = init_states(params, window, graph, input_mask)
    phases = [build_attention_plan(input_mask, graph, masked=True)]
    if params.n_masked < params.n_layers:
        phases.append(build_attention_plan(input_mask, graph, masked=False))

    def layer(blk, h, masked):
        return position_update(blk, h, h, *phases[0 if masked else 1])

    return run_layers(params, x_leaf, h, input_mask.shape, layer)
