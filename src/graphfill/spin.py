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

All message sets of one branch and layer are processed as one batch: a
plan of flat index arrays (position p = τ·N + i) gathers senders and
receivers, the batched message MLP runs once, and softmax/summation work
on contiguous per-set segments. Message sets are materialized only for
allowed (sender, receiver) pairs — masking is structural, never an
additive penalty — so hidden values are unread by construction, and a
masked-phase forward is bit-for-bit independent of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoding import EncodingParams
from .errors import ShapeError, ValidationError
from .graph import SensorGraph
from .nn import Mlp

D_H = 32
N_LAYERS = 4
N_MASKED_LAYERS = 3


@dataclass
class AttentionPlan:
    """Flat index arrays driving one phase's batched attention.

    Pair arrays run over every (key, query) pair of every message set;
    `starts` marks each set's first row, `out_pos` the flat position its
    context lands on. Cross-branch sets share out positions across edges
    with the same destination, so scattering contexts already performs
    the neighbor sum, accumulating in ascending-source order.
    """
    masked: bool
    n_positions: int
    self_key: np.ndarray
    self_query: np.ndarray
    self_starts: np.ndarray
    self_out: np.ndarray
    cross_key: np.ndarray
    cross_query: np.ndarray
    cross_starts: np.ndarray
    cross_out: np.ndarray

    @property
    def n_self_pairs(self) -> int:
        return len(self.self_key)

    @property
    def n_cross_pairs(self) -> int:
        return len(self.cross_key)


def _empty_plan_side():
    return [], [], [], []


def build_attention_plan(input_mask, graph: SensorGraph, masked: bool) -> AttentionPlan:
    """Index every message set for one phase.

    With `masked` set, node j contributes only its observed steps as keys;
    otherwise all W steps. Queries always run over all (node, step)
    positions. Sets with zero keys are simply absent (their contexts stay
    zero).
    """
    w, n = input_mask.shape
    if graph.n_nodes != n:
        raise ShapeError(f"graph has {graph.n_nodes} nodes, window has {n}")
    if masked:
        allowed = [np.flatnonzero(input_mask[:, i]).astype(np.intp) for i in range(n)]
    else:
        allowed = [np.arange(w, dtype=np.intp)] * n
    taus = np.arange(w, dtype=np.intp)

    s_key, s_query, s_starts, s_out = _empty_plan_side()
    offset = 0
    for i in range(n):
        steps = allowed[i]
        k = len(steps)
        if k == 0:
            continue
        s_key.append(np.tile(steps * n + i, w))
        s_query.append(np.repeat(taus * n + i, k))
        s_starts.append(offset + np.arange(w, dtype=np.intp) * k)
        s_out.append(taus * n + i)
        offset += w * k

    c_key, c_query, c_starts, c_out = _empty_plan_side()
    offset = 0
    for e in range(graph.n_edges):
        j, i = graph.src[e], graph.dst[e]
        steps = allowed[j]
        k = len(steps)
        if k == 0:
            continue
        c_key.append(np.tile(steps * n + j, w))
        c_query.append(np.repeat(taus * n + i, k))
        c_starts.append(offset + np.arange(w, dtype=np.intp) * k)
        c_out.append(taus * n + i)
        offset += w * k

    def cat(parts):
        return (np.concatenate(parts) if parts
                else np.zeros(0, dtype=np.intp))

    return AttentionPlan(
        masked=masked, n_positions=w * n,
        self_key=cat(s_key), self_query=cat(s_query),
        self_starts=cat(s_starts), self_out=cat(s_out),
        cross_key=cat(c_key), cross_query=cat(c_query),
        cross_starts=cat(c_starts), cross_out=cat(c_out))


class SpinParameters:
    """All trainable state: encodings, init/readout MLPs, per-layer blocks."""

    def __init__(self, n_nodes, d_h=D_H, n_layers=N_LAYERS,
                 n_masked=N_MASKED_LAYERS, hidden=32, periods=(24,),
                 d_v=None, d_q=None, rng=None, encoding=None):
        if not (1 <= n_masked <= n_layers):
            raise ValidationError(
                f"masked-layer count {n_masked} out of range [1, {n_layers}]")
        rng = np.random.default_rng(rng)
        self.d_h = d_h
        self.n_layers = n_layers
        self.n_masked = n_masked
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
        score_scale = 1.0 / np.sqrt(d_h)
        self.layers = []
        for _ in range(n_layers):
            self.layers.append({
                "cross_msg": Mlp([2 * d_h, hidden, d_h], rng),
                "cross_score": T.Value(rng.normal(0.0, score_scale, size=(d_h, 1)),
                                       requires_grad=True),
                "self_msg": Mlp([2 * d_h, hidden, d_h], rng),
                "self_score": T.Value(rng.normal(0.0, score_scale, size=(d_h, 1)),
                                      requires_grad=True),
                "update": Mlp([3 * d_h, hidden, d_h], rng),
            })
        self.readout = Mlp([d_h, hidden, 1], rng)

    def named_parameters(self):
        out = list(self.encoding.named_parameters())
        out += self.init_target.named_parameters("init.target")
        out += self.init_observed.named_parameters("init.observed")
        for l, blk in enumerate(self.layers):
            out += blk["cross_msg"].named_parameters(f"layers.{l}.cross.message")
            out.append((f"layers.{l}.cross.score", blk["cross_score"]))
            out += blk["self_msg"].named_parameters(f"layers.{l}.self.message")
            out.append((f"layers.{l}.self.score", blk["self_score"]))
            out += blk["update"].named_parameters(f"layers.{l}.update")
        out += self.readout.named_parameters("readout")
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]


@dataclass
class ImputationOutput:
    """Everything a forward pass produces.

    readouts[l] is the (W, N) prediction from layer l+1's states; the
    last one is the imputation. x_leaf is the value array the pass read
    from, kept so callers can inspect input gradients. pairs_per_layer
    records how many (key, query) pairs each branch materialized.
    """
    readouts: list
    x_leaf: T.Value
    values: np.ndarray
    input_mask: np.ndarray
    pairs_per_layer: list
    alphas: list = field(default=None)

    @property
    def predictions(self) -> np.ndarray:
        return self.readouts[-1].data

    def filled(self) -> np.ndarray:
        """Observed entries kept as-is, everything else imputed."""
        return np.where(self.input_mask == 1, self.values, self.predictions)


def attend(key_src, query_src, key_idx, query_idx, starts, out_pos, n_out,
           msg_mlp, score, collect=False):
    """One attention branch over indexed message sets.

    Pair p's message is msg_mlp([key_src[key_idx[p]], query_src[query_idx[p]]]);
    per-set softmax weights (sets delimited by `starts`, scored by `score`)
    combine messages into contexts, which are scatter-added onto out_pos
    rows of an n_out-row result. key_src and query_src may live in
    different index spaces (e.g. hub rows vs position rows).

    The message MLP's first layer is linear over the concatenation, so
    concat([k, q]) @ W0 is evaluated as k @ W0[:dk] + q @ W0[dk:]: the two
    products are computed once per source row instead of once per pair.
    The rest of the branch is one fused op, `tensor.attention_sets`.
    """
    if len(msg_mlp.weights) != 2:
        raise ShapeError(
            f"message MLP must have widths [in, hidden, out], got {msg_mlp.widths}")
    if len(key_idx) == 0:
        return T.Value(np.zeros((n_out, msg_mlp.widths[-1]))), None
    dk = key_src.data.shape[-1]
    dq = query_src.data.shape[-1]
    if msg_mlp.widths[0] != dk + dq:
        raise ShapeError(
            f"message MLP expects width {msg_mlp.widths[0]}, sources have "
            f"{dk} + {dq}")
    from_key = T.matmul(key_src, T.slice_rows(msg_mlp.weights[0], 0, dk))
    from_query = T.matmul(query_src, T.slice_rows(msg_mlp.weights[0], dk, dk + dq))
    ctx, alpha = T.attention_sets(from_key, from_query, key_idx, query_idx,
                                  starts, msg_mlp.weights[1], msg_mlp.biases[0],
                                  msg_mlp.biases[1], score)
    out = T.scatter_rows(ctx, out_pos, n_out)
    audit = (alpha.copy(), starts.copy()) if collect else None
    return out, audit


def _forward_flat(x_leaf, q_flat, input_mask_flat, masked_plan, open_plan,
                  params, n_layers, n_masked, collect_alphas):
    """Layer stack over one window's flattened positions (p = τ·N + i).

    Returns (readouts_flat, pairs_per_layer, alphas).
    """
    n_pos = len(input_mask_flat)
    obs_pos = np.flatnonzero(input_mask_flat == 1)
    targ_pos = np.flatnonzero(input_mask_flat == 0)
    h_obs = params.init_observed(T.concat(
        [T.gather_rows(x_leaf, obs_pos, unique=True),
         T.gather_rows(q_flat, obs_pos, unique=True)], axis=-1))
    h_targ = params.init_target(T.gather_rows(q_flat, targ_pos, unique=True))
    h = T.add(T.scatter_rows(h_obs, obs_pos, n_pos),
              T.scatter_rows(h_targ, targ_pos, n_pos))

    readouts, pairs, alphas = [], [], []
    for l in range(n_layers):
        plan = masked_plan if l < n_masked else open_plan
        blk = params.layers[l]
        c, a_self = attend(h, h, plan.self_key, plan.self_query, plan.self_starts,
                           plan.self_out, plan.n_positions,
                           blk["self_msg"], blk["self_score"], collect_alphas)
        e, a_cross = attend(h, h, plan.cross_key, plan.cross_query,
                            plan.cross_starts, plan.cross_out, plan.n_positions,
                            blk["cross_msg"], blk["cross_score"], collect_alphas)
        h = blk["update"](T.concat([h, c, e], axis=-1))
        readouts.append(params.readout(h))
        pairs.append({"self": plan.n_self_pairs, "cross": plan.n_cross_pairs,
                      "masked": plan.masked})
        if collect_alphas:
            alphas.append({"self": a_self, "cross": a_cross})
    return readouts, pairs, alphas


def _resolve_depth(params, n_layers, n_masked):
    n_layers = params.n_layers if n_layers is None else n_layers
    n_masked = params.n_masked if n_masked is None else n_masked
    if not (1 <= n_masked <= n_layers):
        raise ValidationError(
            f"masked-layer count {n_masked} out of range [1, {n_layers}]")
    if n_layers > len(params.layers):
        raise ValidationError(
            f"requested {n_layers} layers but parameters hold {len(params.layers)}")
    return n_layers, n_masked


def _check_window(window, input_mask, graph):
    values = np.asarray(window.values, dtype=np.float64)
    w, n = values.shape
    if input_mask is None:
        input_mask = window.mask
    input_mask = np.asarray(input_mask)
    if input_mask.shape != (w, n):
        raise ShapeError(
            f"input mask shape {input_mask.shape} != window shape {(w, n)}")
    if graph.n_nodes != n:
        raise ShapeError(f"graph has {graph.n_nodes} nodes, window has {n}")
    return values, input_mask


def spin_forward(window, graph: SensorGraph, params: SpinParameters,
                 n_layers=None, n_masked=None, input_mask=None,
                 collect_alphas=False) -> ImputationOutput:
    """Run the full stack on one window.

    input_mask defaults to the window's mask; training passes a whitened
    mask instead. n_layers/n_masked default to the parameter settings.
    """
    n_layers, n_masked = _resolve_depth(params, n_layers, n_masked)
    values, input_mask = _check_window(window, input_mask, graph)
    w, n = values.shape

    x_leaf = T.Value(values.reshape(w * n, 1), requires_grad=True)
    q_flat = params.encoding.codes_flat(window.step_offsets, n)
    masked_plan = build_attention_plan(input_mask, graph, masked=True)
    open_plan = (build_attention_plan(input_mask, graph, masked=False)
                 if n_masked < n_layers else None)

    readouts, pairs, alphas = _forward_flat(
        x_leaf, q_flat, input_mask.ravel(), masked_plan, open_plan,
        params, n_layers, n_masked, collect_alphas)
    return ImputationOutput(
        readouts=[T.reshape(r, (w, n)) for r in readouts],
        x_leaf=x_leaf, values=values, input_mask=input_mask.copy(),
        pairs_per_layer=pairs, alphas=alphas if collect_alphas else None)
