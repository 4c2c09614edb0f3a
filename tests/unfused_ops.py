"""Ops that only the tests use, and references for the fused ops.

`graphfill.tensor.mlp` runs a whole multi-layer perceptron as one tape
op. `mlp_chain` is the chain it replaces, wired up exactly as the
package did before: concat of the parts, then per layer `matmul`, `add`
of the bias and `relu` on hidden layers, five records per two layers.

`graphfill.tensor.attention_blocks` computes one attention branch over
dense (G, Wq, c) blocks as a single tape op. The tests compare it with
two older paths, both over flat message sets (key_idx, starts, query):

* `unfused_attention`, the chain of small ops below (row slices of the
  first-layer weight, per-pair messages, score matmul, per-set softmax,
  weighted per-set sum, scatter onto query rows), wired up exactly as
  the package did before any fusion;
* `attention_sets`, the fused flat op that came next, one row per
  (key, query) pair.

`flat_sets` turns blocks into those flat sets.

`graphfill.tensor.layer_l1` records the layer-wise loss as one tape op.
`spin_loss_chain` is the body `graphfill.train.spin_loss` had before it,
a chain of reshape, gather_rows, `sub`, `vabs`, `vmean` (`vsum`, then
`div`) and `add` per layer.

`add`, `mul`, `relu`, `matmul`, `sub`, `vabs`, `vsum`, `vmean` and
`concat` are ops the package itself no longer needs.
"""

from __future__ import annotations

import numpy as np

import graphfill.tensor as T
from graphfill.errors import EmptySetError, ShapeError


def add(a, b):
    a, b = T.as_value(a), T.as_value(b)
    data = a.data + b.data

    def backfn(g):
        return T._unbroadcast(g, a.data.shape), T._unbroadcast(g, b.data.shape)

    return T._make_output(data, (a, b), backfn)


def concat(values, axis=-1):
    values = [T.as_value(v) for v in values]
    data = np.concatenate([v.data for v in values], axis=axis)
    sizes = [v.data.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def backfn(g):
        pieces = []
        for k in range(len(values)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[k], offsets[k + 1])
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return T._make_output(data, tuple(values), backfn)


def mul(a, b):
    a, b = T.as_value(a), T.as_value(b)
    data = a.data * b.data

    def backfn(g):
        return (T._unbroadcast(g * b.data, a.data.shape),
                T._unbroadcast(g * a.data, b.data.shape))

    return T._make_output(data, (a, b), backfn)


def sub(a, b):
    a, b = T.as_value(a), T.as_value(b)
    data = a.data - b.data

    def backfn(g):
        return T._unbroadcast(g, a.data.shape), T._unbroadcast(-g, b.data.shape)

    return T._make_output(data, (a, b), backfn)


def vabs(a):
    a = T.as_value(a)
    sign = np.sign(a.data)
    return T._make_output(np.abs(a.data), (a,), lambda g: (g * sign,))


def vsum(a, axis=None, keepdims=False):
    a = T.as_value(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backfn(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return T._make_output(data, (a,), backfn)


def vmean(a):
    a = T.as_value(a)
    return T.div(vsum(a), float(a.data.size))


def relu(a):
    a = T.as_value(a)
    return T._make_output(np.maximum(a.data, 0.0), (a,),
                          lambda g: (g * (a.data > 0.0),))


def matmul(a, b):
    """a @ b with 2-D b; a may carry up to two leading batch axes."""
    a, b = T.as_value(a), T.as_value(b)
    if b.data.ndim != 2:
        raise ShapeError(f"matmul weight must be 2-D, got shape {b.data.shape}")
    if a.data.ndim < 1 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner axes disagree: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backfn(g):
        ga = g @ b.data.T
        a2 = a.data.reshape(-1, a.data.shape[-1])
        g2 = g.reshape(-1, b.data.shape[1])
        gb = a2.T @ g2
        return ga.reshape(a.data.shape), gb

    return T._make_output(data, (a, b), backfn)


def mlp_chain(parts, weights, biases):
    """The chain `T.mlp` replaces, with its signature and results."""
    x = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
    for k, (w, b) in enumerate(zip(weights, biases)):
        x = add(matmul(x, w), b)
        if k < len(weights) - 1:
            x = relu(x)
    return x


def spin_loss_chain(output, truth, loss_mask):
    """`graphfill.train.spin_loss` as it was before `T.layer_l1`."""
    pos = np.flatnonzero(loss_mask)
    if len(pos) == 0:
        raise EmptySetError("loss mask selects no positions")
    truth_rows = T.Value(np.asarray(truth, dtype=np.float64).reshape(-1, 1)[pos])
    acc = None
    for readout in output.readouts:
        flat = T.reshape(readout, (-1, 1))
        diff = sub(T.gather_rows(flat, pos), truth_rows)
        term = vmean(vabs(diff))
        acc = term if acc is None else add(acc, term)
    return acc


def unfused_mlp_call(mlp, *parts):
    """`Mlp.__call__` as it was before `T.mlp`: a stand-in for patching."""
    return mlp_chain([T.as_value(p) for p in parts], mlp.weights, mlp.biases)


def slice_rows(a, start, stop):
    """Rows start:stop of a (axis 0); backward zero-pads the complement."""
    a = T.as_value(a)
    data = a.data[start:stop].copy()

    def backfn(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return T._make_output(data, (a,), backfn)


def _segment_starts_to_counts(starts, total):
    starts = np.asarray(starts, dtype=np.intp)
    if starts.size == 0:
        return starts.copy()
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = total
    return ends - starts


def _segment_reduce(data, starts, total, ufunc):
    """Reduce contiguous row segments; empty segments yield the identity row."""
    counts = _segment_starts_to_counts(starts, total)
    out = np.zeros((len(starts),) + data.shape[1:], dtype=np.float64)
    nonempty = counts > 0
    if np.any(nonempty):
        out[nonempty] = ufunc.reduceat(data, starts[nonempty], axis=0)
    return out, counts


def segment_sum(a, starts):
    """Sum contiguous row segments of a; segment k is rows starts[k]:starts[k+1]."""
    a = T.as_value(a)
    data, counts = _segment_reduce(a.data, starts, a.data.shape[0], np.add)

    def backfn(g):
        return (np.repeat(g, counts, axis=0),)

    return T._make_output(data, (a,), backfn)


def repeat_rows(a, counts):
    """Repeat row k of a counts[k] times (inverse adjoint of segment_sum)."""
    a = T.as_value(a)
    counts = np.asarray(counts, dtype=np.intp)
    data = np.repeat(a.data, counts, axis=0)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)

    def backfn(g):
        gg, _ = _segment_reduce(g, starts, g.shape[0], np.add)
        return (gg,)

    return T._make_output(data, (a,), backfn)


def pair_messages(from_key, from_query, key_idx, query_idx, w_out, b_in, b_out):
    """Per-pair messages of a two-layer MLP whose first layer ran per row:

        r[p] = relu(from_key[key_idx[p]] + from_query[query_idx[p]] + b_in)
               @ w_out + b_out
    """
    from_key, from_query = T.as_value(from_key), T.as_value(from_query)
    w_out, b_in, b_out = T.as_value(w_out), T.as_value(b_in), T.as_value(b_out)
    key_idx = np.asarray(key_idx, dtype=np.intp)
    query_idx = np.asarray(query_idx, dtype=np.intp)
    pre = from_key.data[key_idx]
    pre += from_query.data[query_idx]
    pre += b_in.data
    hid = np.maximum(pre, 0.0, out=pre)
    data = hid @ w_out.data
    data += b_out.data

    def backfn(g):
        g_b_out = g.sum(axis=0)
        g_w_out = hid.T @ g
        g_hid = g @ w_out.data.T
        g_hid *= hid > 0.0
        g_b_in = g_hid.sum(axis=0)
        g_fk = np.zeros_like(from_key.data)
        np.add.at(g_fk, key_idx, g_hid)
        g_fq = np.zeros_like(from_query.data)
        np.add.at(g_fq, query_idx, g_hid)
        return g_fk, g_fq, g_w_out, g_b_in, g_b_out

    return T._make_output(data, (from_key, from_query, w_out, b_in, b_out),
                          backfn)


def segment_weighted_sum(alpha, rows, starts):
    """Per-segment sum of alpha * rows; equals segment_sum(mul(alpha, rows))."""
    alpha, rows = T.as_value(alpha), T.as_value(rows)
    counts = _segment_starts_to_counts(starts, rows.data.shape[0])
    data, _ = _segment_reduce(alpha.data * rows.data, starts,
                              rows.data.shape[0], np.add)

    def backfn(g):
        g_rep = np.repeat(g, counts, axis=0)
        g_alpha = np.sum(g_rep * rows.data, axis=-1, keepdims=True)
        g_rep *= alpha.data
        return g_alpha, g_rep

    return T._make_output(data, (alpha, rows), backfn)


def segment_max_raw(data, starts):
    """Plain-array per-segment max (used detached inside segment_softmax)."""
    out, _ = _segment_reduce(np.asarray(data, dtype=np.float64), starts,
                             np.asarray(data).shape[0], np.maximum)
    return out


def softmax_stable(a, axis=-1):
    """Softmax along `axis`, computed with max-subtraction.

    Raises EmptySetError on a zero-length axis.
    """
    a = T.as_value(a)
    if a.data.shape[axis] == 0:
        raise EmptySetError("softmax over an empty axis")
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def backfn(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return T._make_output(y, (a,), backfn)


def vexp(a):
    a = T.as_value(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return T._make_output(data, (a,), lambda g: (g * data,))


def clamp(a, lo, hi):
    a = T.as_value(a)
    inside = (a.data >= lo) & (a.data <= hi)
    return T._make_output(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def segment_softmax(logits, starts):
    """Softmax within each contiguous segment of a (P, 1) logit column.

    The per-segment max is subtracted as a constant, the shifted logits
    are clamped to [-LOGIT_SPAN, LOGIT_SPAN], and the result is normalized
    per segment.
    """
    logits = T.as_value(logits)
    total = logits.data.shape[0]
    counts = _segment_starts_to_counts(starts, total)
    m = segment_max_raw(logits.data, starts)
    shifted = sub(logits, np.repeat(m, counts, axis=0))
    e = vexp(clamp(shifted, -T.LOGIT_SPAN, T.LOGIT_SPAN))
    denom = segment_sum(e, starts)
    return T.div(e, repeat_rows(denom, counts))


def unfused_attention(key_src, query_src, key_idx, starts, query, w_in, b_in,
                      w_out, b_out, score):
    """The chain `attention_sets` replaces, with its signature and results."""
    key_src, query_src, w_in = (T.as_value(v) for v in (key_src, query_src, w_in))
    dk = key_src.data.shape[-1]
    from_key = matmul(key_src, slice_rows(w_in, 0, dk))
    from_query = matmul(query_src, slice_rows(w_in, dk, w_in.data.shape[0]))
    counts = _segment_starts_to_counts(starts, len(key_idx))
    r = pair_messages(from_key, from_query, key_idx, np.repeat(query, counts),
                      w_out, b_in, b_out)
    alpha = segment_softmax(matmul(r, score), starts)
    ctx = segment_weighted_sum(alpha, r, starts)
    return T.scatter_rows([ctx], [query], query_src.data.shape[0]), alpha.data


def attention_sets(key_src, query_src, key_idx, starts, query, w_in, b_in,
                   w_out, b_out, score):
    """The flat fused op `attention_blocks` replaced, with its results.

    Set s covers pairs starts[s]:starts[s+1], which must be non-empty,
    and belongs to query row query[s]; pair p reads key row key_idx[p].
    Pair arrays are (hidden, P): every (key, query) pair is gathered,
    repeated, segment-reduced with `reduceat` and scattered one row at a
    time. Returns (out, alpha) as `attention_blocks` does.
    """
    key_src, query_src = T.as_value(key_src), T.as_value(query_src)
    w_in, b_in, w_out = T.as_value(w_in), T.as_value(b_in), T.as_value(w_out)
    b_out, score = T.as_value(b_out), T.as_value(score)
    key_idx = np.asarray(key_idx, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.intp)
    query = np.asarray(query, dtype=np.intp)
    counts = np.diff(starts, append=len(key_idx))
    if len(starts) == 0 or starts[0] != 0 or np.any(counts < 1):
        raise EmptySetError("message sets must be non-empty and cover every pair")

    alpha = np.empty(len(key_idx))
    dk = key_src.data.shape[-1]
    w_key, w_query = w_in.data[:dk], w_in.data[dk:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        from_key = key_src.data @ w_key
        from_query = query_src.data @ w_query
    T._check_finite(from_key)
    T._check_finite(from_query)
    hid = np.take(from_key.T, key_idx, axis=1)
    hid += np.repeat((from_query[query] + b_in.data).T, counts, axis=1)
    np.maximum(hid, 0.0, out=hid)
    v = np.dot(w_out.data, score.data[:, 0])
    logit = np.dot(v, hid)
    T._check_finite(logit)
    shifted = logit - np.repeat(np.maximum.reduceat(logit, starts), counts)
    inside = shifted >= -T.LOGIT_SPAN
    e = np.exp(np.maximum(shifted, -T.LOGIT_SPAN, out=shifted), out=shifted)
    np.divide(e, np.repeat(np.add.reduceat(e, starts), counts), out=alpha)
    pooled = np.add.reduceat(hid * alpha, starts, axis=1)
    ctx = pooled.T @ w_out.data
    ctx += b_out.data
    data = T._scatter_add(ctx, query, query_src.data.shape[0])

    def backfn(g):
        g = g[query]
        g_hid = np.repeat(w_out.data @ g.T, counts, axis=1)
        g_alpha = np.einsum("hp,hp->p", g_hid, hid)
        g_logit = g_alpha - np.repeat(np.add.reduceat(alpha * g_alpha, starts),
                                      counts)
        g_logit *= alpha
        g_logit *= inside
        g_v = np.dot(hid, g_logit)
        g_hid *= alpha
        g_hid += np.outer(v, g_logit)
        g_hid *= hid > 0.0
        g_w_out = pooled @ g
        g_w_out += np.outer(g_v, score.data[:, 0])
        g_fq = T._scatter_add(np.add.reduceat(g_hid, starts, axis=1).T,
                            query, query_src.data.shape[0])
        g_fk = T._scatter_add(g_hid.T, key_idx, key_src.data.shape[0])
        g_w_in = np.concatenate([key_src.data.T @ g_fk, query_src.data.T @ g_fq])
        return (g_fq @ w_query.T, g_fk @ w_key.T, g_w_in, g_hid.sum(axis=1),
                g_w_out, g.sum(axis=0), np.dot(w_out.data.T, g_v)[:, None])

    # query_src comes first: where it is also key_src (spin), its gradient
    # adds the query part before the key part. The order is part of the
    # result: the other one changes trained parameters in the last bits.
    out = T._make_output(data, (query_src, key_src, w_in, b_in, w_out, b_out,
                                score), backfn)
    return out, alpha[:, None]


def flat_sets(blocks):
    """(key_idx, starts, query) of the sets in `blocks`, in block order."""
    key_idx, counts, query = [], [], []
    for keys, rows in blocks:
        keys, rows = np.asarray(keys), np.asarray(rows)
        key_idx.append(np.repeat(keys[:, None, :], rows.shape[1], axis=1).ravel())
        counts.append(np.full(rows.size, keys.shape[1]))
        query.append(rows.ravel())
    counts = np.concatenate(counts)
    return (np.concatenate(key_idx).astype(np.intp),
            (np.cumsum(counts) - counts).astype(np.intp),
            np.concatenate(query).astype(np.intp))


def on_blocks(flat_op):
    """`flat_op` behind the signature of `attention_blocks`."""
    def op(key_src, query_src, sets, *weights):
        return flat_op(key_src, query_src, *flat_sets(sets.blocks), *weights)
    return op
