"""The unfused attention ops, kept as the reference for the fused one.

`graphfill.tensor.attention_sets` computes one attention branch as a
single tape op. The chain it replaced, built from the small ops below
(per-pair messages, score matmul, per-set softmax, weighted per-set sum),
is the reference the tests compare it against; `unfused_attention` wires
that chain up exactly as the package did before the fusion.
"""

from __future__ import annotations

import numpy as np

import graphfill.tensor as T
from graphfill.errors import EmptySetError


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
    shifted = T.sub(logits, np.repeat(m, counts, axis=0))
    e = vexp(clamp(shifted, -T.LOGIT_SPAN, T.LOGIT_SPAN))
    denom = segment_sum(e, starts)
    return T.div(e, repeat_rows(denom, counts))


def unfused_attention(from_key, from_query, key_idx, query_idx, starts,
                      w_out, b_in, b_out, score):
    """The chain `attention_sets` replaces, with its signature and results."""
    r = pair_messages(from_key, from_query, key_idx, query_idx,
                      w_out, b_in, b_out)
    alpha = segment_softmax(T.matmul(r, score), starts)
    return segment_weighted_sum(alpha, r, starts), alpha.data
