"""The block attention op as the package ran it before row chunks.

`attention_blocks` is kept as it was, but for the imports, the weights
it returns (one (G, Wq, c) array per block, as the package's op returns
them) and its two products over a block's pairs: the logits and g_v, the
logit gradients' product with the pairs. Each runs once per block row,
and g_v adds the rows' terms in row order, as the package's op does. A
product over the whole block groups its pairs by BLAS kernel rules,
which a row chunk cannot follow on every kernel; one product per row is
the same arithmetic whatever the chunks. The op forms each block's
(G, Wq, c, hidden) pair activations in one piece, in the forward whether
or not a tape records it, and in the backward. The tests check the
chunked op against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from graphfill.tensor import (LOGIT_SPAN, _check_finite, _make_output,
                              _scatter_add, as_value)


def attention_blocks(key_src, query_src, sets, w_in, b_in, w_out, b_out,
                     score):
    """One attention branch over a `MessageSets` record, as one tape op.

    Block g of sets.blocks, keys (G, c) and rows (G, Wq), holds Wq sets:
    the set of query row rows[g, q] reads the c keys keys[g, :], rows of
    key_src. Its pair k carries the message of a two-layer MLP over
    [key row, query row],

        r = relu(key_src[keys[g, k]] @ w_in[:dk]
                 + query_src[rows[g, q]] @ w_in[dk:] + b_in) @ w_out + b_out,

    with dk the key width, and the logit r @ score. The set's weights are
    the softmax of its c logits, shifted by their max and clamped at
    -LOGIT_SPAN; its context sum_k alpha[k] * r[k] is added onto row
    rows[g, q] of the result. Contexts sharing a row (spin's cross sets of
    every in-edge) sum in set order: entry by entry of `blocks`, then g.

    The first layer is linear over the concatenation, so its two halves
    run once per source row, not once per pair. The output layer is
    folded past the softmax: a set's weights sum to 1, so its context is
    (sum_k alpha[k] * hid[k]) @ w_out + b_out, and the logit is
    hid[k] @ (w_out @ score) plus the per-set constant b_out @ score,
    which the max shift cancels. Each entry's pairs form one dense
    (G, Wq, c, hidden) array, so the softmax and the pooling run along
    its key axis, and the backward sums the pair gradients over the key
    axis for the G·Wq query rows and over the query axis for the G·c key
    rows: no row is gathered or scattered once per pair.

    Returns (out, weights): a Value with query_src's row count and, per
    entry of sets.blocks, its (G, Wq, c) weights.
    """
    key_src, query_src = as_value(key_src), as_value(query_src)
    w_in, b_in, w_out = as_value(w_in), as_value(b_in), as_value(w_out)
    b_out, score = as_value(b_out), as_value(score)
    hidden = w_out.data.shape[0]

    # alpha and pooled outlive this call (the backward and the caller's
    # audit read them). Allocated before the per-block temporaries and
    # filled block by block in place, they do not split the heap space
    # those free: perfbench's spin-impute-block read a peak RSS of 73-74 MB
    # so, 78 MB with per-block results concatenated at the end (seed 11,
    # 2-vCPU Xeon).
    alpha = np.empty(sets.n_pairs)
    pooled = np.empty((len(sets.rows), hidden))
    dk = key_src.data.shape[-1]
    w_key, w_query = w_in.data[:dk], w_in.data[dk:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        from_key = key_src.data @ w_key
        from_query = query_src.data @ w_query
    _check_finite(from_key, "attention_blocks (first layer)")
    _check_finite(from_query, "attention_blocks (first layer)")
    from_query += b_in.data
    v = np.dot(w_out.data, score.data[:, 0])
    kept, p, s = [], 0, 0  # per block: hid, inside, alpha view, pooled rows
    for keys, rows in sets.blocks:
        (g, wq), c = rows.shape, keys.shape[1]
        hid = from_query[rows][:, :, None, :] + from_key[keys][:, None, :, :]
        np.maximum(hid, 0.0, out=hid)
        logit = np.matmul(hid.reshape(g, wq * c, hidden), v).reshape(g, wq, c)
        _check_finite(logit, "attention_blocks (logits)")
        shifted = logit - logit.max(axis=-1, keepdims=True)
        inside = shifted >= -LOGIT_SPAN
        e = np.exp(np.maximum(shifted, -LOGIT_SPAN, out=shifted), out=shifted)
        a = alpha[p:p + e.size].reshape(g, wq, c)
        np.divide(e, e.sum(axis=-1, keepdims=True), out=a)
        span = slice(s, s + g * wq)
        np.matmul(a[:, :, None, :], hid, out=pooled[span].reshape(g, wq, 1, hidden))
        kept.append((hid, inside, a, span))
        p, s = p + e.size, s + g * wq
    ctx = pooled @ w_out.data
    ctx += b_out.data
    data = _scatter_add(ctx, sets.rows, query_src.data.shape[0])

    def backfn(g):
        g = g[sets.rows]
        g_pooled = g @ w_out.data.T
        g_v = np.zeros(hidden)
        g_fq = np.empty_like(g_pooled)
        g_fk = np.empty((len(sets.keys), hidden))
        k = 0
        for (keys, rows), (hid, inside, a, span) in zip(sets.blocks, kept):
            gp = g_pooled[span].reshape(rows.shape + (1, hidden))
            g_alpha = np.matmul(hid, gp.swapaxes(-1, -2))[..., 0]
            g_logit = g_alpha - (a * g_alpha).sum(axis=-1, keepdims=True)
            g_logit *= a
            g_logit *= inside
            n, wq, c = a.shape
            row_g_v = np.matmul(g_logit.reshape(n, 1, wq * c),
                                hid.reshape(n, wq * c, hidden))[:, 0]
            g_v = np.add.accumulate(np.vstack([g_v, row_g_v]))[-1]
            # a pair's gradient a * gp + g_logit * v is a rank-2 product,
            # which one batched matmul forms faster than two broadcasts
            g_hid = (np.stack([a, g_logit], axis=-1)
                     @ np.concatenate([gp, np.broadcast_to(v, gp.shape)], axis=2))
            g_hid *= hid > 0.0
            # einsum sums the key axis about 2x faster than .sum(axis=2)
            # (hidden 32, c 10-90), with the same bits when hidden > 1; at
            # hidden 1 both reduce a contiguous axis, in different orders
            g_fq[span] = np.einsum("gqkh->gqh", g_hid).reshape(-1, hidden)
            g_fk[k:k + keys.size] = g_hid.sum(axis=1).reshape(-1, hidden)
            k += keys.size
        g_w_out = pooled.T @ g
        g_w_out += np.outer(g_v, score.data[:, 0])
        g_fq = _scatter_add(g_fq, sets.rows, query_src.data.shape[0])
        g_b_in = g_fq.sum(axis=0)
        g_fk = _scatter_add(g_fk, sets.keys, key_src.data.shape[0])
        g_w_in = np.concatenate([key_src.data.T @ g_fk, query_src.data.T @ g_fq])
        return (g_fq @ w_query.T, g_fk @ w_key.T, g_w_in, g_b_in,
                g_w_out, g.sum(axis=0), np.dot(w_out.data.T, g_v)[:, None])

    # query_src comes first: where it is also key_src (spin), its gradient
    # adds the query part before the key part. The order is part of the
    # result: the other one changes trained parameters in the last bits.
    out = _make_output(data, (query_src, key_src, w_in, b_in, w_out, b_out, score),
                       backfn, "attention_blocks")
    return out, [a for _, _, a, _ in kept]
