"""Dense float64 arrays with recorded reverse-mode differentiation.

Operations run eagerly on numpy arrays. While a Tape is active, every
operation appends a record holding a closure that maps the output gradient
to input gradients; backward() replays the records in reverse order. A
closure may return views of its output gradient, or one array for several
inputs, because no gradient array is ever written in place. With no
active tape, operations only compute values, which keeps repeated
forward evaluations (finite differences, benchmarks) cheap.

The op set is deliberately small: div, reshape, gather_rows (repeated
rows sum their gradients), scatter_rows (a scatter-add of row parts), and
three model-level ops: mlp, one record for a whole multi-layer perceptron
over the concatenation of its input parts; attention_blocks, one for a
whole attention branch (the message MLP over [key, query] pairs, per-set
softmax and weighted sum, contexts summed onto query rows) over the dense
blocks of a `MessageSets` record, returning each block's weights; and
layer_l1, one for the layer-wise loss over every readout. That is enough
for MLPs, softmax attention over variable-size message sets, and training.
attention_blocks forms its (key, query) pair activations in chunks of
block rows, about CHUNK_BYTES at a time; a tape keeps every chunk for the
backward, which forms the pair gradients chunk by chunk.

Every operation result must be finite; NaN or Inf raises immediately,
naming the op, rather than propagating. Leaves are exempt so that
deliberately poisoned (hidden) entries may sit in an input array as long
as no op reads them.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import EmptySetError, NonFiniteError, ShapeError, TapeError

MAX_AXES = 3


def _keep_large_allocations_on_heap():
    """Stop glibc from handing big buffers back to the kernel.

    Every layer of every pass allocates multi-MB arrays; with default
    malloc tuning each one is a fresh mmap whose pages fault in on first
    write. Raising the mmap/trim thresholds keeps those buffers on the
    heap for reuse. The setting is process-global, so importing the
    package leaves it alone: `train.train` and `cli.main`, the entry
    points, apply it on entry. Measured with perfbench (seed 17, 2-vCPU
    Xeon, BLAS on one thread, `--seconds 10`, interleaved pairs, without
    -> with the call): spin-impute-block (5 pairs) `op_s_p50` 0.025-0.031
    -> 0.022-0.023 s per window and `peak_rss_mb` 59.4-60.6 -> 64.4-64.6;
    spin-train-w24 (4 pairs) 0.40-0.43 -> 0.39-0.47 s per step, within
    noise, at equal RSS. Best effort: silently skipped where glibc is
    unavailable.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass


_ACTIVE_TAPE = None


class Tape:
    """Per-forward-pass record of operations.

    Exactly one tape may be active at a time; values created under it
    belong to it and cannot be mixed into another tape's operations.
    """

    def __init__(self):
        self.records = []  # (out, inputs, backfn)
        self.consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


class no_grad:
    """Suspend the active tape: operations inside compute values only."""

    def __enter__(self):
        global _ACTIVE_TAPE
        self._saved = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._saved
        return False


class Value:
    """A float64 array (up to 3 axes) participating in a recorded computation."""

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_AXES:
            raise ShapeError(f"at most {MAX_AXES} axes supported, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _check_finite(arr, op="a forward operation"):
    # A single non-finite entry makes the full sum non-finite (inf - inf
    # is NaN), so one reduction checks the whole array without allocating.
    # Finite entries can also overflow the sum; only then is every entry
    # checked.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(arr)
    if not np.isfinite(total) and not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by {op}")


def _make_output(data, inputs, backfn, op="a forward operation"):
    """Create the result Value of `op` and record it on the active tape."""
    _check_finite(data, op)
    out = Value(data)
    if _recording(inputs):
        out.requires_grad = True
        out.tape = _ACTIVE_TAPE
        _ACTIVE_TAPE.records.append((out, inputs, backfn))
    return out


def _recording(inputs):
    """Whether an op over `inputs` goes on the active tape: a tape is
    active and an input requires grad."""
    tape = _ACTIVE_TAPE
    if tape is None:
        return False
    for v in inputs:
        if v.tape is not None and v.tape is not tape:
            raise TapeError("operation mixes values from different tapes")
    return any(v.requires_grad for v in inputs)


def _unbroadcast(g, shape):
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def div(a, b):
    a, b = as_value(a), as_value(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backfn(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _make_output(data, (a, b), backfn, "div")


def reshape(a, shape):
    a = as_value(a)
    data = a.data.reshape(shape)
    orig = a.data.shape
    return _make_output(data, (a,), lambda g: (g.reshape(orig),), "reshape")


def _scatter_add(rows, idx, n_rows):
    """np.add.at(zeros((n_rows, ...)), idx, rows), column by column.

    np.bincount accumulates each column in row order, exactly as np.add.at
    does, so the sums are the same bit for bit, at a fraction of the cost.
    """
    width = int(np.prod(rows.shape[1:]))
    flat = rows.reshape(len(idx), width)
    out = np.empty((width, n_rows))
    for c in range(width):
        out[c] = np.bincount(idx, weights=flat[:, c], minlength=n_rows)
    return np.ascontiguousarray(out.T).reshape((n_rows,) + rows.shape[1:])


def gather_rows(a, idx):
    """Select rows a[idx] along axis 0; the backward sums the gradients of
    repeated rows."""
    a = as_value(a)
    idx = np.asarray(idx, dtype=np.intp)
    return _make_output(a.data[idx], (a,),
                        lambda g: (_scatter_add(g, idx, a.data.shape[0]),),
                        "gather_rows")


def scatter_rows(parts, idx, n_rows):
    """Accumulate row parts into a zero array of n_rows rows: part k's
    rows at positions idx[k].

    Duplicate indices sum in order, part by part, which keeps
    floating-point accumulation deterministic. The backward gathers each
    part's rows, g[idx[k]].
    """
    parts = [as_value(p) for p in parts]
    idx = [np.asarray(i, dtype=np.intp) for i in idx]
    data = _scatter_add(np.concatenate([p.data for p in parts]),
                        np.concatenate(idx), n_rows)
    return _make_output(data, tuple(parts), lambda g: tuple(g[i] for i in idx),
                        "scatter_rows")


def mlp(parts, weights, biases):
    """A multi-layer perceptron over the concatenated `parts`, as one tape op.

    The parts are joined along their last axis into h; layer k then forms
    h @ weights[k] + biases[k], with a relu after every layer but the
    last. The forward runs the numpy statements of the unfused chain
    (concat, then per layer matmul, add and relu), and the backward runs
    that chain's reverse replay in the same expressions and order, so the
    values and every gradient are the same bits.

    The record keeps the parts and the hidden relu outputs only. The
    backward joins the parts again for the first layer's weight gradient,
    and takes a hidden layer's relu mask from its output (relu(x) > 0
    exactly where x > 0). Each layer's affine output is checked for
    finite values once: a finite bias cannot make a non-finite product
    finite, and a relu of finite values is finite.
    """
    parts = [as_value(p) for p in parts]
    weights = [as_value(w) for w in weights]
    biases = [as_value(b) for b in biases]
    lead = parts[0].data.shape[:-1]
    if any(p.data.ndim < 1 or p.data.shape[:-1] != lead for p in parts):
        raise ShapeError(f"mlp parts disagree on their leading axes: "
                         f"{[p.data.shape for p in parts]}")
    widths = [p.data.shape[-1] for p in parts]
    width = sum(widths)
    for k, w in enumerate(weights):
        if w.data.ndim != 2 or w.data.shape[0] != width:
            raise ShapeError(f"layer {k} weight {w.data.shape} does not take "
                             f"input feature width {width}")
        width = w.data.shape[1]
    offsets = np.cumsum([0] + widths)

    def joined():
        if len(parts) == 1:
            return parts[0].data
        return np.concatenate([p.data for p in parts], axis=-1)

    hidden = []  # relu outputs of layers 0 .. n-2
    h = joined()
    for k, (w, b) in enumerate(zip(weights, biases)):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            h = h @ w.data
            h += b.data
        if k == len(weights) - 1:
            break
        _check_finite(h, f"mlp (hidden layer {k})")
        hidden.append(np.maximum(h, 0.0, out=h))

    def backfn(g):
        g_w, g_b = [None] * len(weights), [None] * len(biases)
        for k in range(len(weights) - 1, -1, -1):
            w = weights[k].data
            g_b[k] = _unbroadcast(g, biases[k].data.shape)
            a = hidden[k - 1] if k else joined()
            g_a = g @ w.T
            g_w[k] = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, w.shape[1])
            if k:
                g_a *= hidden[k - 1] > 0.0
            g = g_a
        pieces = tuple(g[..., offsets[j]:offsets[j + 1]] for j in range(len(parts)))
        return pieces + tuple(g_w) + tuple(g_b)

    return _make_output(h, (*parts, *weights, *biases), backfn, "mlp")


# Logits further than this below their set max contribute < 1e-26 of the
# mass; clamping there blocks exp underflow without affecting results.
LOGIT_SPAN = 60.0

# Bytes of pair activations, (rows, Wq, c, hidden) float64, that
# attention_blocks forms at once, in the forward and in the backward. A
# chunk takes at least one block row, even where that alone is larger.
CHUNK_BYTES = 1 << 20


class MessageSets:
    """One attention branch's message sets: dense blocks and their layout.

    `blocks` holds (keys (G, c), rows (G, Wq)) pairs of intp arrays, c >= 1
    and Wq >= 1: each of a block's Wq query rows reads its c keys, one set
    per (block, query row); blocks that share query rows (the cross sets
    of one destination) sum their contexts there. Every block rule is
    checked here, once per plan, and the layout is derived in block order:
    `rows` (each set's query row), `keys` (each block's key rows) and
    `n_pairs` (sum G·Wq·c, the record's length).
    """

    def __init__(self, blocks):
        for keys, rows in blocks:
            if keys.ndim != 2 or rows.ndim != 2 or len(keys) != len(rows):
                raise ShapeError(f"a block needs keys (G, c) and rows (G, Wq), "
                                 f"got {keys.shape} and {rows.shape}")
            if keys.shape[1] < 1:
                raise EmptySetError("every message set needs at least one key")
            if rows.shape[1] < 1:
                raise ShapeError(f"a block needs at least one query row per "
                                 f"key group, got rows {rows.shape}")
        self.blocks = blocks
        none = [np.empty(0, dtype=np.intp)]
        self.rows = np.concatenate(none + [rows.ravel() for _, rows in blocks])
        self.keys = np.concatenate(none + [keys.ravel() for keys, _ in blocks])
        self.n_pairs = sum(keys.size * rows.shape[1] for keys, rows in blocks)

    def __len__(self) -> int:
        return self.n_pairs


def _row_chunks(n, wq, c, hidden):
    """Row slices of a block of n rows, Wq queries and c keys: CHUNK_BYTES
    of (rows, Wq, c, hidden) pair activations each, and at least one row."""
    step = max(1, CHUNK_BYTES // (wq * c * hidden * 8))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


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
    which the max shift cancels. A chunk of block rows forms its pairs as
    one dense (rows, Wq, c, hidden) array, so the softmax and the pooling
    run along its key axis, and the backward sums the pair gradients over
    the key axis for the query rows and over the query axis for the key
    rows: no row is gathered or scattered once per pair.

    A chunk is a run of block rows that holds about CHUNK_BYTES of pair
    activations (`_row_chunks`). A forward that no tape records keeps
    nothing for a backward, so it holds one chunk at a time; a recorded
    forward keeps every chunk, and the backward walks them in order. Every
    step works per set or per block row: the two products over a block's
    pairs, the logits and the logit gradients' product with the pairs
    (g_v), run once per block row, and g_v adds the rows' terms in row
    order. So a chunk runs the same products as the whole block, whatever
    the BLAS kernel, and gives its bits.

    w_in must have dk + dq rows, dq the query width (ShapeError).
    Returns (out, weights): a Value with query_src's row count, and per
    entry of sets.blocks its (G, Wq, c) softmax weights, [g, q] the set of
    query row rows[g, q], as views of one flat array in entry order.
    """
    key_src, query_src = as_value(key_src), as_value(query_src)
    w_in, b_in, w_out = as_value(w_in), as_value(b_in), as_value(w_out)
    b_out, score = as_value(b_out), as_value(score)
    dk, dq = key_src.data.shape[-1], query_src.data.shape[-1]
    if w_in.data.ndim != 2 or w_in.data.shape[0] != dk + dq:
        raise ShapeError(f"attention first-layer weight {w_in.data.shape} does "
                         f"not take key and query widths {dk} + {dq}")
    inputs = (query_src, key_src, w_in, b_in, w_out, b_out, score)
    recorded = _recording(inputs)
    hidden = w_out.data.shape[0]

    # alpha and pooled outlive this call (the backward and the caller's
    # audit read them). Allocated before the per-chunk temporaries and
    # filled chunk by chunk in place, they do not split the heap space
    # those free.
    alpha = np.empty(sets.n_pairs)
    pooled = np.empty((len(sets.rows), hidden))
    w_key, w_query = w_in.data[:dk], w_in.data[dk:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        from_key = key_src.data @ w_key
        from_query = query_src.data @ w_query
    _check_finite(from_key, "attention_blocks (first layer)")
    _check_finite(from_query, "attention_blocks (first layer)")
    from_query += b_in.data
    v = np.dot(w_out.data, score.data[:, 0])
    # per recorded chunk: hid, inside, alpha view, pooled rows, key rows
    weights, kept, p, s, k = [], [], 0, 0, 0
    for keys, rows in sets.blocks:
        (n, wq), c = rows.shape, keys.shape[1]
        weights.append(alpha[p:p + n * wq * c].reshape(n, wq, c))
        p += n * wq * c
        for part in _row_chunks(n, wq, c, hidden):
            g = part.stop - part.start
            hid = (from_query[rows[part]][:, :, None, :]
                   + from_key[keys[part]][:, None, :, :])
            np.maximum(hid, 0.0, out=hid)
            logit = np.matmul(hid.reshape(g, wq * c, hidden), v).reshape(g, wq, c)
            _check_finite(logit, "attention_blocks (logits)")
            shifted = logit - logit.max(axis=-1, keepdims=True)
            inside = shifted >= -LOGIT_SPAN if recorded else None
            e = np.exp(np.maximum(shifted, -LOGIT_SPAN, out=shifted), out=shifted)
            a = weights[-1][part]
            np.divide(e, e.sum(axis=-1, keepdims=True), out=a)
            span = slice(s, s + g * wq)
            np.matmul(a[:, :, None, :], hid, out=pooled[span].reshape(g, wq, 1, hidden))
            if recorded:
                kept.append((hid, inside, a, span, slice(k, k + g * c)))
            s, k = s + g * wq, k + g * c
    ctx = pooled @ w_out.data
    ctx += b_out.data
    data = _scatter_add(ctx, sets.rows, query_src.data.shape[0])

    def backfn(g):
        g = g[sets.rows]
        g_pooled = g @ w_out.data.T
        g_v = np.zeros(hidden)
        g_fq = np.empty_like(g_pooled)
        g_fk = np.empty((len(sets.keys), hidden))
        for hid, inside, a, span, key_rows in kept:
            n, wq, c = a.shape
            gp = g_pooled[span].reshape(n, wq, 1, hidden)
            g_alpha = np.matmul(hid, gp.swapaxes(-1, -2))[..., 0]
            g_logit = g_alpha - (a * g_alpha).sum(axis=-1, keepdims=True)
            g_logit *= a
            g_logit *= inside
            # one term per block row, summed in row order as in a whole block
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
            g_fk[key_rows] = g_hid.sum(axis=1).reshape(-1, hidden)
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
    out = _make_output(data, inputs, backfn, "attention_blocks")
    return out, weights


def layer_l1(readouts, truth, pos):
    """The layer-wise loss as one tape op: the sum over `readouts`, in
    order, of mean |readout.ravel()[pos] - truth.ravel()[pos]|. The rest
    of truth is never read, so it may be NaN.

    Forward and backward run the numpy statements of the unfused chain
    (gather, subtract, abs, sum, divide by the count, add) and its reverse
    replay, ending in a scatter-add onto each readout, so every bit is the
    same (a zero difference gets +0.0). The record keeps each layer's
    signs. Every term is >= 0, so one finite check on the result catches
    a non-finite difference or an overflowing sum.
    """
    readouts = [as_value(r) for r in readouts]
    pos = np.asarray(pos, dtype=np.intp)
    if len(pos) == 0:
        raise EmptySetError("the loss selects no positions")
    truth_rows = np.asarray(truth, dtype=np.float64).reshape(-1, 1)[pos]
    count = float(len(pos))
    signs, total = [], None
    with np.errstate(over="ignore"):  # checked on the result
        for r in readouts:
            diff = r.data.reshape(-1, 1)[pos] - truth_rows
            signs.append(np.sign(diff))
            term = np.sum(np.abs(diff)) / count
            total = term if total is None else total + term

    def backfn(g):
        g = g / count
        return tuple(_scatter_add(g * s, pos, r.data.size).reshape(r.data.shape)
                     for r, s in zip(readouts, signs))

    return _make_output(total, tuple(readouts), backfn, "layer_l1")


def backward(root: Value):
    """Accumulate d(root)/d(leaf) into .grad of every requires-grad leaf.

    root must be a scalar recorded on an intact tape. A leaf's .grad
    accumulates, each sum a fresh array, so clear it (set it to None)
    between passes that should not sum; the optimizer step does. Leaves
    the tape does not reach keep their .grad, and a .grad may share its
    array with other gradients. A second backward on the same tape raises
    TapeError.
    """
    tape = root.tape
    if tape is None:
        raise TapeError("root was not recorded on any tape")
    if tape.consumed:
        raise TapeError("tape already consumed; rebuild the forward pass")
    if root.data.size != 1:
        raise TapeError(f"backward root must be scalar, got shape {root.data.shape}")
    tape.consumed = True

    root.grad = np.ones_like(root.data)
    records = tape.records
    for k in range(len(records) - 1, -1, -1):
        out, inputs, backfn = records[k]
        records[k] = None  # free the record (and its arrays) once consumed
        if out.grad is None:
            continue
        grads = backfn(out.grad)
        out.grad = None
        for inp, g in zip(inputs, grads):
            if g is not None and inp.requires_grad:
                inp.grad = g if inp.grad is None else inp.grad + g
