"""Dense float64 arrays with recorded reverse-mode differentiation.

Operations run eagerly on numpy arrays. While a Tape is active, every
operation appends a record holding a closure that maps the output gradient
to input gradients; backward() replays the records in reverse order. A
closure may return views of its output gradient, or one array for several
inputs, because no gradient array is ever written in place. With no
active tape, operations only compute values, which keeps repeated
forward evaluations (finite differences, benchmarks) cheap.

The op set is deliberately small: add, sub, div, vabs, relu, matmul
against a 2-D weight, concat, reshape, vsum/vmean, gather_rows (repeated
rows sum their gradients), scatter_rows (a scatter-add), and
attention_blocks, one fused op for a whole attention branch (the message
MLP over [key, query] pairs, per-set softmax and weighted sum, contexts
summed onto query rows) over dense blocks of sets that share their keys.
That is enough for MLPs, softmax attention over variable-size message
sets, and training.

Every operation result must be finite; NaN or Inf raises immediately
rather than propagating. Leaves are exempt so that deliberately poisoned
(hidden) entries may sit in an input array as long as no op reads them.
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
    points, apply it on entry. Measured with perfbench (seed 11, 2-vCPU
    Xeon, BLAS on one thread, `--seconds 10`, 6 interleaved pairs),
    `op_s_p50` read the same with the call made on import or on entry:
    spin-impute-block 0.045-0.048 s and 0.031-0.049 s per window (0.061-
    0.070 s without the call), spin-train-w24 0.61-0.73 s and 0.53-0.76 s
    per step. Best effort: silently skipped where glibc is unavailable.
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

    def __add__(self, other):
        return add(self, other)


def as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _check_finite(arr):
    # A single non-finite entry makes the full sum non-finite (inf - inf
    # is NaN), so one reduction checks the whole array without allocating.
    # Finite entries can also overflow the sum; only then is every entry
    # checked.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(arr)
    if not np.isfinite(total) and not np.isfinite(arr).all():
        raise NonFiniteError("non-finite values produced by a forward operation")


def _make_output(data, inputs, backfn):
    """Create the result Value and record it on the active tape."""
    _check_finite(data)
    out = Value(data)
    tape = _ACTIVE_TAPE
    if tape is not None:
        for v in inputs:
            if v.tape is not None and v.tape is not tape:
                raise TapeError("operation mixes values from different tapes")
        if any(v.requires_grad for v in inputs):
            out.requires_grad = True
            out.tape = tape
            tape.records.append((out, inputs, backfn))
    return out


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


def add(a, b):
    a, b = as_value(a), as_value(b)
    data = a.data + b.data

    def backfn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make_output(data, (a, b), backfn)


def sub(a, b):
    a, b = as_value(a), as_value(b)
    data = a.data - b.data

    def backfn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make_output(data, (a, b), backfn)


def div(a, b):
    a, b = as_value(a), as_value(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backfn(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb

    return _make_output(data, (a, b), backfn)


def vabs(a):
    a = as_value(a)
    sign = np.sign(a.data)
    return _make_output(np.abs(a.data), (a,), lambda g: (g * sign,))


def relu(a):
    a = as_value(a)
    return _make_output(np.maximum(a.data, 0.0), (a,),
                        lambda g: (g * (a.data > 0.0),))


def matmul(a, b):
    """a @ b with 2-D b; a may carry up to two leading batch axes."""
    a, b = as_value(a), as_value(b)
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

    return _make_output(data, (a, b), backfn)


def concat(values, axis=-1):
    values = [as_value(v) for v in values]
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

    return _make_output(data, tuple(values), backfn)


def reshape(a, shape):
    a = as_value(a)
    data = a.data.reshape(shape)
    orig = a.data.shape
    return _make_output(data, (a,), lambda g: (g.reshape(orig),))


def vsum(a, axis=None, keepdims=False):
    a = as_value(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backfn(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _make_output(data, (a,), backfn)


def vmean(a):
    a = as_value(a)
    return div(vsum(a), float(a.data.size))


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
                        lambda g: (_scatter_add(g, idx, a.data.shape[0]),))


def scatter_rows(rows, idx, n_rows):
    """Accumulate `rows` into a zero array of n_rows rows at positions idx.

    Duplicate indices sum in array order, which keeps floating-point
    accumulation deterministic.
    """
    rows = as_value(rows)
    idx = np.asarray(idx, dtype=np.intp)
    data = _scatter_add(rows.data, idx, n_rows)
    return _make_output(data, (rows,), lambda g: (g[idx],))


# Logits further than this below their set max contribute < 1e-26 of the
# mass; clamping there blocks exp underflow without affecting results.
LOGIT_SPAN = 60.0


def attention_blocks(key_src, query_src, blocks, w_in, b_in, w_out, b_out,
                     score):
    """One attention branch over dense blocks of message sets, as one tape op.

    `blocks` holds (keys, rows) pairs of intp arrays, keys (G, c) with
    c >= 1 and rows (G, Wq). Block g holds Wq sets: the set of query row
    rows[g, q] reads the c keys keys[g, :], rows of key_src. Its pair k
    carries the message of a two-layer MLP over [key row, query row],

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

    Returns (out, alpha): a Value with query_src's row count and the
    (P, 1) weights, entry by entry in (g, q, k) order.
    """
    key_src, query_src = as_value(key_src), as_value(query_src)
    w_in, b_in, w_out = as_value(w_in), as_value(b_in), as_value(w_out)
    b_out, score = as_value(b_out), as_value(score)
    blocks = [(np.asarray(keys, dtype=np.intp), np.asarray(rows, dtype=np.intp))
              for keys, rows in blocks]
    for keys, rows in blocks:
        if keys.ndim != 2 or rows.ndim != 2 or len(keys) != len(rows):
            raise ShapeError(f"a block needs keys (G, c) and rows (G, Wq), got "
                             f"{keys.shape} and {rows.shape}")
        if keys.shape[1] < 1:
            raise EmptySetError("every message set needs at least one key")
    rows_all = np.concatenate([rows.ravel() for _, rows in blocks])
    hidden = w_out.data.shape[0]

    # alpha and pooled outlive this call (the backward and the caller's
    # audit read them). Allocated before the per-block temporaries and
    # filled block by block in place, they do not split the heap space
    # those free: perfbench's spin-impute-block read a peak RSS of 73-74 MB
    # so, 78 MB with per-block results concatenated at the end (seed 11,
    # 2-vCPU Xeon).
    alpha = np.empty(sum(rows.size * keys.shape[1] for keys, rows in blocks))
    pooled = np.empty((len(rows_all), hidden))
    dk = key_src.data.shape[-1]
    w_key, w_query = w_in.data[:dk], w_in.data[dk:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        from_key = key_src.data @ w_key
        from_query = query_src.data @ w_query
    _check_finite(from_key)
    _check_finite(from_query)
    from_query += b_in.data
    v = np.dot(w_out.data, score.data[:, 0])
    kept, p, s = [], 0, 0  # per block: hid, inside, alpha view, pooled rows
    for keys, rows in blocks:
        (g, wq), c = rows.shape, keys.shape[1]
        hid = from_query[rows][:, :, None, :] + from_key[keys][:, None, :, :]
        np.maximum(hid, 0.0, out=hid)
        logit = (hid.reshape(-1, hidden) @ v).reshape(g, wq, c)
        _check_finite(logit)
        shifted = logit - logit.max(axis=-1, keepdims=True)
        inside = shifted >= -LOGIT_SPAN
        e = np.exp(np.maximum(shifted, -LOGIT_SPAN, out=shifted), out=shifted)
        a = alpha[p:p + e.size].reshape(g, wq, c)
        np.divide(e, e.sum(axis=-1, keepdims=True), out=a)
        sets = slice(s, s + g * wq)
        np.matmul(a[:, :, None, :], hid, out=pooled[sets].reshape(g, wq, 1, hidden))
        kept.append((hid, inside, a, sets))
        p, s = p + e.size, s + g * wq
    ctx = pooled @ w_out.data
    ctx += b_out.data
    data = _scatter_add(ctx, rows_all, query_src.data.shape[0])

    def backfn(g):
        g = g[rows_all]
        g_pooled = g @ w_out.data.T
        g_v = np.zeros(hidden)
        g_fq = np.empty_like(g_pooled)
        keys_all = np.concatenate([keys.ravel() for keys, _ in blocks])
        g_fk = np.empty((len(keys_all), hidden))
        k = 0
        for (keys, rows), (hid, inside, a, sets) in zip(blocks, kept):
            gp = g_pooled[sets].reshape(rows.shape + (1, hidden))
            g_alpha = np.matmul(hid, gp.swapaxes(-1, -2))[..., 0]
            g_logit = g_alpha - (a * g_alpha).sum(axis=-1, keepdims=True)
            g_logit *= a
            g_logit *= inside
            g_v += g_logit.ravel() @ hid.reshape(-1, hidden)
            # a pair's gradient a * gp + g_logit * v is a rank-2 product,
            # which one batched matmul forms faster than two broadcasts
            g_hid = (np.stack([a, g_logit], axis=-1)
                     @ np.concatenate([gp, np.broadcast_to(v, gp.shape)], axis=2))
            g_hid *= hid > 0.0
            # einsum sums the key axis about 2x faster than .sum(axis=2)
            # (hidden 32, c 10-90), with the same bits when hidden > 1; at
            # hidden 1 both reduce a contiguous axis, in different orders
            g_fq[sets] = np.einsum("gqkh->gqh", g_hid).reshape(-1, hidden)
            g_fk[k:k + keys.size] = g_hid.sum(axis=1).reshape(-1, hidden)
            k += keys.size
        g_w_out = pooled.T @ g
        g_w_out += np.outer(g_v, score.data[:, 0])
        g_fq = _scatter_add(g_fq, rows_all, query_src.data.shape[0])
        g_b_in = g_fq.sum(axis=0)
        g_fk = _scatter_add(g_fk, keys_all, key_src.data.shape[0])
        g_w_in = np.concatenate([key_src.data.T @ g_fk, query_src.data.T @ g_fq])
        return (g_fq @ w_query.T, g_fk @ w_key.T, g_w_in, g_b_in,
                g_w_out, g.sum(axis=0), np.dot(w_out.data.T, g_v)[:, None])

    # query_src comes first: where it is also key_src (spin), its gradient
    # adds the query part before the key part. The order is part of the
    # result: the other one changes trained parameters in the last bits.
    out = _make_output(data, (query_src, key_src, w_in, b_in, w_out, b_out, score),
                       backfn)
    return out, alpha[:, None]


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
