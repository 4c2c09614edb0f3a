"""Differentiation engine checks: every operation against central finite
differences, plus tape lifecycle and numeric-safety behavior."""

import warnings

import numpy as np
import pytest

import graphfill.tensor as T
import unfused_ops as U
from graphfill.errors import EmptySetError, NonFiniteError, ShapeError, TapeError


def numeric_grad(f, arrays, index, h=1e-6):
    """Central finite differences of scalar f w.r.t. arrays[index]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    g = np.zeros_like(base[index])
    flat = base[index].reshape(-1)
    gflat = g.reshape(-1)
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + h
        up = f(*base)
        flat[k] = keep - h
        down = f(*base)
        flat[k] = keep
        gflat[k] = (up - down) / (2.0 * h)
    return g


def check_grads(f_value, f_float, arrays, tol=1e-6):
    """Backward grads of f_value(Values) vs finite differences of f_float."""
    leaves = [T.Value(np.array(a, dtype=np.float64), requires_grad=True)
              for a in arrays]
    with T.Tape():
        out = f_value(*leaves)
        T.backward(out)
    for k, leaf in enumerate(leaves):
        got = leaf.grad
        want = numeric_grad(f_float, arrays, k)
        if got is None:
            got = np.zeros_like(want)
        err = np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))
        assert err < tol, f"input {k}: rel err {err}"


def test_arithmetic_chain_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(4, 3)) + 3.0

    def fv(a, b):
        return U.vsum(U.add(U.mul(a, b), T.div(U.sub(a, b), b)))

    def ff(a, b):
        return float(np.sum(a * b + (a - b) / b))

    check_grads(fv, ff, [a, b])


def test_unary_op_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 2)) * 2.0 + 0.3  # keep away from kinks at 0

    def fv(a):
        return U.vsum(U.add(U.vabs(a), U.add(U.relu(a),
                                             U.vexp(U.clamp(a, -1.0, 1.0)))))

    def ff(a):
        cl = np.clip(a, -1.0, 1.0)
        return float(np.sum(np.abs(a) + np.maximum(a, 0.0) + np.exp(cl)))

    check_grads(fv, ff, [a])


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))

    def fv(a, w):
        return U.vsum(U.mul(U.matmul(a, w), U.matmul(a, w)))

    def ff(a, w):
        return float(np.sum((a @ w) ** 2))

    check_grads(fv, ff, [a, w])


def test_broadcast_bias_grads():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=3)

    def fv(a, b):
        return U.vsum(U.relu(U.add(a, b)))

    def ff(a, b):
        return float(np.sum(np.maximum(a + b, 0.0)))

    check_grads(fv, ff, [a, b])


def test_concat_slice_reshape_grads():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 2))
    b = rng.normal(size=(4, 3))

    def fv(a, b):
        cat = U.concat([a, b], axis=-1)
        sl = U.slice_rows(cat, 1, 3)
        return U.vsum(U.mul(T.reshape(sl, (10,)), T.reshape(sl, (10,))))

    def ff(a, b):
        cat = np.concatenate([a, b], axis=-1)
        return float(np.sum(cat[1:3].reshape(10) ** 2))

    check_grads(fv, ff, [a, b])


def test_sum_mean_axes_grads():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))

    def fv(a):
        col = U.vsum(a, axis=0, keepdims=True)         # (1, 4)
        return U.add(U.vmean(U.mul(col, col)), U.vsum(a))

    def ff(a):
        col = a.sum(axis=0, keepdims=True)
        return float(np.mean(col ** 2) + a.sum())

    check_grads(fv, ff, [a])


def test_gather_scatter_grads():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4, 1])
    uniq = np.array([3, 0, 1])

    def fv(a):
        g = T.gather_rows(a, idx)
        s = T.scatter_rows([g], [np.array([0, 0, 1, 2, 2])], 3)
        u = T.gather_rows(a, uniq)
        return U.add(U.vsum(U.mul(s, s)), U.vsum(u))

    def ff(a):
        g = a[idx]
        s = np.zeros((3, 3))
        np.add.at(s, np.array([0, 0, 1, 2, 2]), g)
        return float(np.sum(s ** 2) + a[uniq].sum())

    check_grads(fv, ff, [a])

    # Repeated rows sum their gradients; distinct rows get exactly the
    # assignment gradient (zeros, with g written at the gathered rows).
    for rows, repeats in ((idx, True), (uniq, False)):
        upstream = rng.normal(size=(len(rows), 3))
        leaf = T.Value(a, requires_grad=True)
        with T.Tape():
            picked = T.gather_rows(leaf, rows)
            T.backward(U.vsum(U.mul(picked, upstream)))
        grad = leaf.grad
        want = np.zeros_like(a)
        if repeats:
            np.add.at(want, rows, upstream)
        else:
            want[rows] = upstream
        assert np.array_equal(grad.view(np.uint64), want.view(np.uint64))


def test_segment_sum_and_repeat_grads():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 2))
    starts = np.array([0, 2, 5])  # segments of length 2, 3, 1

    def fv(a):
        seg = U.segment_sum(a, starts)                   # (3, 2)
        rep = U.repeat_rows(seg, np.array([2, 3, 1]))    # back to (6, 2)
        return U.vsum(U.mul(rep, a))

    def ff(a):
        seg = np.stack([a[0:2].sum(0), a[2:5].sum(0), a[5:6].sum(0)])
        rep = np.repeat(seg, [2, 3, 1], axis=0)
        return float(np.sum(rep * a))

    check_grads(fv, ff, [a])


def test_segment_weighted_sum_grads():
    rng = np.random.default_rng(8)
    alpha = rng.random((6, 1)) + 0.1
    rows = rng.normal(size=(6, 3))
    starts = np.array([0, 4])

    def fv(alpha, rows):
        out = U.segment_weighted_sum(alpha, rows, starts)
        return U.vsum(U.mul(out, out))

    def ff(alpha, rows):
        prod = alpha * rows
        out = np.stack([prod[0:4].sum(0), prod[4:6].sum(0)])
        return float(np.sum(out ** 2))

    check_grads(fv, ff, [alpha, rows])


def test_pair_messages_matches_unfused_composition():
    rng = np.random.default_rng(9)
    fk = rng.normal(size=(5, 4))
    fq = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b_in = rng.normal(size=4)
    b_out = rng.normal(size=2)
    key_idx = np.array([0, 1, 4, 2, 2, 3])
    query_idx = np.array([0, 0, 1, 1, 2, 2])

    def fv(fk, fq, w, b_in, b_out):
        out = U.pair_messages(fk, fq, key_idx, query_idx, w, b_in, b_out)
        return U.vsum(U.mul(out, out))

    def fv_unfused(fk, fq, w, b_in, b_out):
        pre = U.add(U.add(T.gather_rows(fk, key_idx),
                          T.gather_rows(fq, query_idx)), b_in)
        out = U.add(U.matmul(U.relu(pre), w), b_out)
        return U.vsum(U.mul(out, out))

    def ff(fk, fq, w, b_in, b_out):
        pre = fk[key_idx] + fq[query_idx] + b_in
        out = np.maximum(pre, 0.0) @ w + b_out
        return float(np.sum(out ** 2))

    check_grads(fv, ff, [fk, fq, w, b_in, b_out])
    arrays = [fk, fq, w, b_in, b_out]
    outs = []
    for f in (fv, fv_unfused):
        leaves = [T.Value(np.array(x), requires_grad=True) for x in arrays]
        with T.Tape():
            out = f(*leaves)
            T.backward(out)
        outs.append((float(out.data), [l.grad.copy() for l in leaves]))
    assert abs(outs[0][0] - outs[1][0]) < 1e-12
    for ga, gb in zip(outs[0][1], outs[1][1]):
        assert np.max(np.abs(ga - gb)) < 1e-12


def test_softmax_rows_sum_to_one_and_grads():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 5)) * 3.0
    with T.no_grad():
        y = U.softmax_stable(T.Value(a), axis=-1)
    assert np.max(np.abs(y.data.sum(axis=-1) - 1.0)) < 1e-12

    def fv(a):
        y = U.softmax_stable(a, axis=-1)
        return U.vsum(U.mul(y, y))

    def ff(a):
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        return float(np.sum(y ** 2))

    check_grads(fv, ff, [a])


def test_segment_softmax_partition_and_grads():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(7, 1)) * 2.0
    starts = np.array([0, 3, 4])
    with T.no_grad():
        alpha = U.segment_softmax(T.Value(logits), starts)
    sums = [alpha.data[0:3].sum(), alpha.data[3:4].sum(), alpha.data[4:7].sum()]
    assert np.max(np.abs(np.array(sums) - 1.0)) < 1e-12

    def fv(logits):
        alpha = U.segment_softmax(logits, starts)
        return U.vsum(U.mul(alpha, alpha))

    def ff(logits):
        out = 0.0
        for lo, hi in ((0, 3), (3, 4), (4, 7)):
            seg = logits[lo:hi]
            e = np.exp(seg - seg.max())
            out += float(np.sum((e / e.sum()) ** 2))
        return out

    check_grads(fv, ff, [logits])


def test_segment_softmax_survives_extreme_logits():
    logits = np.array([[1e4], [9.999e3], [-1e4], [0.0]])
    starts = np.array([0, 3])
    with T.no_grad():
        alpha = U.segment_softmax(T.Value(logits), starts)
    assert np.all(np.isfinite(alpha.data))
    assert abs(alpha.data[0:3].sum() - 1.0) < 1e-12
    assert abs(alpha.data[3:4].sum() - 1.0) < 1e-12


def test_value_reused_twice_accumulates_gradient():
    x = T.Value(np.array([3.0]), requires_grad=True)
    with T.Tape():
        out = U.vsum(U.mul(x, x))
        T.backward(out)
    assert np.allclose(x.grad, 2.0 * x.data)


def test_leaves_sharing_a_backfn_array_sum_into_their_own():
    # add hands its output gradient to both inputs as one array, and
    # concat and reshape pass views of theirs: a and b first receive the
    # same array, then each adds its concat piece. A sum written into the
    # shared array would give b a's piece too.
    rng = np.random.default_rng(5)
    a = T.Value(rng.normal(size=(2, 3)), requires_grad=True)
    b = T.Value(rng.normal(size=(2, 3)), requires_grad=True)
    w = rng.normal(size=(6, 1))
    with T.Tape():
        u = U.concat([a, b], axis=0)
        c = U.add(a, b)
        rows = T.reshape(U.concat([c, u], axis=0), (3, 6))
        T.backward(U.vsum(U.matmul(rows, w)))
    g = np.tile(w.T, (3, 1)).reshape(6, 3)  # d(loss)/d[c; a; b]
    assert np.array_equal(a.grad, g[0:2] + g[2:4])
    assert np.array_equal(b.grad, g[0:2] + g[4:6])


def test_backward_requires_tape_and_consumes_it():
    x = T.Value(np.array([1.0]), requires_grad=True)
    with pytest.raises(TapeError):
        T.backward(U.vsum(x))  # no tape recorded this value
    with T.Tape():
        out = U.vsum(U.mul(x, x))
        assert T.backward(out) is None  # gradients land on .grad only
        with pytest.raises(TapeError):
            T.backward(out)  # tape already consumed


def test_backward_rejects_nonscalar_root():
    x = T.Value(np.ones(3), requires_grad=True)
    with T.Tape():
        y = U.mul(x, x)
        with pytest.raises(TapeError):
            T.backward(y)


def test_nested_tapes_rejected():
    with T.Tape():
        with pytest.raises(TapeError):
            with T.Tape():
                pass


def test_no_grad_records_nothing():
    x = T.Value(np.ones(2), requires_grad=True)
    with T.Tape() as tape:
        with T.no_grad():
            y = U.mul(x, x)
        assert len(tape.records) == 0
        assert y.tape is None


def test_forward_nonfinite_raises():
    x = T.Value(np.array([1.0, 0.0]))
    with pytest.raises(NonFiniteError):
        T.div(T.Value(np.ones(2)), x)
    with pytest.raises(NonFiniteError):
        U.vexp(T.Value(np.array([1e6])))


def test_finite_entries_whose_sum_overflows_pass():
    big = np.full(3, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = U.relu(T.Value(big))
    assert np.array_equal(out.data, big)


def test_leaf_values_may_hold_nonfinite_entries():
    # Hidden-state slots that no query ever reads stay NaN by design; only
    # operation outputs are checked.
    v = T.Value(np.array([np.nan, 1.0]))
    assert np.isnan(v.data[0])


def test_matmul_shape_errors():
    a = T.Value(np.ones((2, 3)))
    b = T.Value(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        U.matmul(a, b)


def test_empty_softmax_rejected():
    with pytest.raises(EmptySetError):
        U.softmax_stable(T.Value(np.zeros((3, 0))), axis=-1)


def test_gradcheck_randomized_compositions():
    # A randomized stack of the main ops, checked against finite
    # differences; seeds fixed so failures reproduce.
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=(6, 4))
        w1 = rng.normal(size=(4, 5)) * 0.7
        w2 = rng.normal(size=(5, 1)) * 0.7
        idx = rng.integers(0, 6, size=8)
        starts = np.array([0, 3])  # two segments: rows [0,3) and [3,8)

        def fv(a, w1, w2):
            h = U.relu(U.matmul(a, w1))
            g = T.gather_rows(h, idx)
            logits = U.matmul(g, w2)
            alpha = U.segment_softmax(logits, starts)
            pooled = U.segment_weighted_sum(alpha, g, starts)
            return U.vmean(U.vabs(pooled))

        def ff(a, w1, w2):
            h = np.maximum(a @ w1, 0.0)
            g = h[idx]
            logits = g @ w2
            pooled = []
            for lo, hi in ((0, 3), (3, 8)):
                seg = logits[lo:hi]
                e = np.exp(seg - seg.max())
                alpha = e / e.sum()
                pooled.append((alpha * g[lo:hi]).sum(axis=0))
            return float(np.mean(np.abs(np.stack(pooled))))

        check_grads(fv, ff, [a, w1, w2], tol=1e-5)
