"""The fused layer-wise loss against the chain it replaced.

`T.layer_l1` records the whole layer-wise loss of one window as one tape
op. `unfused_ops.spin_loss_chain` is the older chain (reshape,
gather_rows, sub, vabs, vmean and add per layer). The fused op must give
the same bits in its value and in every readout gradient, on the op alone
and through whole spin and spin-h training steps.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill.tensor as T
import graphfill.train
import unfused_ops as U
from graphfill.errors import EmptySetError, NonFiniteError
from graphfill.spin import spin_forward
from graphfill.spin_h import spinh_forward
from graphfill.train import spin_loss, train_step
from test_spin import random_case
from test_spin_h import random_case as random_hub_case
from test_tensor import check_grads
from test_train_equivalence import Case, step


def run(loss, readouts, truth, loss_mask, n):
    """Loss value and readout gradients of loss(...) / n, the root a
    training step seeds for one of its n windows."""
    leaves = [T.Value(r.copy(), requires_grad=True) for r in readouts]
    with T.Tape():
        term = loss(SimpleNamespace(readouts=leaves), truth, loss_mask)
        T.backward(T.div(term, n))
    return term.data, [leaf.grad for leaf in leaves]


@st.composite
def loss_cases(draw):
    n_layers = draw(st.integers(1, 5))
    w, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    n_pos = draw(st.integers(1, w * n))
    tied = draw(st.sampled_from([0.0, 0.3, 1.0]))  # exactly-zero differences
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = np.sort(rng.choice(w * n, size=n_pos, replace=False))
    truth = np.full(w * n, np.nan)  # never measured, so never read
    truth[pos] = rng.normal(size=n_pos)
    readouts = []
    for _ in range(n_layers):
        r = rng.normal(size=w * n)
        ties = pos[rng.random(n_pos) < tied]
        r[ties] = truth[ties]
        readouts.append(r.reshape(w, n))
    loss_mask = np.zeros(w * n, dtype=bool)
    loss_mask[pos] = True
    # a negative root seed makes g * 0.0 a -0.0, which the chain's
    # scatter-add turns into +0.0
    return (readouts, truth.reshape(w, n), loss_mask.reshape(w, n),
            draw(st.sampled_from([1.0, 3.0, 8.0, -2.0])))


@settings(max_examples=150)
@given(loss_cases())
def test_layer_l1_matches_chain_bit_for_bit(case):
    got, got_grads = run(spin_loss, *case)
    want, want_grads = run(U.spin_loss_chain, *case)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for k, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), k


def test_zero_differences_get_positive_zero_gradients():
    truth = np.array([[1.0, np.nan], [-2.0, 0.0]])
    pos = np.array([0, 2, 3])
    readout = T.Value(np.array([[1.0, 5.0], [-2.0, 0.0]]), requires_grad=True)
    with T.Tape():
        out = T.layer_l1([readout], truth, pos)
        T.backward(out)
    assert float(out.data) == 0.0
    assert readout.grad.tobytes() == np.zeros((2, 2)).tobytes()


def test_truth_outside_pos_is_never_read():
    rng = np.random.default_rng(5)
    readouts = [T.Value(rng.normal(size=(4, 3))) for _ in range(3)]
    pos = np.array([1, 4, 5, 11])
    truth = rng.normal(size=(4, 3))
    poisoned = np.full((4, 3), np.nan)
    poisoned.ravel()[pos] = truth.ravel()[pos]
    want = T.layer_l1(readouts, truth, pos).data
    assert T.layer_l1(readouts, poisoned, pos).data.tobytes() == want.tobytes()


def test_layer_l1_grads_match_finite_differences():
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(5, 3)) for _ in range(3)]
    truth = rng.normal(size=(5, 3))
    pos = np.array([0, 2, 3, 7, 8, 14])

    def fv(*readouts):
        return T.layer_l1(readouts, truth, pos)

    def ff(*readouts):
        return float(sum(np.mean(np.abs(r.ravel()[pos] - truth.ravel()[pos]))
                         for r in readouts))

    check_grads(fv, ff, arrays)


@pytest.mark.parametrize("where", ["difference", "positions", "layers"])
def test_overflow_raises(where):
    readouts, truth = [np.zeros((2, 2))], np.zeros((2, 2))
    if where == "difference":  # 1e308 - (-1e308) is inf
        readouts[0][0, 0], truth[0, 0] = 1e308, -1e308
    elif where == "positions":  # every |difference| is finite, their sum not
        readouts[0][:] = 1e308
    else:  # every layer's mean is finite, their sum not
        readouts = [np.full((2, 2), 1e308)] * 2
    with pytest.raises(NonFiniteError):
        T.layer_l1(readouts, truth, np.arange(4))


def test_empty_positions_raise():
    with pytest.raises(EmptySetError):
        T.layer_l1([np.zeros((2, 2))], np.zeros((2, 2)), np.array([], dtype=int))
    out = SimpleNamespace(readouts=[T.Value(np.zeros((2, 2)))])
    with pytest.raises(EmptySetError):
        spin_loss(out, np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))


def test_one_call_appends_one_tape_record():
    readouts = [T.Value(np.ones((3, 2)), requires_grad=True) for _ in range(4)]
    loss_mask = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
    with T.Tape() as tape:
        out = spin_loss(SimpleNamespace(readouts=readouts), np.zeros((3, 2)),
                        loss_mask)
        assert len(tape.records) == 1
        assert tape.records[0][0] is out
    with T.Tape() as tape:
        U.spin_loss_chain(SimpleNamespace(readouts=readouts), np.zeros((3, 2)),
                          loss_mask)
        assert len(tape.records) == 7 * 4 - 1  # 6 per layer, 3 adds


@pytest.mark.parametrize("case", [
    Case("spin", 4, 4, 3, None, False, 0.05, 1, 1, 1, 3),
    Case("spin-h", 5, 5, 5, None, False, 0.05, 1, 1, 1, 4),
    Case("spin", 4, 5, 6, (2, 1), False, 0.05, 1, 1, 1, 3),
    Case("spin-h", 6, 4, 1, None, False, 0.05, 1, 1, 1, 9),
])
def test_train_step_matches_chain(monkeypatch, case):
    n, fused = step(train_step, case)
    assert n > 0
    monkeypatch.setattr(graphfill.train, "spin_loss", U.spin_loss_chain)
    assert step(train_step, case) == (n, fused)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("variant", ["spin", "spin-h"])
def test_window_tape_records(variant, n_layers):
    # per window: the position codes (2), the init MLPs with their
    # gathers, join and scatter (7), per layer two attention branches, the
    # update MLP, the readout and its reshape (5), the loss and the root;
    # spin-h adds its gather of hub rows, and per layer a hub branch and
    # the hub-fuse MLP (7 per layer)
    if variant == "spin":
        window, graph, params = random_case(3, n_nodes=5, width=6,
                                            n_layers=n_layers, edge_p=1.0)
        forward, want = spin_forward, 11 + 5 * n_layers
    else:
        window, graph, params = random_hub_case(3, n_nodes=5, width=6,
                                                n_layers=n_layers, edge_p=1.0)
        forward, want = spinh_forward, 12 + 7 * n_layers
    with T.Tape() as tape:
        out = forward(window, graph, params)
        T.div(spin_loss(out, window.values, window.mask), 2.0)
        n_records = len(tape.records)
    assert all(count > 0 for layer in out.pairs_per_layer
               for name, count in layer.items() if name != "masked")
    assert n_records == want
