"""A non-finite forward value names the op that produced it.

Each op is fed one poisoned input and must raise `NonFiniteError` naming
itself (and, inside `mlp` and `attention_blocks`, the stage). The first
bad op raises, leaves stay exempt, and a divergence in training carries
the op's name after its epoch and step.
"""

import re

import numpy as np
import pytest

import graphfill.tensor as T
from graphfill.data import normalize, split_slices
from graphfill.errors import DivergenceError, NonFiniteError
from graphfill.train import train_step
from test_train import fresh_state, ring_graph, tiny_params, wave_dataset, whitened_batch


def attention(key=1.0, w_in=1.0, score=1.0, b_out=0.0):
    """One set: query row 0 reads key rows 0 and 1, widths 1, hidden 2."""
    sets = T.MessageSets([(np.array([[0, 1]]), np.array([[0]]))])
    return T.attention_blocks(np.array([[key], [0.5]]), np.array([[0.25]]), sets,
                              np.full((2, 2), w_in), np.zeros(2), np.full((2, 1), 10.0),
                              np.full(1, b_out), np.full((1, 1), score))


def mlp(x, scales):
    """A 1-wide MLP whose layer k multiplies by scales[k]."""
    return T.mlp([np.array([[x]])], [np.array([[s]]) for s in scales],
                 [np.zeros(1) for _ in scales])


POISONED = {
    "div": lambda: T.div(np.ones(2), np.array([1.0, 0.0])),
    "reshape": lambda: T.reshape(np.array([[1.0, np.inf]]), (2,)),
    "gather_rows": lambda: T.gather_rows(np.array([[np.nan], [1.0]]), [1, 0]),
    "scatter_rows": lambda: T.scatter_rows([np.full((2, 1), 1e308)], [[0, 0]], 1),
    "mlp (hidden layer 0)": lambda: mlp(1e200, [1e200, 1.0]),
    "mlp (hidden layer 1)": lambda: mlp(1e200, [1.0, 1e200, 1.0]),
    "mlp": lambda: mlp(1e200, [1.0, 1e200]),
    "attention_blocks (first layer)": lambda: attention(key=1e200, w_in=1e200),
    "attention_blocks (logits)": lambda: attention(score=1e307),
    "attention_blocks": lambda: attention(b_out=np.inf),
    "layer_l1": lambda: T.layer_l1([np.array([[1e308]])], np.array([[-1e308]]), [0]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", list(POISONED))
def test_a_poisoned_input_names_its_op(op):
    with pytest.raises(NonFiniteError,
                       match=f"^non-finite values produced by {re.escape(op)}$"):
        POISONED[op]()


def test_the_first_bad_op_raises_and_leaves_are_exempt():
    leaf = T.Value(np.array([[np.nan], [1.0]]), requires_grad=True)
    rows = T.gather_rows(leaf, [1])  # the NaN row is not read
    with pytest.raises(NonFiniteError, match="by gather_rows$"):
        T.reshape(T.gather_rows(leaf, [0, 1]), (2,))
    assert np.array_equal(T.reshape(rows, (1,)).data, [1.0])


def test_divergence_names_the_op():
    graph = ring_graph(4)
    ds, _ = normalize(wave_dataset(), split_slices(120)[0])
    params = tiny_params(7)
    params.readout.biases[-1].data[:] = np.inf  # the readout MLP's output
    state = fresh_state(params, epoch=3, step=7)
    batch = whitened_batch(ds, (0, 10), 6, state.rng)
    with pytest.raises(DivergenceError, match="at epoch 3, step 7: non-finite "
                                              "values produced by mlp$"):
        train_step(state, graph, batch, lr=0.01)
