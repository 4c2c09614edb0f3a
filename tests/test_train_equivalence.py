"""`train` and `train_step` against the code they replaced, bit for bit.

Random small problems (spin and spin-h, W 3-6, N 3-5, batch sizes 1-4,
with and without k-hop subsampling) are trained twice from the same
initial parameters: once by `graphfill.train.train` and once by
`reference_train.reference_train`. Parameters, history and the best
validation MAE must be identical.

One optimizer step, which now runs one tape per window, last window
first, is taken twice from the same state and batch: once by
`graphfill.train.train_step` and once by the single-tape
`reference_train.reference_train_step`. Parameters, Adam's moments and
step count, and the returned loss must be identical.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphfill.train
from graphfill.config import SubsampleConfig
from graphfill.data import Dataset, split_slices
from graphfill.graph import SensorGraph
from graphfill.optim import AdamState
from graphfill.spin import SpinParameters
from graphfill.spin_h import SpinHParameters
from graphfill.train import TrainConfig, TrainState, draw_batch, train, train_step
from reference_train import reference_train, reference_train_step

N_STEPS = 60  # default split: 42 training steps, 6 validation steps


@dataclass(frozen=True)
class Case:
    variant: str
    width: int
    n_nodes: int
    batch_size: int
    subsample: Optional[tuple]  # (n_seeds, k_hops)
    blank: bool                 # no observation in the first 20 steps
    lr: float
    epochs_max: int
    patience: int
    batches_per_epoch: int
    seed: int


@st.composite
def cases(draw, max_batch=4):
    n_nodes = draw(st.integers(3, 5))
    epochs_max = draw(st.integers(1, 3))
    subsample = draw(st.none() | st.tuples(st.integers(1, n_nodes),
                                           st.integers(0, 2)))
    return Case(variant=draw(st.sampled_from(["spin", "spin-h"])),
                width=draw(st.integers(3, 6)), n_nodes=n_nodes,
                batch_size=draw(st.integers(1, max_batch)), subsample=subsample,
                blank=draw(st.booleans()),
                lr=draw(st.sampled_from([0.0, 0.003, 0.05])),
                epochs_max=epochs_max,
                patience=draw(st.integers(1, epochs_max)),
                batches_per_epoch=draw(st.integers(1, 2)),
                seed=draw(st.integers(0, 2**16)))


# A blanked training head makes some drawn windows all-missing, so they
# are skipped; with lr 0 validation never improves, so patience stops it.
SKIPPING = Case("spin", width=4, n_nodes=4, batch_size=4, subsample=None,
                blank=True, lr=0.003, epochs_max=3, patience=3,
                batches_per_epoch=2, seed=1)
STOPPING = Case("spin-h", width=5, n_nodes=3, batch_size=2, subsample=(2, 1),
                blank=False, lr=0.0, epochs_max=3, patience=1,
                batches_per_epoch=1, seed=2)


def problem(case):
    """A fresh (dataset, graph, params, config) built from `case`."""
    rng = np.random.default_rng(case.seed)
    n = case.n_nodes
    values = rng.normal(size=(N_STEPS, n))
    mask = (rng.random((N_STEPS, n)) > 0.2).astype(np.uint8)
    if case.blank:
        mask[:20] = 0
    dataset = Dataset(values=values, mask=mask)
    edges = [(s, d, float(rng.uniform(0.5, 1.5)))
             for s in range(n) for d in range(n)
             if s != d and rng.random() < 0.5]
    small = dict(n_nodes=n, d_h=4, n_layers=2, n_masked=1, hidden=4, d_v=2,
                 d_q=2, rng=rng)
    params = (SpinParameters(**small) if case.variant == "spin"
              else SpinHParameters(d_z=4, n_hubs=2, **small))
    subsample = (None if case.subsample is None else
                 SubsampleConfig(*case.subsample))
    config = TrainConfig(epochs_max=case.epochs_max, patience=case.patience,
                         batches_per_epoch=case.batches_per_epoch,
                         batch_size=case.batch_size, lr=case.lr,
                         warmup_steps=2, seed=case.seed, subsample=subsample,
                         width=case.width, stride=case.width)
    return dataset, SensorGraph(n, edges), params, config


def run(trainer, case):
    """Train a fresh problem built from `case`; returns what must match."""
    dataset, graph, params, config = problem(case)
    _, history, best_val = trainer(dataset, graph, config, params)
    weights = b"".join(p.data.tobytes() for p in params.parameters())
    return weights, repr(history), repr(best_val)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(cases())
@example(SKIPPING)
@example(STOPPING)
def test_train_matches_reference(case):
    assert run(train, case) == run(reference_train, case)


def test_examples_skip_windows_and_stop_early(monkeypatch):
    sizes = []
    draw_batch = graphfill.train.draw_batch

    def counting(*args):
        batch_graph, batch = draw_batch(*args)
        sizes.append(len(batch))
        return batch_graph, batch

    monkeypatch.setattr(graphfill.train, "draw_batch", counting)
    run(train, SKIPPING)
    assert any(0 < size < SKIPPING.batch_size for size in sizes), sizes
    _, history, _ = run(train, STOPPING)
    assert history.count("'epoch'") == 2  # epoch 2 did not improve: stop


def step(stepper, case):
    """One optimizer step on the first batch drawn for a fresh problem built
    from `case`; returns the batch's window count and what must match."""
    dataset, graph, params, config = problem(case)
    train_view = dataset.rows(split_slices(dataset.n_steps, config.split)[0])
    state = TrainState(params=params, rng=np.random.default_rng(case.seed),
                       adam=AdamState(params.parameters()), best_state=[])
    batch_graph, batch = draw_batch(state.rng, train_view, graph, config)
    if not batch:
        return 0, None
    lr = max(case.lr, 0.003)  # a zero rate would leave the parameters as is
    loss = stepper(state, batch_graph, batch, lr)
    assert all(p.grad is None for p in params.parameters())
    return len(batch), (
        [p.data.tobytes() for p in params.parameters()],
        [m.tobytes() for m in state.adam.m], [v.tobytes() for v in state.adam.v],
        state.adam.t, state.step, loss.hex())


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cases(max_batch=7))
def test_train_step_matches_single_tape(case):
    assert step(train_step, case) == step(reference_train_step, case)


def test_train_step_matches_single_tape_on_odd_skipped_and_subsampled_batches():
    # (case, the number of windows its first batch keeps): batches of 3, 5
    # and 7 windows, a blanked head that skips 2 all-missing windows of 7, a
    # k-hop subsampled batch that skips a window with no loss target on a
    # seed node, and a single window.
    examples = [
        (Case("spin", 4, 4, 3, None, False, 0.05, 1, 1, 1, 3), 3),
        (Case("spin-h", 5, 5, 5, None, False, 0.05, 1, 1, 1, 4), 5),
        (Case("spin", 3, 3, 7, None, False, 0.05, 1, 1, 1, 5), 7),
        (Case("spin-h", 4, 4, 7, None, True, 0.05, 1, 1, 1, 1), 5),
        (Case("spin", 4, 5, 6, (2, 1), False, 0.05, 1, 1, 1, 3), 5),
        (Case("spin-h", 6, 4, 1, None, False, 0.05, 1, 1, 1, 9), 1),
    ]
    for case, n_windows in examples:
        n, got = step(train_step, case)
        assert n == n_windows, case
        assert got == step(reference_train_step, case)[1], case
