"""Bool masks checked where they enter, against the uint8 code they replaced.

Hypothesis draws 0/1 masks of every dtype a caller may pass (uint8,
int64, float64, bool) with random shapes, rates and seeds, and gives them
to `graphfill` and to the old injectors and whiten in `reference_masks.py`.
The new outputs must be bool arrays equal to the old outputs `== 1`, and
the generator must be left in the same state. A mask holding any other
value (0.7, 2, -1, NaN) must be refused with a ValidationError naming its
first bad cell, by every function through which a mask enters.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_masks as old
from graphfill.data import (Dataset, SpatioTemporalWindow, inject_block_missing,
                            inject_point_missing, inject_sparsity_sweep,
                            training_whiten)
from graphfill.errors import ValidationError
from graphfill.graph import SensorGraph
from graphfill.spin import SpinParameters, spin_forward
from graphfill.spin_h import SpinHParameters, spinh_forward

SETTINGS = settings(max_examples=80)
DTYPES = [np.uint8, np.int64, np.float64, bool]
# each bad value with the dtypes that can hold it
BAD_VALUES = {0.7: [np.float64], 2: [np.uint8, np.int64, np.float64],
              -1: [np.int64, np.float64], np.nan: [np.float64]}


@st.composite
def binary_masks(draw, max_steps=60, max_nodes=6):
    """A 0/1 mask of a drawn shape, density and dtype."""
    shape = (draw(st.integers(1, max_steps)), draw(st.integers(1, max_nodes)))
    density = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random(shape) < density).astype(draw(st.sampled_from(DTYPES)))


def same_outputs(new, old_out, new_rng, old_rng):
    """New bool outputs equal the old 0/1 ones, from the same draws."""
    assert all(a.dtype == bool for a in new)
    assert all(np.array_equal(a, b == 1) for a, b in zip(new, old_out))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def twin_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@SETTINGS
@given(binary_masks(), st.floats(0.0, 0.99), st.integers(0, 2**32 - 1))
def test_point_and_sweep_injection_match_the_uint8_code(mask, rate, seed):
    for new, ref, kwarg in ((inject_point_missing, old.inject_point_missing, "rate"),
                            (inject_sparsity_sweep, old.inject_sparsity_sweep, "p")):
        new_rng, old_rng = twin_rngs(seed)
        same_outputs(new(mask, rng=new_rng, **{kwarg: rate}),
                     ref(mask, rng=old_rng, **{kwarg: rate}), new_rng, old_rng)


@SETTINGS
@given(binary_masks(), st.floats(0.0, 0.99), st.floats(0.0, 0.2),
       st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_block_injection_matches_the_uint8_code(mask, point_rate, failure_prob,
                                                len_min, extra, seed):
    kwargs = dict(point_rate=point_rate, failure_prob=failure_prob,
                  len_min=len_min, len_max=len_min + extra)
    new_rng, old_rng = twin_rngs(seed)
    same_outputs(inject_block_missing(mask, rng=new_rng, **kwargs),
                 old.inject_block_missing(mask, rng=old_rng, **kwargs),
                 new_rng, old_rng)


def window_of(mask):
    return SpatioTemporalWindow(values=np.zeros(mask.shape), mask=mask,
                                eval_mask=np.zeros(mask.shape, dtype=bool),
                                step_offsets=np.arange(mask.shape[0], dtype=float))


@SETTINGS
@given(binary_masks(max_steps=30), st.sampled_from([None, 0.2, 0.5, 0.8, 0.01]),
       st.integers(0, 2**32 - 1))
def test_whiten_matches_the_uint8_code(mask, p, seed):
    # The old whiten inverted the mask's own dtype, which a float mask
    # does not allow; it is given that mask as the uint8 it stood for.
    old_mask = mask.astype(np.uint8) if mask.dtype == np.float64 else mask
    new_rng, old_rng = twin_rngs(seed)
    if not mask.any():
        for fn, m, rng in ((training_whiten, mask, new_rng),
                           (old.training_whiten, old_mask, old_rng)):
            with pytest.raises(ValidationError, match="no valid entries"):
                fn(window_of(m), rng=rng, p=p)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        return
    same_outputs(training_whiten(window_of(mask), rng=new_rng, p=p),
                 old.training_whiten(window_of(old_mask), rng=old_rng, p=p),
                 new_rng, old_rng)


def ring(n):
    return SensorGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]
                       + [((i + 1) % n, i, 0.5) for i in range(n)])


N_NODES, WIDTH = 3, 5
SPIN = SpinParameters(n_nodes=N_NODES, d_h=4, n_layers=2, n_masked=1, hidden=4,
                      d_v=2, d_q=4, rng=np.random.default_rng(0))
SPIN_H = SpinHParameters(n_nodes=N_NODES, d_h=4, d_z=4, n_hubs=2, n_layers=2,
                         n_masked=1, hidden=4, d_v=2, d_q=4,
                         rng=np.random.default_rng(1))


@SETTINGS
@given(binary_masks(max_steps=WIDTH, max_nodes=N_NODES), st.integers(0, 9))
def test_forwards_read_any_0_1_dtype_as_bool(mask, seed):
    mask = np.resize(mask, (WIDTH, N_NODES))
    values = np.random.default_rng(seed).normal(size=mask.shape)
    win = SpatioTemporalWindow(values=values, mask=mask.astype(bool),
                               eval_mask=np.zeros(mask.shape, dtype=bool),
                               step_offsets=np.arange(WIDTH, dtype=float))
    for fwd, params in ((spin_forward, SPIN), (spinh_forward, SPIN_H)):
        want = fwd(win, ring(N_NODES), params).predictions
        got = fwd(win, ring(N_NODES), params, input_mask=mask).predictions
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def with_bad_cells(mask, value, cells, dtype):
    """mask as `dtype` with `value` written at each of `cells`."""
    out = mask.astype(dtype)
    for t, j in cells:
        out[t, j] = value
    return out


def entry_points():
    """name -> call(mask) for every function through which a mask enters."""
    graph = ring(N_NODES)

    def forward(fwd, params, as_window_mask):
        def call(mask):
            win = window_of(np.ones(mask.shape, dtype=bool))
            if as_window_mask:
                win.mask = mask
                return fwd(win, graph, params)
            return fwd(win, graph, params, input_mask=mask)
        return call

    return {
        "Dataset mask": lambda m: Dataset(np.zeros(m.shape), m),
        "Dataset eval mask": lambda m: Dataset(
            np.zeros(m.shape), np.zeros(m.shape, dtype=bool), m),
        "inject_point_missing": lambda m: inject_point_missing(m, rate=0.0),
        "inject_sparsity_sweep": lambda m: inject_sparsity_sweep(m, p=0.5),
        "inject_block_missing": lambda m: inject_block_missing(m),
        "training_whiten": lambda m: training_whiten(window_of(m), rng=0),
        "spin_forward input_mask": forward(spin_forward, SPIN, False),
        "spin_forward window mask": forward(spin_forward, SPIN, True),
        "spinh_forward input_mask": forward(spinh_forward, SPIN_H, False),
        "spinh_forward window mask": forward(spinh_forward, SPIN_H, True),
    }


ENTRY_POINTS = entry_points()


@pytest.mark.parametrize("value", list(BAD_VALUES), ids=["0.7", "2", "-1", "nan"])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(max_examples=15)
@given(mask=binary_masks(max_steps=WIDTH, max_nodes=N_NODES), data=st.data())
def test_non_binary_mask_is_refused_naming_its_first_bad_cell(name, value,
                                                              mask, data):
    mask = np.resize(mask, (WIDTH, N_NODES))
    cell = st.tuples(st.integers(0, WIDTH - 1), st.integers(0, N_NODES - 1))
    cells = data.draw(st.lists(cell, min_size=1, max_size=3))
    t, j = min(cells)  # row-major order
    bad = with_bad_cells(mask, value, cells,
                         data.draw(st.sampled_from(BAD_VALUES[value])))
    with pytest.raises(ValidationError,
                       match=re.escape(f"offending entry at row {t}, col {j}")):
        ENTRY_POINTS[name](bad)


def test_a_bool_mask_comes_back_unchanged():
    mask = np.ones((WIDTH, N_NODES), dtype=bool)
    assert Dataset(np.zeros(mask.shape), mask).mask is mask
