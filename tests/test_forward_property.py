"""Random spin and spin-h forwards against the loop oracles.

Drawn cases: graphs with no edges, isolated nodes or every edge; masks
with nodes that observe nothing (or nothing at all); W 1-6, L 1-3 and
eta 1-L. The planned, fused forward must match `test_spin.brute_force`
and `test_spin_h.brute_force_hubs`, and a forward must not read the
hidden values: with them set to NaN, every masked-phase readout keeps
its bits.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill.tensor as T
from graphfill.data import SpatioTemporalWindow
from graphfill.spin import SpinParameters, spin_forward
from graphfill.spin_h import SpinHParameters, spinh_forward
from test_plan_equivalence import drawn_graph, drawn_mask
from test_spin import brute_force
from test_spin_h import brute_force_hubs


@st.composite
def forward_cases(draw, hubs):
    w, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    n_layers = draw(st.integers(1, 3))
    n_masked = draw(st.integers(1, n_layers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = drawn_graph(draw, rng, n)
    mask = drawn_mask(draw, rng, w, n)
    window = SpatioTemporalWindow(values=rng.normal(size=(w, n)), mask=mask,
                                  eval_mask=np.zeros_like(mask),
                                  step_offsets=np.arange(w, dtype=float))
    shape = dict(n_nodes=n, d_h=8, n_layers=n_layers, n_masked=n_masked,
                 hidden=8, d_v=4, d_q=6, rng=rng)
    if hubs:
        params = SpinHParameters(d_z=8, n_hubs=draw(st.integers(1, 3)),
                                 per_node_hubs=draw(st.booleans()), **shape)
    else:
        params = SpinParameters(**shape)
    return window, graph, params


def check_against_oracle(forward, oracle, case):
    window, graph, params = case
    with T.no_grad():
        out = forward(window, graph, params)
    want = oracle(window.values, window.mask, window.step_offsets, graph,
                  params, params.n_layers, params.n_masked)
    for got, expected in zip(out.readouts, want, strict=True):
        assert np.max(np.abs(got.data - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))
    hidden = window.values.copy()
    hidden[~window.mask] = np.nan
    with T.no_grad():
        blind = forward(dataclasses.replace(window, values=hidden), graph, params)
    for got, masked in zip(blind.readouts, out.readouts[:params.n_masked]):
        assert got.data.tobytes() == masked.data.tobytes()


@settings(max_examples=80)
@given(forward_cases(hubs=False))
def test_spin_forward_matches_brute_force(case):
    check_against_oracle(spin_forward, brute_force, case)


@settings(max_examples=50)
@given(forward_cases(hubs=True))
def test_spinh_forward_matches_brute_force_hubs(case):
    check_against_oracle(spinh_forward, brute_force_hubs, case)
