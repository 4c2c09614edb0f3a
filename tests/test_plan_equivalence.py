"""Message-set plans and layer-0 states against the code they replaced.

`reference_plans` keeps the plan builders and `init_states` as they were
before spin and spin-h shared `spin.position_sets` and `MessageSets`
derived its own layout. Over drawn masks (nodes that observe nothing
included), graphs (no edges, isolated nodes, complete) and hub counts,
every block and pair count must be the same bits, and the record's
`rows` and `keys` must be the reference blocks flattened. The
one-scatter layer-0 states must give the same bits in values and every
gradient, alone and inside whole spin and spin-h stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill.spin
import graphfill.spin_h
import graphfill.tensor as T
import reference_plans as R
import unfused_ops as U
from graphfill.errors import ShapeError
from graphfill.graph import SensorGraph
from graphfill.spin import build_attention_plan, init_states
from graphfill.spin_h import HubPlan
from graphfill.train import spin_loss
from test_spin import random_case
from test_spin_h import random_case as random_hub_case


def drawn_graph(draw, rng, n):
    """No edges, each ordered pair with probability 0.4 (isolated nodes
    likely), or every ordered pair."""
    kind = draw(st.sampled_from(["none", "random", "complete"]))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    if kind == "none":
        pairs = []
    elif kind == "random":
        pairs = [pair for pair in pairs if rng.random() < 0.4]
    return SensorGraph(n, [(s, d, float(rng.random() + 0.1)) for s, d in pairs])


def drawn_mask(draw, rng, w, n):
    """A (W, N) bool mask at a drawn density, with some nodes silent."""
    mask = rng.random((w, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    mask[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = False
    return mask


@st.composite
def plan_cases(draw):
    w, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return drawn_mask(draw, rng, w, n), drawn_graph(draw, rng, n), draw(st.integers(1, 4))


def assert_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def flattened(arrays):
    return np.array([x for a in arrays for x in a.ravel().tolist()], dtype=np.intp)


def assert_same_sets(got, want):
    assert isinstance(got, T.MessageSets)
    assert len(got.blocks) == len(want.blocks)
    for (keys, rows), (want_keys, want_rows) in zip(got.blocks, want.blocks):
        assert_bits(keys, want_keys)
        assert_bits(rows, want_rows)
    assert got.n_pairs == len(got) == want.n_pairs
    assert_bits(got.rows, flattened(rows for _, rows in want.blocks))
    assert_bits(got.keys, flattened(keys for keys, _ in want.blocks))


@settings(max_examples=120)
@given(plan_cases())
def test_plans_match_the_reference_builders(case):
    mask, graph, n_hubs = case
    for masked in (True, False):
        for got, want in zip(build_attention_plan(mask, graph, masked),
                             R.build_attention_plan(mask, graph, masked)):
            assert_same_sets(got, want)
    for with_open in (True, False):
        got = HubPlan(mask, graph, n_hubs, with_open)
        want = R.HubPlan(mask, graph, n_hubs, with_open)
        for branch in ("masked_hub", "read_self", "read_cross"):
            assert_same_sets(getattr(got, branch), getattr(want, branch))
        if with_open:
            assert_same_sets(got.open_hub, want.open_hub)
        else:
            assert got.open_hub is None


def test_an_empty_record_has_an_empty_layout():
    sets = T.MessageSets([])
    assert len(sets) == sets.n_pairs == 0 and sets.blocks == []
    for layout in (sets.rows, sets.keys):
        assert layout.dtype == np.intp and layout.shape == (0,)


def test_hub_plan_checks_the_graph_node_count():
    mask = np.ones((4, 3), dtype=bool)
    for n_nodes in (2, 4):  # fewer nodes, then more, than the window's 3
        with pytest.raises(ShapeError, match=f"graph has {n_nodes} nodes, window has 3"):
            HubPlan(mask, SensorGraph(n_nodes, [(0, 1, 1.0)]), 2, with_open=True)


VARIANTS = {"spin": (random_case, graphfill.spin.spin_forward, dict(n_nodes=5, width=6)),
            "spin-h": (random_hub_case, graphfill.spin_h.spinh_forward, dict(n_nodes=5))}


def variant_case(variant, seed):
    make, forward, shape = VARIANTS[variant]
    window, graph, params = make(seed, n_layers=2, **shape)
    window.mask[:, 1] = 0  # a node that observes nothing
    return window, graph, params, forward


def grads(leaves):
    out = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    return out


@pytest.mark.parametrize("variant", ["spin", "spin-h"])
def test_layer0_states_match_the_reference(variant):
    window, graph, params, _ = variant_case(variant, 31)
    proj = np.random.default_rng(32).normal(size=(window.values.size, params.d_h))
    results = []
    for states in (init_states, R.init_states):
        with T.Tape():
            _, x_leaf, h = states(params, window, graph)
            T.backward(U.vsum(U.mul(h, proj)))
        results.append((h.data, x_leaf.grad, grads(params.parameters())))
    (h, g_x, g_params), (want_h, want_x, want_params) = results
    assert_bits(h, want_h)
    assert_bits(g_x, want_x)
    for (name, _), g, want in zip(params.named_parameters(), g_params, want_params):
        assert (g is None) == (want is None), name
        if g is not None:
            assert_bits(g, want)


@pytest.mark.parametrize("variant", ["spin", "spin-h"])
def test_stack_with_reference_layer0_states_has_the_same_bits(variant, monkeypatch):
    window, graph, params, forward = variant_case(variant, 33)
    results = []
    for states in (init_states, R.init_states):
        monkeypatch.setattr(graphfill.spin, "init_states", states)
        monkeypatch.setattr(graphfill.spin_h, "init_states", states)
        with T.Tape():
            out = forward(window, graph, params)
            T.backward(spin_loss(out, window.values, window.mask))
        results.append(([r.data for r in out.readouts], out.x_leaf.grad,
                        grads(params.parameters())))
    (readouts, g_x, g_params), (want_readouts, want_x, want_params) = results
    for got, want in zip(readouts, want_readouts):
        assert_bits(got, want)
    assert_bits(g_x, want_x)
    for g, want in zip(g_params, want_params):
        assert_bits(g, want)
