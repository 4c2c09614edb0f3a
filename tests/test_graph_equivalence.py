"""The edge-array sensor graph against the per-edge loops it replaced.

Hypothesis draws edge lists (faulty ones included: missing and fractional
node ids, self-loops, non-finite and non-positive weights, duplicates),
distance matrices (with `inf`, negative entries, a nonzero diagonal and
kernels that underflow), k-hop restrictions and baseline windows. Each
is given to `graphfill` and to the old code in `reference_graph.py`. An
edge list must build the same arrays or raise the same exception with the
same message; a distance matrix must build the same edges in the same
order, with weights within 1 ulp. The one new rejection is a NaN
distance, which must raise and name its cell.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_graph as old
from graphfill.data import SpatioTemporalWindow
from graphfill.errors import ValidationError
from graphfill.graph import SensorGraph, build_adjacency_gaussian, khop_subgraph
from graphfill.train import baseline_knn

SETTINGS = settings(max_examples=150)

WEIGHT = st.floats(1e-3, 1e3) | st.sampled_from([0.5, 1, 2])
BAD_WEIGHT = st.sampled_from([0.0, -0.0, -1.5, np.nan, np.inf, -np.inf])


def outcome(build, *args):
    """The arrays `build` makes, or the class and message it raises."""
    try:
        graph = build(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc).__name__, str(exc)
    return graph.n_nodes, graph.src.tobytes(), graph.dst.tobytes(), graph.weight


@st.composite
def graphs(draw, faulty=None):
    """(n_nodes, edges): distinct (src, dst, weight) rows in drawn order;
    in a faulty list some node ids, weights or rows are bad."""
    n = draw(st.integers(1, 6))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(s, d, draw(WEIGHT)) for s, d in chosen]
    if faulty is None:
        faulty = draw(st.integers(0, 2)) == 0
    if faulty:
        node = st.sampled_from([-1, -0.5, n - 0.5, n, n + 3, 1.5])
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(edges)))
            s, d, w = edges[k] if k < len(edges) else (0, min(1, n - 1), 1.0)
            fault = draw(st.sampled_from(["src", "dst", "loop", "weight", "dup"]))
            row = {"src": lambda: (draw(node), d, w),
                   "dst": lambda: (s, draw(node), w),
                   "loop": lambda: (d, d, w),
                   "weight": lambda: (s, d, draw(BAD_WEIGHT)),
                   "dup": lambda: (s, d, draw(WEIGHT))}[fault]()
            edges.insert(draw(st.integers(0, len(edges))), row)
    return n, edges


@SETTINGS
@given(graphs(), st.booleans())
@example((3, [(0, 1, 1.0), (2, 1, np.inf), (1, 1, 1.0)]), False)
@example((3, [(0, 1, -np.inf), (0, 1, 1.0)]), True)
@example((3, [(2, 0, 0.5), (0, 1, np.nan)]), False)
@example((3, [(0, 1, 1.0), (0, 1, 2.0), (9, 1, 1.0)]), False)
def test_edge_lists_build_or_fail_as_before(case, as_array):
    n, edges = case
    if as_array:
        edges = np.array(edges, dtype=np.float64).reshape(len(edges), 3)
    before = outcome(old.SensorGraph, n, edges)
    after = outcome(SensorGraph, n, edges)
    assert before[:3] == after[:3]
    if len(before) == 4:
        assert before[3].tobytes() == after[3].tobytes()


@st.composite
def distance_matrices(draw):
    """(distances, gamma, delta), faults included but no NaN."""
    n = draw(st.integers(1, 6))
    cell = st.floats(0, 4) | st.sampled_from([0.0, np.inf])
    dist = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n)))
    dist = dist.reshape(n, n)
    np.fill_diagonal(dist, 0.0)
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        dist[i, j] = draw(st.sampled_from([-1.0, -0.0, -np.inf, 0.5]))
    gamma = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 0.0, -1.0]))
    delta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf]))
    return dist, gamma, delta


@SETTINGS
@given(distance_matrices())
def test_distance_matrices_build_as_before(case):
    dist, gamma, delta = case
    before = outcome(old.build_adjacency_gaussian, dist, gamma, delta)
    after = outcome(build_adjacency_gaussian, dist, gamma, delta)
    if len(before) == 2 and before[1] == "distances must be non-negative":
        i, j = np.argwhere(dist < 0.0)[0]
        assert after == ("ValidationError", f"{before[1]}, got "
                         f"{dist[i, j]:g} at ({i},{j})")
        return
    assert before[:3] == after[:3]
    if len(before) == 4:
        assert np.all(np.abs(after[3] - before[3]) <= np.spacing(before[3]))


@settings(max_examples=60)
@given(distance_matrices(), st.data())
def test_nan_distance_is_rejected_and_named(case, data):
    dist, gamma, delta = case
    n = len(dist)
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), min_size=1))
    for i, j in cells:
        dist[i, j] = np.nan
    i, j = np.argwhere(~(dist >= 0.0))[0]
    with pytest.raises(ValidationError, match=rf"got \S+ at \({i},{j}\)$"):
        build_adjacency_gaussian(dist, max(gamma, 1e-3), delta)


@SETTINGS
@given(graphs(faulty=False), st.data())
def test_khop_subgraph_as_before(case, data):
    n, edges = case
    seeds = data.draw(st.lists(st.integers(-1, n), max_size=4))
    k = data.draw(st.integers(-1, 4))
    graph = SensorGraph(n, edges)
    try:
        before = old.khop_subgraph(old.SensorGraph(n, edges), seeds, k)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            khop_subgraph(graph, seeds, k)
        return
    sub, kept, seed_mask = khop_subgraph(graph, seeds, k)
    old_sub, node_map, old_seed_mask = before
    assert sub.n_nodes == old_sub.n_nodes
    for name in ("src", "dst", "weight"):
        assert getattr(sub, name).tobytes() == getattr(old_sub, name).tobytes()
    assert kept.tolist() == sorted(node_map)
    assert seed_mask.tolist() == old_seed_mask.tolist()


@SETTINGS
@given(graphs(faulty=False), st.data())
def test_baseline_knn_as_before(case, data):
    n, edges = case
    width = data.draw(st.integers(1, 5))
    cell = st.floats(-3, 3)
    values = np.array(data.draw(st.lists(cell, min_size=width * n,
                                         max_size=width * n))).reshape(width, n)
    mask = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=width * n,
                                       max_size=width * n)), dtype=np.uint8)
    mask = mask.reshape(width, n)
    values[mask == 0] = np.nan  # a hidden value is never read
    win = SpatioTemporalWindow(values=values, mask=mask, eval_mask=1 - mask,
                               step_offsets=np.arange(width))
    node_means = data.draw(st.lists(cell, min_size=n, max_size=n))
    before = old.baseline_knn(win, old.SensorGraph(n, edges), node_means)
    after = baseline_knn(win, SensorGraph(n, edges), node_means)
    np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("strategy, build", [
    (graphs(), lambda case: old.SensorGraph(*case)),
    (distance_matrices(), lambda case: old.build_adjacency_gaussian(*case))],
    ids=["edge lists", "distance matrices"])
def test_generated_inputs_are_both_built_and_rejected(strategy, build):
    """The properties above would hold vacuously if every input failed."""
    results = []

    @settings(max_examples=60)
    @given(strategy)
    def collect(case):
        results.append(len(outcome(build, case)) == 4)

    collect()
    assert 0.2 < np.mean(results) < 0.9, np.mean(results)
