"""Sensor-graph construction, kernel adjacency, and k-hop restriction."""

import csv
import os

import numpy as np
import pytest

from graphfill.errors import KernelError, ShapeError, ValidationError
from graphfill.graph import (SensorGraph, build_adjacency_gaussian,
                             khop_subgraph, load_distances_csv, load_edges_csv)


def save_edges_csv(path, graph: SensorGraph):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["src", "dst", "weight"])
        for s, d, w in zip(graph.src, graph.dst, graph.weight):
            writer.writerow([int(s), int(d), repr(float(w))])


def line_graph(n, w=1.0):
    """0 <-> 1 <-> 2 ... bidirectional chain."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, w))
        edges.append((i + 1, i, w))
    return SensorGraph(n, edges)


def test_edges_sorted_by_destination_then_source():
    g = SensorGraph(4, [(3, 0, 1.0), (1, 0, 2.0), (0, 2, 0.5), (2, 1, 1.5)])
    assert g.edges == [(1, 0, 2.0), (3, 0, 1.0), (2, 1, 1.5), (0, 2, 0.5)]
    assert g.in_neighbors(0) == [(1, 2.0), (3, 1.0)]
    assert g.in_neighbors(3) == []
    assert g.in_neighbors(1) == [(2, 1.5)]


def test_in_edge_slices_partition_edge_array():
    rng = np.random.default_rng(0)
    n = 7
    edges = [(i, j, float(rng.random() + 0.1))
             for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.4]
    g = SensorGraph(n, edges)
    total = 0
    for i in range(n):
        sl = g.in_edge_slice(i)
        assert np.all(g.dst[sl] == i)
        total += sl.stop - sl.start
    assert total == g.n_edges


def test_validation_errors():
    with pytest.raises(ValidationError):
        SensorGraph(0, [])
    with pytest.raises(ValidationError):
        SensorGraph(3, [(0, 3, 1.0)])  # node out of range
    with pytest.raises(ValidationError):
        SensorGraph(3, [(1, 1, 1.0)])  # self-loop
    with pytest.raises(ValidationError):
        SensorGraph(3, [(0, 1, 0.0)])  # non-positive weight
    with pytest.raises(ValidationError):
        SensorGraph(3, [(0, 1, 1.0), (0, 1, 2.0)])  # duplicate
    with pytest.raises(ValidationError):
        line_graph(3).in_edge_slice(5)


def test_gaussian_kernel_adjacency():
    dist = np.array([[0.0, 1.0, 3.0],
                     [1.0, 0.0, 1.5],
                     [3.0, 1.5, 0.0]])
    g = build_adjacency_gaussian(dist, gamma=2.0, delta=2.0)
    # pairs within delta: (0,1) both ways, (1,2) both ways; (0,2) is out
    assert g.n_edges == 4
    w01 = dict(((s, d), w) for s, d, w in g.edges)
    assert abs(w01[(0, 1)] - np.exp(-1.0 / 2.0)) < 1e-15
    assert abs(w01[(1, 2)] - np.exp(-(1.5 ** 2) / 2.0)) < 1e-15
    assert (0, 0) not in w01  # no diagonal edge even though d=0 <= delta
    assert g.distances is not None


def test_gaussian_kernel_validation():
    with pytest.raises(ShapeError):
        build_adjacency_gaussian(np.zeros((2, 3)), 1.0, 1.0)
    with pytest.raises(ValidationError):
        build_adjacency_gaussian(np.zeros((3, 3)), 0.0, 1.0)
    bad = np.zeros((2, 2))
    bad[0, 1] = -1.0
    with pytest.raises(ValidationError):
        build_adjacency_gaussian(bad, 1.0, 1.0)
    diag = np.ones((2, 2))
    with pytest.raises(ValidationError):
        build_adjacency_gaussian(diag, 1.0, 1.0)


def test_gaussian_weights_decrease_with_distance():
    rng = np.random.default_rng(1)
    pts = rng.random((10, 2))
    diff = pts[:, None] - pts[None, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    g = build_adjacency_gaussian(dist, gamma=0.1, delta=0.6)
    for s, d, w in g.edges:
        assert abs(w - np.exp(-dist[s, d] ** 2 / 0.1)) < 1e-15
        assert 0.0 < w <= 1.0


def test_gaussian_weight_underflow_names_gamma_and_edge():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(KernelError, match=r"gamma 0\.001 underflows .* edge \(0,1\)"):
        build_adjacency_gaussian(dist, gamma=0.001, delta=1.5)
    with pytest.raises(KernelError, match="gamma must be > 0"):
        build_adjacency_gaussian(dist, gamma=0.0, delta=1.5)


def test_khop_zero_keeps_seeds_only():
    g = line_graph(5)
    sub, node_map, seed_mask = khop_subgraph(g, [2], 0)
    assert sub.n_nodes == 1
    assert sub.n_edges == 0
    assert node_map == {2: 0}
    assert seed_mask.tolist() == [True]


def test_khop_one_hop_chain():
    g = line_graph(5)
    sub, node_map, seed_mask = khop_subgraph(g, [2], 1)
    # nodes 1,2,3; only edges INTO the seed survive (depth-1 messages)
    assert sorted(node_map) == [1, 2, 3]
    assert sub.n_edges == 2
    for s, d, _ in sub.edges:
        assert d == node_map[2]
    assert seed_mask.sum() == 1


def test_khop_two_hops_chain():
    g = line_graph(7)
    sub, node_map, _ = khop_subgraph(g, [3], 2)
    assert sorted(node_map) == [1, 2, 3, 4, 5]
    # edges into node 3 (2), and into its 1-hop neighbors 2 and 4 from
    # kept nodes (1->2, 3->2, 3->4, 5->4): 6 total
    assert sub.n_edges == 6


def test_khop_saturates_to_whole_component():
    rng = np.random.default_rng(2)
    pts = rng.random((8, 2))
    diff = pts[:, None] - pts[None, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    g = build_adjacency_gaussian(dist, gamma=0.5, delta=2.0)  # complete graph
    sub, node_map, _ = khop_subgraph(g, [0, 3], 8)
    assert sub.n_nodes == g.n_nodes
    assert sub.n_edges == g.n_edges
    assert sorted(node_map) == list(range(8))


def test_khop_validation():
    g = line_graph(3)
    with pytest.raises(ValidationError):
        khop_subgraph(g, [], 1)
    with pytest.raises(ValidationError):
        khop_subgraph(g, [0], -1)
    with pytest.raises(ValidationError):
        khop_subgraph(g, [9], 1)


def test_edge_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = [(i, j, float(rng.random() + 0.05))
             for i in range(6) for j in range(6) if i != j and rng.random() < 0.3]
    g = SensorGraph(6, edges)
    path = os.path.join(tmp_path, "edges.csv")
    save_edges_csv(path, g)
    g2 = load_edges_csv(path, 6)
    assert g2.edges == g.edges


def test_edge_csv_header_required(tmp_path):
    path = os.path.join(tmp_path, "edges.csv")
    with open(path, "w") as f:
        f.write("0,1,0.5\n")
    with pytest.raises(ValidationError):
        load_edges_csv(path, 2)


def test_distances_csv_round_trip(tmp_path):
    from graphfill.data import save_grid_csv
    rng = np.random.default_rng(4)
    pts = rng.random((5, 2))
    diff = pts[:, None] - pts[None, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    path = os.path.join(tmp_path, "dist.csv")
    save_grid_csv(path, dist)
    back = load_distances_csv(path)
    assert np.array_equal(back, dist)


def test_distances_csv_ragged_rejected(tmp_path):
    path = os.path.join(tmp_path, "dist.csv")
    with open(path, "w") as f:
        f.write("0,1.0\n1.0\n")
    with pytest.raises(ValidationError):
        load_distances_csv(path)
