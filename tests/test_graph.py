"""Sensor-graph construction, kernel adjacency, and k-hop restriction."""

import csv
import os

import numpy as np
import pytest

from graphfill.data import load_grid_csv
from graphfill.errors import KernelError, ShapeError, ValidationError
from graphfill.graph import (SensorGraph, build_adjacency_gaussian,
                             khop_subgraph, load_edges_csv)


def save_edges_csv(path, graph: SensorGraph):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["src", "dst", "weight"])
        for s, d, w in zip(graph.src, graph.dst, graph.weight):
            writer.writerow([int(s), int(d), repr(float(w))])


def edge_list(graph):
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist()))


def line_graph(n, w=1.0):
    """0 <-> 1 <-> 2 ... bidirectional chain."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, w))
        edges.append((i + 1, i, w))
    return SensorGraph(n, edges)


def test_edges_sorted_by_destination_then_source():
    g = SensorGraph(4, [(3, 0, 1.0), (1, 0, 2.0), (0, 2, 0.5), (2, 1, 1.5)])
    assert edge_list(g) == [(1, 0, 2.0), (3, 0, 1.0), (2, 1, 1.5), (0, 2, 0.5)]
    assert g.src[g.dst == 0].tolist() == [1, 3]  # in-neighbors, ascending
    assert g.weight[g.dst == 0].tolist() == [2.0, 1.0]
    assert g.src[g.dst == 3].tolist() == []
    assert g.src[g.dst == 1].tolist() == [2]


def test_in_edge_slices_partition_edge_array():
    rng = np.random.default_rng(0)
    n = 7
    edges = [(i, j, float(rng.random() + 0.1))
             for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.4]
    g = SensorGraph(n, edges)
    starts = np.searchsorted(g.dst, np.arange(n + 1))  # node i: starts[i]:starts[i+1]
    from_slices = [(j, i, w) for i in range(n)
                   for j, w in zip(g.src[starts[i]:starts[i + 1]].tolist(),
                                   g.weight[starts[i]:starts[i + 1]].tolist())]
    assert from_slices == edge_list(g)
    assert edge_list(g) == sorted(edges, key=lambda e: (e[1], e[0]))
    assert edge_list(SensorGraph(n, np.array(edges[::-1]))) == edge_list(g)


def test_validation_errors():
    with pytest.raises(ValidationError):
        SensorGraph(0, [])
    with pytest.raises(ValidationError, match=r"^edge \(0,3\) references a missing node$"):
        SensorGraph(3, [(0, 3, 1.0)])
    with pytest.raises(ValidationError, match="^self-loop on node 1 is not allowed$"):
        SensorGraph(3, [(1, 1, 1.0)])
    with pytest.raises(ValidationError, match=r"^edge \(0,1\) has non-finite weight nan$"):
        SensorGraph(3, [(0, 1, np.nan)])
    with pytest.raises(ValidationError, match=r"^edge \(0,1\) has non-positive weight 0.0$"):
        SensorGraph(3, [(0, 1, 0.0)])
    with pytest.raises(ValidationError, match="^duplicate edges are not allowed$"):
        SensorGraph(3, [(0, 1, 1.0), (2, 1, 1.0), (0, 1, 2.0)])


def test_first_bad_edge_and_its_first_failing_check_are_named():
    # edge (2,2) fails two checks; edge (0,5) comes first in the list
    with pytest.raises(ValidationError, match=r"^edge \(0,5\) references"):
        SensorGraph(3, [(1, 0, 1.0), (0, 5, -1.0), (2, 2, -1.0)])
    with pytest.raises(ValidationError, match="^self-loop on node 2 "):
        SensorGraph(3, [(1, 0, 1.0), (2, 2, -1.0), (0, 5, 1.0)])


def test_gaussian_kernel_adjacency():
    dist = np.array([[0.0, 1.0, 3.0],
                     [1.0, 0.0, 1.5],
                     [3.0, 1.5, 0.0]])
    g = build_adjacency_gaussian(dist, gamma=2.0, delta=2.0)
    # pairs within delta: (0,1) both ways, (1,2) both ways; (0,2) is out
    assert g.n_edges == 4
    w01 = dict(((s, d), w) for s, d, w in edge_list(g))
    assert abs(w01[(0, 1)] - np.exp(-1.0 / 2.0)) < 1e-15
    assert abs(w01[(1, 2)] - np.exp(-(1.5 ** 2) / 2.0)) < 1e-15
    assert (0, 0) not in w01  # no diagonal edge even though d=0 <= delta


def test_gaussian_kernel_validation():
    with pytest.raises(ShapeError):
        build_adjacency_gaussian(np.zeros((2, 3)), 1.0, 1.0)
    with pytest.raises(ValidationError):
        build_adjacency_gaussian(np.zeros((3, 3)), 0.0, 1.0)
    bad = np.zeros((2, 2))
    bad[0, 1] = -1.0
    with pytest.raises(ValidationError, match=r"non-negative, got -1 at \(0,1\)$"):
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
    for s, d, w in edge_list(g):
        assert abs(w - np.exp(-dist[s, d] ** 2 / 0.1)) < 1e-15
        assert 0.0 < w <= 1.0


def test_gaussian_weight_underflow_names_gamma_and_edge():
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(KernelError, match=r"gamma 0\.001 underflows .* edge \(0,1\)"):
        build_adjacency_gaussian(dist, gamma=0.001, delta=1.5)
    with pytest.raises(KernelError, match="gamma must be > 0"):
        build_adjacency_gaussian(dist, gamma=0.0, delta=1.5)


def test_nan_distance_is_rejected_and_named():
    dist = np.array([[0.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValidationError, match=r"non-negative, got nan at \(0,1\)$"):
        build_adjacency_gaussian(dist, 1.0, 2.0)


def test_khop_zero_keeps_seeds_only():
    g = line_graph(5)
    sub, kept, seed_mask = khop_subgraph(g, [2], 0)
    assert sub.n_nodes == 1
    assert sub.n_edges == 0
    assert kept.tolist() == [2]
    assert seed_mask.tolist() == [True]


def test_khop_one_hop_chain():
    g = line_graph(5)
    sub, kept, seed_mask = khop_subgraph(g, [2], 1)
    # nodes 1,2,3; only edges INTO the seed survive (depth-1 messages)
    assert kept.tolist() == [1, 2, 3]
    assert sub.n_edges == 2
    assert kept[sub.src].tolist() == [1, 3]
    assert np.all(kept[sub.dst] == 2)
    assert seed_mask.sum() == 1


def test_khop_two_hops_chain():
    g = line_graph(7)
    sub, kept, _ = khop_subgraph(g, [3], 2)
    assert kept.tolist() == [1, 2, 3, 4, 5]
    # edges into node 3 (2), and into its 1-hop neighbors 2 and 4 from
    # kept nodes (1->2, 3->2, 3->4, 5->4): 6 total
    assert sub.n_edges == 6
    assert list(zip(kept[sub.src].tolist(), kept[sub.dst].tolist())) == [
        (1, 2), (3, 2), (2, 3), (4, 3), (3, 4), (5, 4)]


def test_khop_saturates_to_whole_component():
    rng = np.random.default_rng(2)
    pts = rng.random((8, 2))
    diff = pts[:, None] - pts[None, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    g = build_adjacency_gaussian(dist, gamma=0.5, delta=2.0)  # complete graph
    sub, kept, _ = khop_subgraph(g, [0, 3], 8)
    assert sub.n_nodes == g.n_nodes
    assert sub.n_edges == g.n_edges
    assert kept.tolist() == list(range(8))


def test_khop_validation():
    g = line_graph(3)
    with pytest.raises(ValidationError):
        khop_subgraph(g, [], 1)
    with pytest.raises(ValidationError):
        khop_subgraph(g, [0], -1)
    with pytest.raises(ValidationError, match=r"^node index 9 out of range \[0, 3\)$"):
        khop_subgraph(g, [9], 1)


def test_edge_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = [(i, j, float(rng.random() + 0.05))
             for i in range(6) for j in range(6) if i != j and rng.random() < 0.3]
    g = SensorGraph(6, edges)
    path = os.path.join(tmp_path, "edges.csv")
    save_edges_csv(path, g)
    g2 = load_edges_csv(path, 6)
    assert edge_list(g2) == edge_list(g)


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
    back = load_grid_csv(path)
    assert np.array_equal(back, dist)


def test_distances_csv_ragged_rejected(tmp_path):
    path = os.path.join(tmp_path, "dist.csv")
    with open(path, "w") as f:
        f.write("0,1.0\n1.0\n")
    with pytest.raises(ValidationError):
        load_grid_csv(path)
