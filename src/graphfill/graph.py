"""Weighted directed sensor graphs.

Edges point from sender to receiver: an edge (j, i, w) means node j sends
messages to node i, so the neighborhood N(i) used by attention is the set
of in-neighbors of i. Self-loops are excluded; a node's own history is
handled by a separate per-node branch in the model, so a self-loop would
duplicate it.

Edges are stored sorted by (dst, src), and every aggregation sums in a
fixed order, which keeps floating-point summation reproducible. The
attention contexts of a node's in-edges are summed onto its query rows
in block order: by the source's key count (its observed steps in a
masked spin layer; one count in an open layer and in spin-h's hub
reads), then by (dst, src) within a count.
"""

from __future__ import annotations

import csv
from collections import deque

import numpy as np

from .data import cell_error
from .data import load_grid_csv as load_distances_csv  # the N×N distance reader
from .errors import KernelError, ShapeError, ValidationError


class SensorGraph:
    """Immutable weighted directed graph over sensor nodes 0..N-1."""

    def __init__(self, n_nodes: int, edges, distances=None):
        if n_nodes <= 0:
            raise ValidationError(f"graph needs at least one node, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        edges = [(int(s), int(d), float(w)) for s, d, w in edges]
        for s, d, w in edges:
            if not (0 <= s < n_nodes and 0 <= d < n_nodes):
                raise ValidationError(f"edge ({s},{d}) references a missing node")
            if s == d:
                raise ValidationError(f"self-loop on node {s} is not allowed")
            if not np.isfinite(w):
                raise ValidationError(f"edge ({s},{d}) has non-finite weight {w}")
            if w <= 0.0:
                raise ValidationError(f"edge ({s},{d}) has non-positive weight {w}")
        if len({(s, d) for s, d, _ in edges}) != len(edges):
            raise ValidationError("duplicate edges are not allowed")
        edges.sort(key=lambda e: (e[1], e[0]))
        self.src = np.array([s for s, _, _ in edges], dtype=np.intp)
        self.dst = np.array([d for _, d, _ in edges], dtype=np.intp)
        self.weight = np.array([w for _, _, w in edges], dtype=np.float64)
        self.distances = None
        if distances is not None:
            self.distances = np.asarray(distances, dtype=np.float64)
        # edges are sorted by dst, so each node's in-edges form one slice
        self._in_start = np.searchsorted(self.dst, np.arange(n_nodes + 1))

    @property
    def n_edges(self) -> int:
        return len(self.src)

    @property
    def edges(self):
        return list(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    def in_edge_slice(self, i: int) -> slice:
        self._check_node(i)
        return slice(self._in_start[i], self._in_start[i + 1])

    def in_neighbors(self, i: int):
        """All (j, weight) with an edge j -> i, ascending by j."""
        sl = self.in_edge_slice(i)
        return list(zip(self.src[sl].tolist(), self.weight[sl].tolist()))

    def _check_node(self, i):
        if not (0 <= i < self.n_nodes):
            raise ValidationError(f"node index {i} out of range [0, {self.n_nodes})")


def build_adjacency_gaussian(distances, gamma: float, delta: float) -> SensorGraph:
    """Gaussian-kernel adjacency: weight exp(-d^2/gamma) where d <= delta.

    The distance matrix must be square, non-negative, with a zero
    diagonal; the diagonal never produces an edge. A gamma that is not
    positive, or so small that an edge's weight underflows to 0, raises
    KernelError.
    """
    dist = np.asarray(distances, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ShapeError(f"distance matrix must be square, got shape {dist.shape}")
    if gamma <= 0.0:
        raise KernelError(f"kernel shape parameter gamma must be > 0, got {gamma}")
    if np.any(dist < 0.0):
        raise ValidationError("distances must be non-negative")
    if np.any(np.diag(dist) != 0.0):
        raise ValidationError("distance matrix diagonal must be zero")
    n = dist.shape[0]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and dist[i, j] <= delta:
                weight = float(np.exp(-dist[i, j] ** 2 / gamma))
                if weight == 0.0:
                    raise KernelError(
                        f"gamma {gamma} underflows the weight exp(-d^2/gamma) "
                        f"of edge ({i},{j}) at distance {dist[i, j]:g} to 0")
                edges.append((i, j, weight))
    return SensorGraph(n, edges, distances=dist)


def khop_subgraph(graph: SensorGraph, seeds, k: int):
    """Restrict the graph to what can influence `seeds` within k hops.

    Nodes: everything within k reverse-edge hops of a seed. Edges: those
    whose destination lies within k-1 hops, since a message crossing any
    other edge cannot reach a seed in k propagation steps (with k=0 the
    subgraph is the bare seed set). Returns (subgraph, node_map,
    seed_mask) where node_map maps old node index -> new node index and
    seed_mask flags the seed rows of the subgraph, in new numbering.
    """
    seeds = sorted(set(int(s) for s in seeds))
    if not seeds:
        raise ValidationError("seed set must be non-empty")
    if k < 0:
        raise ValidationError(f"hop count must be >= 0, got {k}")
    for s in seeds:
        graph._check_node(s)

    hop = {s: 0 for s in seeds}
    frontier = deque(seeds)
    while frontier:
        i = frontier.popleft()
        if hop[i] == k:
            continue
        for j, _ in graph.in_neighbors(i):
            if j not in hop:
                hop[j] = hop[i] + 1
                frontier.append(j)

    kept = sorted(hop)
    node_map = {old: new for new, old in enumerate(kept)}
    edges = [(node_map[s], node_map[d], w)
             for s, d, w in zip(graph.src, graph.dst, graph.weight)
             if d in hop and hop[d] <= k - 1 and s in hop]
    sub = SensorGraph(len(kept), edges)
    seed_mask = np.zeros(len(kept), dtype=bool)
    for s in seeds:
        seed_mask[node_map[s]] = True
    return sub, node_map, seed_mask


def load_edges_csv(path, n_nodes: int) -> SensorGraph:
    """Read an edge list with header src,dst,weight (0-based node ids)."""
    edges = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["src", "dst", "weight"]:
            raise ValidationError(
                f"edge file {path} must start with header 'src,dst,weight'")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValidationError(
                    f"{path}: row {reader.line_num} has {len(row)} cells, expected 3")
            try:
                edges.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError:
                raise cell_error(path, reader.line_num, row, lambda cell, col: (
                    int(cell) if col < 3 else float(cell))) from None
    try:
        return SensorGraph(n_nodes, edges)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
