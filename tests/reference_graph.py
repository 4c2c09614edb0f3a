"""The sensor graph as it stood before it became its edge arrays.

`graphfill.graph` now checks, sorts and restricts the `src`, `dst` and
`weight` arrays with array operations, and `graphfill.train.baseline_knn`
is one product with a dense weight matrix. These are the per-edge loops
they replaced, kept so that tests can check that every edge list and
distance matrix builds the same graph, or is rejected with the same
message, as before.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from graphfill.data import SpatioTemporalWindow
from graphfill.errors import KernelError, ShapeError, ValidationError


class SensorGraph:
    """Immutable weighted directed graph over sensor nodes 0..N-1."""

    def __init__(self, n_nodes: int, edges):
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
        # edges are sorted by dst, so each node's in-edges form one slice
        self._in_start = np.searchsorted(self.dst, np.arange(n_nodes + 1))

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def in_neighbors(self, i: int):
        """All (j, weight) with an edge j -> i, ascending by j."""
        self._check_node(i)
        sl = slice(self._in_start[i], self._in_start[i + 1])
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
    return SensorGraph(n, edges)


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


def baseline_knn(window: SpatioTemporalWindow, graph: SensorGraph, node_means):
    """Fill missing entries with the weighted mean of same-step neighbors.

    Weights are the incoming edge weights; entries with no valid neighbor
    at that step fall back to the node mean.
    """
    filled = np.array(window.values, dtype=np.float64, copy=True)
    mask = window.mask
    for i in range(window.n_nodes):
        missing = np.flatnonzero(mask[:, i] == 0)
        if len(missing) == 0:
            continue
        neighbors = graph.in_neighbors(i)
        if neighbors:
            js = np.array([j for j, _ in neighbors], dtype=np.intp)
            ws = np.array([wt for _, wt in neighbors])
            nb_mask = mask[:, js][missing] == 1  # (n_missing, n_neighbors)
            nb_vals = np.where(nb_mask, window.values[:, js][missing], 0.0)
            denom = nb_mask @ ws
            numer = nb_vals @ ws
            covered = denom > 0.0
            filled[missing, i] = np.where(covered,
                                          numer / np.maximum(denom, 1e-300),
                                          node_means[i])
        else:
            filled[missing, i] = node_means[i]
    return filled
