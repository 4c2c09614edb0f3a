"""Weighted directed sensor graphs, held as three sorted edge arrays.

Edges point from sender to receiver: an edge (j, i, w) means node j sends
messages to node i, so the neighborhood N(i) used by attention is the set
of in-neighbors of i. Self-loops are excluded; a node's own history is
handled by a separate per-node branch in the model, so a self-loop would
duplicate it.

A graph is its `src`, `dst` and `weight` arrays, sorted by (dst, src);
every function here builds, checks and restricts them with array
operations, and the model reads only `src` and `dst`. Every aggregation
sums in a fixed order, which keeps floating-point summation reproducible.
The attention contexts of a node's in-edges are summed onto its query
rows in block order: by the source's key count (its observed steps in a
masked spin layer; one count in an open layer and in spin-h's hub
reads), then by (dst, src) within a count.
"""

from __future__ import annotations

import numpy as np

from .data import read_csv
from .errors import KernelError, ShapeError, ValidationError


class SensorGraph:
    """Immutable weighted directed graph over sensor nodes 0..N-1.

    `edges` holds (src, dst, weight) rows: a sequence of triples or an
    (E, 3) array; a fractional node id is truncated, as int() does. A bad
    edge raises ValidationError naming the first one, in the order given,
    and its first failing check.
    """

    def __init__(self, n_nodes: int, edges):
        if n_nodes <= 0:
            raise ValidationError(f"graph needs at least one node, got {n_nodes}")
        self.n_nodes = n = int(n_nodes)
        table = np.asarray(edges, dtype=np.float64).reshape(len(edges), 3)
        ids, weight = np.trunc(table[:, :2]), table[:, 2]
        faults = np.column_stack((~np.all((ids >= 0) & (ids < n), axis=1),
                                  ids[:, 0] == ids[:, 1], ~np.isfinite(weight),
                                  weight <= 0.0))
        if faults.any():
            k, check = np.argwhere(faults)[0]
            s, d, w = int(ids[k, 0]), int(ids[k, 1]), float(weight[k])
            raise ValidationError((
                f"edge ({s},{d}) references a missing node",
                f"self-loop on node {s} is not allowed",
                f"edge ({s},{d}) has non-finite weight {w}",
                f"edge ({s},{d}) has non-positive weight {w}")[check])
        src, dst = ids[:, 0].astype(np.intp), ids[:, 1].astype(np.intp)
        order = np.lexsort((src, dst))
        self.src, self.dst, self.weight = src[order], dst[order], weight[order]
        if np.any((np.diff(self.src) == 0) & (np.diff(self.dst) == 0)):
            raise ValidationError("duplicate edges are not allowed")

    @property
    def n_edges(self) -> int:
        return len(self.src)


def build_adjacency_gaussian(distances, gamma: float, delta: float) -> SensorGraph:
    """Gaussian-kernel adjacency: weight exp(-d^2/gamma) where d <= delta.

    The distance matrix must be square, non-negative (a NaN entry is
    named like a negative one), with a zero diagonal; the diagonal never
    produces an edge. Edge (i, j) has distance d[i, j]. A gamma that is
    not positive, or so small that an edge's weight underflows to 0,
    raises KernelError.
    """
    dist = np.asarray(distances, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ShapeError(f"distance matrix must be square, got shape {dist.shape}")
    if gamma <= 0.0:
        raise KernelError(f"kernel shape parameter gamma must be > 0, got {gamma}")
    negative = ~(dist >= 0.0)  # NaN too
    if negative.any():
        i, j = np.argwhere(negative)[0]
        raise ValidationError(
            f"distances must be non-negative, got {dist[i, j]:g} at ({i},{j})")
    if np.any(np.diag(dist) != 0.0):
        raise ValidationError("distance matrix diagonal must be zero")
    n = dist.shape[0]
    src, dst = np.nonzero((dist <= delta) & ~np.eye(n, dtype=bool))
    weight = np.exp(-dist[src, dst] ** 2 / gamma)
    if np.any(weight == 0.0):
        k = np.flatnonzero(weight == 0.0)[0]
        raise KernelError(
            f"gamma {gamma} underflows the weight exp(-d^2/gamma) of edge "
            f"({src[k]},{dst[k]}) at distance {dist[src[k], dst[k]]:g} to 0")
    return SensorGraph(n, np.column_stack((src, dst, weight)))


def khop_subgraph(graph: SensorGraph, seeds, k: int):
    """Restrict the graph to what can influence `seeds` within k hops.

    Nodes: everything within k reverse-edge hops of a seed. Edges: those
    whose destination lies within k-1 hops, since a message crossing any
    other edge cannot reach a seed in k propagation steps (with k=0 the
    subgraph is the bare seed set); their sources lie within k hops.
    Returns (subgraph, kept, seed_mask): kept holds the old ids of the
    subgraph's nodes, ascending, so new id m is old id kept[m], and
    seed_mask flags the seed rows of the subgraph, in new numbering.
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.intp))
    if seeds.size == 0:
        raise ValidationError("seed set must be non-empty")
    if k < 0:
        raise ValidationError(f"hop count must be >= 0, got {k}")
    outside = seeds[(seeds < 0) | (seeds >= graph.n_nodes)]
    if outside.size:
        raise ValidationError(f"node index {outside[0]} out of range "
                              f"[0, {graph.n_nodes})")
    hop = np.full(graph.n_nodes, -1)  # -1: farther than k hops
    hop[seeds] = 0
    for d in range(k):
        senders = graph.src[hop[graph.dst] == d]
        hop[senders[hop[senders] < 0]] = d + 1
    kept = np.flatnonzero(hop >= 0)
    new_id = np.cumsum(hop >= 0) - 1
    inner = (hop[graph.dst] >= 0) & (hop[graph.dst] < k)
    sub = SensorGraph(len(kept), np.column_stack((
        new_id[graph.src[inner]], new_id[graph.dst[inner]], graph.weight[inner])))
    return sub, kept, hop[kept] == 0


def load_edges_csv(path, n_nodes: int) -> SensorGraph:
    """Read an edge list with header src,dst,weight (0-based node ids)."""
    _, edges, _ = read_csv(path, (int, int, float), header=("src", "dst", "weight"))
    try:
        return SensorGraph(n_nodes, edges)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
