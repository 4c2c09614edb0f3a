"""The message-set plans and layer-0 states as the package built them
before `spin.position_sets` and the one-scatter `init_states`.

`MessageSets`, `block_sets`, `node_steps`, `step_rows`,
`build_attention_plan`, `HubPlan` and `init_states` are kept verbatim;
only the imports differ, and `init_states` joins its row parts with
`unfused_ops.concat` and scatters them as one part. The tests check the
package's plans and states against these bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import graphfill.tensor as T
import unfused_ops as U
from graphfill.data import _as_binary
from graphfill.errors import ShapeError
from graphfill.graph import SensorGraph


@dataclass
class MessageSets:
    """One attention branch's message sets, as dense blocks.

    `blocks` holds one (keys (G, c), rows (G, Wq)) pair of intp arrays
    per distinct key count c: each of a block's Wq query rows reads the
    block's c keys, one set per (block, query row). Cross-branch blocks
    of edges with the same destination share query rows, so summing
    contexts onto them performs the neighbor sum. `n_pairs` counts the
    (key, query) pairs, sum G·Wq·c, and is the record's length.
    """
    blocks: list
    n_pairs: int

    def __len__(self) -> int:
        return self.n_pairs

    @property
    def starts(self) -> np.ndarray:
        """Each set's first pair, in the order `attention_blocks` lays out
        its weights."""
        sizes = np.repeat([keys.shape[1] for keys, _ in self.blocks],
                          [rows.size for _, rows in self.blocks]).astype(np.intp)
        return np.cumsum(sizes) - sizes


def block_sets(members, offsets, group, rows) -> MessageSets:
    """Blocks whose query rows each read one key group.

    Key group j holds members[offsets[j]:offsets[j + 1]]; the query rows
    rows[b] (a (B, Wq) array) all read group[b]. Blocks with equal group
    sizes c form one (keys (G, c), rows (G, Wq)) entry, in ascending c
    and then in the given block order; blocks whose group is empty are
    dropped (their contexts stay zero).
    """
    sizes = np.diff(offsets)[group]
    blocks = []
    for c in np.unique(sizes[sizes > 0]):
        pick = sizes == c
        keys = members[offsets[group[pick]][:, None] + np.arange(c)]
        blocks.append((keys, rows[pick]))
    return MessageSets(blocks, sum(keys.size * rows.shape[1] for keys, rows in blocks))


def node_steps(mask):
    """Key groups of each node's nonzero steps as positions τ·N + i.

    Returns (members, offsets) with node i's group at
    members[offsets[i]:offsets[i + 1]], steps ascending.
    """
    w, n = mask.shape
    flat = np.flatnonzero(mask.T)  # i·W + τ, node-major
    offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=0))))
    return (flat % w) * n + flat // w, offsets


def step_rows(dst, w, n):
    """(len(dst), W) query rows: row g holds the positions τ·N + dst[g]."""
    return dst[:, None] + np.arange(w) * n


def build_attention_plan(input_mask, graph: SensorGraph, masked: bool):
    """(self_sets, cross_sets) of one phase.

    With `masked` set, node j contributes only its observed steps as keys;
    otherwise all W steps. Queries always run over all (node, step)
    positions: the self branch has one block per node, the cross branch
    one per edge, each with the W steps of the destination as query rows.
    """
    w, n = input_mask.shape
    if graph.n_nodes != n:
        raise ShapeError(f"graph has {graph.n_nodes} nodes, window has {n}")
    keys = node_steps(input_mask if masked else np.ones((w, n), dtype=bool))
    nodes = np.arange(n)
    return (block_sets(*keys, nodes, step_rows(nodes, w, n)),
            block_sets(*keys, graph.src, step_rows(graph.dst, w, n)))


class HubPlan:
    """Every message set of one spin-h forward.

    `masked_hub` and `open_hub`: hub (i, k) reads node i's observed steps,
    or all W of them, one block per node. `read_self`: position (i, τ)
    reads node i's K hubs, one block per node. `read_cross`: it reads the
    K hubs of each in-neighbor j, one block per edge, so that edge
    contexts sum over in-neighbors. `open_hub` is built only `with_open`.
    """

    def __init__(self, input_mask, graph: SensorGraph, n_hubs, with_open):
        w, n = input_mask.shape
        nodes = np.arange(n)
        hub_ids = nodes[:, None] * n_hubs + np.arange(n_hubs)

        def hub_sets(mask):
            return block_sets(*node_steps(mask), nodes, hub_ids)

        self.masked_hub = hub_sets(input_mask)
        self.open_hub = hub_sets(np.ones((w, n), dtype=bool)) if with_open else None
        hubs = hub_ids.ravel(), np.arange(n + 1) * n_hubs
        self.read_self = block_sets(*hubs, nodes, step_rows(nodes, w, n))
        self.read_cross = block_sets(*hubs, graph.src, step_rows(graph.dst, w, n))


def init_states(params, window, graph, input_mask=None):
    """(input_mask, x_leaf, h): the input mask (default: the window's) as
    a checked bool array, the value leaf and the layer-0 states. Row
    p = τ·N + i of h is init_observed([x, q]) where it is set, else init_target(q).
    """
    values = np.asarray(window.values, dtype=np.float64)
    w, n = values.shape
    input_mask = _as_binary(window.mask if input_mask is None else input_mask,
                            "input mask")
    if input_mask.shape != (w, n):
        raise ShapeError(
            f"input mask shape {input_mask.shape} != window shape {(w, n)}")
    if graph.n_nodes != n:
        raise ShapeError(f"graph has {graph.n_nodes} nodes, window has {n}")
    x_leaf = T.Value(values.reshape(w * n, 1), requires_grad=True)
    q_flat = params.encoding.codes_flat(window.step_offsets, n, window.nodes)
    obs_pos = np.flatnonzero(input_mask)
    targ_pos = np.flatnonzero(~input_mask)
    h_obs = params.init_observed(T.gather_rows(x_leaf, obs_pos),
                                 T.gather_rows(q_flat, obs_pos))
    h_targ = params.init_target(T.gather_rows(q_flat, targ_pos))
    h = T.scatter_rows([U.concat([h_obs, h_targ], axis=0)],
                       [np.concatenate([obs_pos, targ_pos])], w * n)
    return input_mask, x_leaf, h
