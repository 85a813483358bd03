"""Distributed BFS-tree construction (paper Section 2.2.1).

The root sends ``(root, 0)``; a node adopts as parent the minimum-id
neighbor among those whose message arrived in the earliest round, then
forwards ``(root, depth)``.  This is exactly the preprocessing step Stage
II uses to build the per-part BFS trees ``T_B``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import networkx as nx
import numpy as np

from ..batch import BIG, BatchKernel, register_batch_kernel
from ..message import bit_size
from ..network import CongestNetwork
from .tags import MSG_BFS
from ..node import Inbox, NodeContext, NodeProgram, Outbox
from ..xp import int_bit_length


class BFSTreeProgram(NodeProgram):
    """Build a BFS tree rooted at ``config['root']``.

    Output per node: ``(parent, depth)`` with ``parent is None`` for the
    root; nodes never reached halt with output ``None`` when the round
    limit expires.
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        self._parent: Optional[Any] = None
        self._depth: Optional[int] = None
        self._announced = False

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        """Adopt the min-id earliest announcer as parent, then announce."""
        if self._announced:
            self.halt((self._parent, self._depth))
            return self.silence()
        if round_index == 0 and self.ctx.node == self.ctx.config["root"]:
            self._depth = 0
            self._announced = True
            return self.broadcast((MSG_BFS, 0))
        if self._depth is None and inbox:
            offers = sorted(
                (msg[1], sender) for sender, msg in inbox.items() if msg[0] == MSG_BFS
            )
            if offers:
                depth, parent = offers[0]
                self._parent = parent
                self._depth = depth + 1
                self._announced = True
                return self.broadcast((MSG_BFS, self._depth))
        return self.silence()


class BFSBatchKernel(BatchKernel):
    """Array-state :class:`BFSTreeProgram`: depth lane + sender min-reduce.

    All of a node's first-round arrivals carry the same depth (BFS
    invariant: only depth ``d-1`` neighbors have announced when the
    token reaches depth ``d``), so the scalar's ``sorted((depth,
    sender))[0]`` collapses to two independent min-reductions -- the
    arrived depth lane and the static sender table.  Dense indices
    follow ``id_key`` order (numeric for int ids), so the minimum dense
    index *is* the minimum-id parent.  Root is dense index 0 (minimum node id).
    """

    lanes = 1
    strict = True

    def __init__(self, batch, params):  # noqa: D107
        super().__init__(batch, params)
        self.announced = batch.node_zeros(dtype=bool)
        self.depth = batch.node_full(-1)
        self.parent = batch.node_full(-1)
        self.base_bits = bit_size((MSG_BFS, 0))

    def max_rounds(self):
        return self.batch.n + 2

    def step(self, round_index, live, plane):
        batch = self.batch
        halt_now = live[:, None] & self.announced & ~self.halted
        self.halted = self.halted | halt_now
        if round_index == 0:
            send = np.zeros_like(self.announced)
            send[:, 0] = live
            self.depth = np.where(send, 0, self.depth)
        else:
            depths = np.where(plane.cur_arrived, plane.cur_lanes[0], BIG)
            nearest = batch.reduce_min(depths)
            senders = np.where(plane.cur_arrived, batch.sender, BIG)
            min_sender = batch.reduce_min(senders)
            send = live[:, None] & ~self.announced & (nearest < BIG)
            self.depth = np.where(send, nearest + 1, self.depth)
            self.parent = np.where(send, min_sender, self.parent)
        self.announced = self.announced | send
        bits = self.base_bits + int_bit_length(np.maximum(self.depth, 0))
        return send, (self.depth,), bits

    def outputs(self, trial):
        topology = self.batch.topologies[trial]
        nodes = topology.nodes
        halted = self.halted[trial]
        depth = self.depth[trial]
        parent = self.parent[trial]
        out = {}
        for v, node in enumerate(nodes):
            if not halted[v]:
                out[node] = None
                continue
            p = int(parent[v])
            out[node] = (nodes[p] if p >= 0 else None, int(depth[v]))
        return out


register_batch_kernel("bfs", BFSBatchKernel)


def bfs_tree(
    graph: nx.Graph,
    root: Any,
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    topology=None,
) -> Tuple[Dict[Any, Any], Dict[Any, int], int]:
    """Run :class:`BFSTreeProgram`; return (parents, depths, rounds).

    ``parents`` maps each reached non-root node to its BFS parent;
    ``depths`` maps each reached node to its BFS depth.  *topology*
    passes through to :class:`CongestNetwork` (the protocol is
    deterministic, so *seed* only pins the per-node RNG streams).
    """
    network = CongestNetwork(
        graph, bandwidth_bits=bandwidth_bits, seed=seed, topology=topology
    )
    result = network.run(
        BFSTreeProgram,
        max_rounds=network.n + 2,
        config={"root": root},
        strict_bandwidth=True,
    )
    parents: Dict[Any, Any] = {}
    depths: Dict[Any, int] = {}
    for node, out in result.outputs.items():
        if out is None:
            continue
        parent, depth = out
        depths[node] = depth
        if parent is not None:
            parents[node] = parent
    return parents, depths, result.rounds
