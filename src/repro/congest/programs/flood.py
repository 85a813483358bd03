"""Flooding: the simplest CONGEST protocol, used for distance estimation.

A designated root floods a token through the network; every node records
the round in which the token first reached it, which equals its distance
from the root.  The maximum over nodes is the root's eccentricity.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import networkx as nx
import numpy as np

from ..batch import BIG, BatchKernel, register_batch_kernel
from ..message import bit_size
from ..network import CongestNetwork
from .tags import MSG_FLOOD
from ..node import Inbox, NodeContext, NodeProgram, Outbox
from ..xp import int_bit_length


class FloodProgram(NodeProgram):
    """Flood a token from ``config['root']``; output = hop distance.

    Nodes halt one round after forwarding, so the protocol terminates in
    ``eccentricity(root) + 2`` rounds.  Nodes unreachable from the root
    halt at the round limit with output ``None`` (the caller should size
    ``max_rounds`` accordingly).
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        self._distance: Optional[int] = None

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        """Forward the flood token once, then halt with the hop distance."""
        if self._distance is not None:
            # Token already forwarded last round; we are done.
            self.halt(self._distance)
            return self.silence()
        if round_index == 0:
            if self.ctx.node == self.ctx.config["root"]:
                self._distance = 0
                return self.broadcast((MSG_FLOOD, 0))
            return self.silence()
        arrivals = [msg for msg in inbox.values() if msg[0] == MSG_FLOOD]
        if arrivals:
            self._distance = min(dist for _tag, dist in arrivals) + 1
            return self.broadcast((MSG_FLOOD, self._distance))
        return self.silence()


class FloodBatchKernel(BatchKernel):
    """Array-state :class:`FloodProgram`: one distance lane, min-reduce.

    Mirrors the scalar step exactly: the root (dense index 0 -- each
    trial's minimum node id, as ``simulate_program`` jobs choose it)
    broadcasts in round 0; a node adopts ``min(arrived distances) + 1``
    the round the token reaches it, forwards once, and halts the round
    after.  Unreached nodes never halt, so disconnected trials run to
    their ``n + 2`` limit just like the scalar entry point.
    """

    lanes = 1
    strict = True

    def __init__(self, batch, params):  # noqa: D107
        super().__init__(batch, params)
        self.announced = batch.node_zeros(dtype=bool)
        self.dist = batch.node_full(-1)
        # Payload is (MSG_FLOOD, dist); bit_length(0) == 0, so sizing the
        # zero-distance payload yields the distance-free base cost.
        self.base_bits = bit_size((MSG_FLOOD, 0))

    def max_rounds(self):
        return self.batch.n + 2

    def step(self, round_index, live, plane):
        halt_now = live[:, None] & self.announced & ~self.halted
        self.halted = self.halted | halt_now
        if round_index == 0:
            send = np.zeros_like(self.announced)
            send[:, 0] = live
            self.dist = np.where(send, 0, self.dist)
        else:
            arrived = np.where(plane.cur_arrived, plane.cur_lanes[0], BIG)
            nearest = self.batch.reduce_min(arrived)
            send = live[:, None] & ~self.announced & (nearest < BIG)
            self.dist = np.where(send, nearest + 1, self.dist)
        self.announced = self.announced | send
        bits = self.base_bits + int_bit_length(np.maximum(self.dist, 0))
        return send, (self.dist,), bits

    def outputs(self, trial):
        topology = self.batch.topologies[trial]
        halted = self.halted[trial]
        dist = self.dist[trial]
        return {
            node: int(dist[v]) if halted[v] else None
            for v, node in enumerate(topology.nodes)
        }


register_batch_kernel("flood", FloodBatchKernel)


def flood_eccentricity(
    graph: nx.Graph,
    root: Any,
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    topology=None,
) -> Tuple[int, dict]:
    """Run :class:`FloodProgram` and return (eccentricity, distances).

    Only meaningful for graphs where every node is reachable from *root*.
    """
    network = CongestNetwork(
        graph, bandwidth_bits=bandwidth_bits, seed=seed, topology=topology
    )
    result = network.run(
        FloodProgram,
        max_rounds=network.n + 2,
        config={"root": root},
        strict_bandwidth=True,
    )
    distances = {v: d for v, d in result.outputs.items() if d is not None}
    eccentricity = max(distances.values())
    return eccentricity, distances
