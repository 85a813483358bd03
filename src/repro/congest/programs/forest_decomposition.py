"""Barenboim-Elkin forest decomposition as a real CONGEST protocol.

Paper Section 2.1.1: all nodes start *active*; in each of ``s = Θ(log n)``
rounds, an active node with at most ``3*alpha`` active neighbors announces
that it becomes inactive in the next round.  If the graph has arboricity
at most ``alpha``, a constant fraction of active nodes deactivates per
round (the active subgraph has average degree at most ``2*alpha``), so all
nodes are inactive after ``s`` rounds.  A node still active after ``s``
rounds is *evidence* that the arboricity exceeds ``alpha``.

On success the deactivation schedule defines an acyclic orientation with
out-degree at most ``3*alpha``: orient ``{u, v}`` from the earlier
deactivated endpoint to the later one, breaking ties toward the larger id.
Grouping each node's out-edges yields at most ``3*alpha`` forests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import networkx as nx
import numpy as np

from ..batch import BatchKernel, register_batch_kernel
from ..message import bit_size
from ..network import CongestNetwork
from .tags import MSG_ACTIVE, MSG_INACTIVE
from ..node import Inbox, NodeContext, NodeProgram, Outbox


def barenboim_elkin_round_budget(n: int) -> int:
    """Number of deactivation super-rounds that guarantees success.

    With arboricity <= alpha, at least a third of the active nodes
    deactivate per round (degree threshold 3*alpha versus average active
    degree <= 2*alpha), so ``log_{3/2}(n) + 1`` rounds always suffice.
    """
    if n <= 1:
        return 1
    return int(math.ceil(math.log(n) / math.log(1.5))) + 1


class BarenboimElkinProgram(NodeProgram):
    """Forest decomposition via deactivation (config: ``alpha``, ``budget``).

    Output per node: a dict with keys

    * ``active``: True when the node never deactivated (rejection evidence),
    * ``inactive_round``: the super-round at which it deactivated (or None),
    * ``out_neighbors``: the oriented out-edges (empty if still active).
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        self._active = True
        self._inactive_round: Optional[int] = None
        self._neighbor_inactive_round: Dict[Any, Optional[int]] = {
            v: None for v in ctx.neighbors
        }
        self._alpha = int(ctx.config["alpha"])
        self._budget = int(ctx.config["budget"])

    def _record(self, inbox: Inbox) -> None:
        for sender, msg in inbox.items():
            tag = msg[0]
            if tag == MSG_INACTIVE:
                self._neighbor_inactive_round[sender] = msg[1]

    def _active_neighbor_count(self) -> int:
        return sum(
            1 for r in self._neighbor_inactive_round.values() if r is None
        )

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        """One deactivation super-round: count active neighbors, decide."""
        self._record(inbox)
        if round_index == 0:
            # Initial status exchange; everyone starts active.
            return self.broadcast((MSG_ACTIVE,))
        super_round = round_index  # super-round ell = round index (1-based)
        if super_round > self._budget:
            self._finish()
            return self.silence()
        if self._active:
            if self._active_neighbor_count() <= 3 * self._alpha:
                self._active = False
                self._inactive_round = super_round
                return self.broadcast((MSG_INACTIVE, super_round))
            return self.broadcast((MSG_ACTIVE,))
        # Inactive nodes stay silent but keep listening so they learn when
        # each remaining neighbor deactivates (needed for orientation).
        return self.silence()

    def _finish(self) -> None:
        if self._active:
            self.halt({"active": True, "inactive_round": None, "out_neighbors": ()})
            return
        mine = self._inactive_round
        out = []
        for v, theirs in self._neighbor_inactive_round.items():
            if theirs is None:  # neighbor never deactivated: deactivates "later"
                out.append(v)
            elif theirs > mine or (theirs == mine and v > self.ctx.node):
                out.append(v)
        self.halt(
            {
                "active": False,
                "inactive_round": mine,
                "out_neighbors": tuple(sorted(out)),
            }
        )


class ForestBatchKernel(BatchKernel):
    """Array-state :class:`BarenboimElkinProgram`: tag + round lanes.

    Per-slot ``neighbor_inactive_round`` state (``-1`` for "still
    active") is refreshed from arrivals at the top of every step --
    exactly where the scalar's ``_record`` runs -- so the final
    orientation sees deactivations announced in the last super-round.
    Each trial uses its own ``barenboim_elkin_round_budget(n)``, like
    ``simulate_program`` jobs do; all nodes finish (halt) together in
    round ``budget + 1``.
    """

    lanes = 2  # lane 0: message tag, lane 1: deactivation super-round
    strict = True

    def __init__(self, batch, params):  # noqa: D107
        super().__init__(batch, params)
        self.alpha = int(params.get("alpha", 3))
        self.budget = np.array(
            [barenboim_elkin_round_budget(int(n)) for n in batch.n],
            dtype=np.int64,
        )
        self.active = batch.node_mask.copy()
        self.inactive_round = batch.node_full(-1)
        # Per-slot view of each node's neighbor deactivation rounds.
        self.neighbor_inactive = np.full(
            (batch.B, batch.slots_alloc), -1, dtype=np.int64
        )
        self.active_bits = bit_size((MSG_ACTIVE,))
        self.inactive_base = bit_size((MSG_INACTIVE, 0))

    def max_rounds(self):
        return self.budget + 3

    def step(self, round_index, live, plane):
        batch = self.batch
        # Record phase (scalar `_record`): fold last round's INACTIVE
        # announcements into the per-slot neighbor table first.
        announced = plane.cur_arrived & (plane.cur_lanes[0] == MSG_INACTIVE)
        self.neighbor_inactive = np.where(
            announced, plane.cur_lanes[1], self.neighbor_inactive
        )
        if round_index == 0:
            # Initial status exchange; everyone starts active.
            send = live[:, None] & batch.node_mask
            return (
                send,
                (batch.node_full(MSG_ACTIVE), batch.node_zeros()),
                batch.node_full(self.active_bits),
            )
        finishing = live & (round_index > self.budget)
        if bool(finishing.any()):
            halt_now = finishing[:, None] & batch.node_mask & ~self.halted
            self.halted = self.halted | halt_now
        deciding = live & (round_index <= self.budget)
        inactive_count = batch.reduce_sum(
            (self.neighbor_inactive != -1).astype(np.int64)
        )
        active_neighbors = batch.degrees - inactive_count
        eligible = deciding[:, None] & self.active & batch.node_mask
        deact = eligible & (active_neighbors <= 3 * self.alpha)
        stay = eligible & ~deact
        self.active = self.active & ~deact
        self.inactive_round = np.where(deact, round_index, self.inactive_round)
        send = deact | stay
        tag = np.where(deact, MSG_INACTIVE, MSG_ACTIVE)
        ell = np.where(deact, round_index, 0)
        bits = np.where(
            deact,
            self.inactive_base + int(round_index).bit_length(),
            self.active_bits,
        )
        return send, (tag, ell), bits

    def outputs(self, trial):
        topology = self.batch.topologies[trial]
        nodes = topology.nodes
        arrays = topology.batch_arrays()
        halted = self.halted[trial]
        active = self.active[trial]
        inactive_round = self.inactive_round[trial]
        neighbor_inactive = self.neighbor_inactive[trial]
        out = {}
        for v, node in enumerate(nodes):
            if not halted[v]:
                out[node] = None
                continue
            if active[v]:
                out[node] = {
                    "active": True,
                    "inactive_round": None,
                    "out_neighbors": (),
                }
                continue
            mine = int(inactive_round[v])
            oriented = []
            for slot in range(arrays.indptr[v], arrays.indptr[v + 1]):
                w = int(arrays.indices[slot])
                theirs = int(neighbor_inactive[slot])
                if theirs == -1 or theirs > mine or (theirs == mine and w > v):
                    oriented.append(nodes[w])
            out[node] = {
                "active": False,
                "inactive_round": mine,
                "out_neighbors": tuple(sorted(oriented)),
            }
        return out


register_batch_kernel("forest", ForestBatchKernel)


@dataclass
class SimulatedForestDecomposition:
    """Result of :func:`run_forest_decomposition_simulated`."""

    success: bool
    inactive_round: Dict[Any, Optional[int]]
    out_neighbors: Dict[Any, Tuple[Any, ...]]
    rejecting_nodes: Tuple[Any, ...]
    rounds: int

    def orientation_edges(self):
        """Yield oriented edges (u, v) with u -> v."""
        for u, outs in self.out_neighbors.items():
            for v in outs:
                yield (u, v)


def run_forest_decomposition_simulated(
    graph: nx.Graph,
    alpha: int = 3,
    budget: Optional[int] = None,
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    topology=None,
) -> SimulatedForestDecomposition:
    """Run :class:`BarenboimElkinProgram` on *graph*."""
    n = graph.number_of_nodes()
    budget = budget if budget is not None else barenboim_elkin_round_budget(n)
    network = CongestNetwork(
        graph, bandwidth_bits=bandwidth_bits, seed=seed, topology=topology
    )
    result = network.run(
        BarenboimElkinProgram,
        max_rounds=budget + 3,
        config={"alpha": alpha, "budget": budget},
        strict_bandwidth=True,
    )
    inactive_round = {}
    out_neighbors = {}
    rejecting = []
    for node, out in result.outputs.items():
        inactive_round[node] = out["inactive_round"]
        out_neighbors[node] = out["out_neighbors"]
        if out["active"]:
            rejecting.append(node)
    return SimulatedForestDecomposition(
        success=not rejecting,
        inactive_round=inactive_round,
        out_neighbors=out_neighbors,
        rejecting_nodes=tuple(sorted(rejecting)),
        rounds=result.rounds,
    )
