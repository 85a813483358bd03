"""Per-part local verification protocols (cycle-freeness, bipartiteness).

Corollary 16 of the paper verifies hereditary properties within each part
after partitioning: build a BFS tree, then

* cycle-freeness: any non-tree edge closes a cycle -> reject;
* bipartiteness: any non-tree edge whose endpoints have equal BFS-depth
  parity closes an odd cycle -> reject.

These run as two-phase protocols: a BFS phase (see
:mod:`repro.congest.programs.bfs`) followed by a single exchange in which
nodes announce ``(depth, parent)`` and inspect their incident edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import networkx as nx

from ..network import CongestNetwork
from .tags import MSG_INFO
from ..node import Inbox, NodeContext, NodeProgram, Outbox
from .bfs import bfs_tree


class _PartCheckProgram(NodeProgram):
    """Shared two-round skeleton: announce (depth, parent), then verify."""

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        self._depth: int = ctx.config["depths"][ctx.node]
        self._parent: Optional[Any] = ctx.config["parents"].get(ctx.node)

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        if round_index == 0:
            return self.broadcast((MSG_INFO, self._depth, self._parent))
        verdict = self._verdict(inbox)
        self.halt(verdict)
        return self.silence()

    def _is_tree_edge(self, neighbor: Any, neighbor_parent: Any) -> bool:
        return neighbor == self._parent or neighbor_parent == self.ctx.node

    def _verdict(self, inbox: Inbox) -> str:
        raise NotImplementedError


class CycleCheckProgram(_PartCheckProgram):
    """Reject when any incident non-tree edge exists (a cycle witness)."""

    def _verdict(self, inbox: Inbox) -> str:
        for sender, msg in inbox.items():
            _tag, _depth, parent = msg
            if not self._is_tree_edge(sender, parent):
                return "reject"
        return "accept"


class BipartiteCheckProgram(_PartCheckProgram):
    """Reject when a non-tree edge joins equal BFS-parity endpoints."""

    def _verdict(self, inbox: Inbox) -> str:
        for sender, msg in inbox.items():
            _tag, depth, parent = msg
            if not self._is_tree_edge(sender, parent) and depth % 2 == self._depth % 2:
                return "reject"
        return "accept"


@dataclass
class PartCheckResult:
    """Outcome of a simulated per-part check."""

    accepted: bool
    rejecting_nodes: Tuple[Any, ...]
    bfs_rounds: int
    check_rounds: int

    @property
    def rounds(self) -> int:
        """Total rounds across both phases."""
        return self.bfs_rounds + self.check_rounds


def _run_check(
    graph: nx.Graph,
    root: Any,
    program_cls,
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
) -> PartCheckResult:
    parents, depths, bfs_rounds = bfs_tree(graph, root, bandwidth_bits, seed=seed)
    if len(depths) != graph.number_of_nodes():
        raise ValueError("graph must be connected for per-part checks")
    # Both phases share one compiled topology (memoized per graph).
    network = CongestNetwork(graph, bandwidth_bits=bandwidth_bits, seed=seed)
    result = network.run(
        program_cls,
        max_rounds=4,
        config={"parents": parents, "depths": depths},
        strict_bandwidth=True,
    )
    rejecting = tuple(
        sorted(v for v, verdict in result.outputs.items() if verdict == "reject")
    )
    return PartCheckResult(
        accepted=not rejecting,
        rejecting_nodes=rejecting,
        bfs_rounds=bfs_rounds,
        check_rounds=result.rounds,
    )


def run_cycle_check_simulated(
    graph: nx.Graph,
    root: Any,
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
) -> PartCheckResult:
    """BFS + cycle check on a connected graph; accept iff it is a tree."""
    return _run_check(graph, root, CycleCheckProgram, bandwidth_bits, seed)


def run_bipartite_check_simulated(
    graph: nx.Graph,
    root: Any,
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
) -> PartCheckResult:
    """BFS + odd-cycle check on a connected graph; accept iff bipartite."""
    return _run_check(graph, root, BipartiteCheckProgram, bandwidth_bits, seed)
