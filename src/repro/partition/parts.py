"""Partition bookkeeping: parts, rooted spanning trees, validation.

Stage I maintains a partition of the nodes where each part is connected,
has a designated root known to all its nodes, and carries a rooted
spanning tree (paper Lemma 6).  Parts are identified by their root's id,
matching the paper's convention that the root id identifies ``v(P_i^j)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Tuple

import networkx as nx

from ..errors import PartitionError
from ..graphs.utils import iter_edges


@dataclass
class Part:
    """One part: a connected node set with a rooted spanning tree.

    Attributes:
        root: designated root node (also the part's identifier).
        nodes: the part's node set.
        parents: spanning-tree parent pointers (child -> parent) for every
            non-root node of the part.
        height: height of the spanning tree.
    """

    root: Any
    nodes: FrozenSet[Any]
    parents: Dict[Any, Any] = field(default_factory=dict)
    height: int = 0

    @property
    def pid(self) -> Any:
        """Part identifier (the root node's id)."""
        return self.root

    def __len__(self) -> int:
        return len(self.nodes)

    def tree_edges(self) -> Iterator[Tuple[Any, Any]]:
        """Spanning-tree edges as (child, parent) pairs."""
        return iter(self.parents.items())


def build_part(root: Any, nodes, tree_edges) -> Part:
    """Construct a part from a root and an edge set; recompute the tree.

    *tree_edges* must connect exactly the node set; parent pointers and
    height are derived by BFS from the root (so callers may pass edges in
    any orientation).
    """
    node_set = frozenset(nodes)
    adjacency: Dict[Any, List[Any]] = {v: [] for v in node_set}
    for u, v in tree_edges:
        if u not in node_set or v not in node_set:
            raise PartitionError(f"tree edge ({u!r}, {v!r}) leaves the part")
        adjacency[u].append(v)
        adjacency[v].append(u)
    parents: Dict[Any, Any] = {}
    height = 0
    seen = {root}
    queue = deque([(root, 0)])
    while queue:
        v, depth = queue.popleft()
        height = max(height, depth)
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                parents[w] = v
                queue.append((w, depth + 1))
    if seen != node_set:
        raise PartitionError(
            f"spanning tree of part rooted at {root!r} does not reach "
            f"{len(node_set - seen)} nodes"
        )
    return Part(root=root, nodes=node_set, parents=parents, height=height)


class Partition:
    """A partition of a graph's nodes into rooted connected parts."""

    def __init__(self, graph: nx.Graph, parts: List[Part]):
        """Wrap *parts* over *graph*; derives the node -> part index."""
        self.graph = graph
        self.parts: Dict[Any, Part] = {}
        self.part_of: Dict[Any, Any] = {}
        for part in parts:
            if part.pid in self.parts:
                raise PartitionError(f"duplicate part id {part.pid!r}")
            self.parts[part.pid] = part
            for node in part.nodes:
                if node in self.part_of:
                    raise PartitionError(f"node {node!r} appears in two parts")
                self.part_of[node] = part.pid
        missing = set(graph.nodes()) - set(self.part_of)
        if missing:
            raise PartitionError(f"{len(missing)} nodes not covered by any part")

    @classmethod
    def singletons(cls, graph: nx.Graph) -> "Partition":
        """The initial partition P_1: every node is its own part."""
        return cls(
            graph,
            [Part(root=v, nodes=frozenset([v])) for v in graph.nodes()],
        )

    # -- queries ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def cut_edges(self) -> Iterator[Tuple[Any, Any]]:
        """Edges of the graph whose endpoints lie in different parts."""
        part_of = self.part_of
        for u, v in iter_edges(self.graph):
            if part_of[u] != part_of[v]:
                yield (u, v)

    def cut_size(self) -> int:
        """Number of inter-part edges (the weight of the auxiliary graph)."""
        return sum(1 for _ in self.cut_edges())

    def max_height(self) -> int:
        """Maximum spanning-tree height over parts."""
        return max((p.height for p in self.parts.values()), default=0)

    def max_diameter(self) -> int:
        """Maximum exact diameter of the induced subgraphs of the parts."""
        from ..graphs.utils import diameter

        best = 0
        for part in self.parts.values():
            if len(part) > 1:
                best = max(best, diameter(self.graph.subgraph(part.nodes)))
        return best

    def part_subgraph(self, pid: Any) -> nx.Graph:
        """Induced subgraph of the part with id *pid*."""
        return self.graph.subgraph(self.parts[pid].nodes)

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check all Lemma 6 invariants; raise :class:`PartitionError`."""
        for part in self.parts.values():
            if part.root not in part.nodes:
                raise PartitionError(f"root {part.root!r} outside its part")
            sub = self.graph.subgraph(part.nodes)
            if len(part) > 1 and not nx.is_connected(sub):
                raise PartitionError(f"part {part.pid!r} is not connected")
            if set(part.parents) != part.nodes - {part.root}:
                raise PartitionError(
                    f"part {part.pid!r}: parent pointers do not cover the part"
                )
            depth_seen: Dict[Any, int] = {part.root: 0}
            for node in part.parents:
                # Walk to the root, detecting cycles and escapes.
                chain = []
                v = node
                while v not in depth_seen:
                    chain.append(v)
                    v = part.parents.get(v)
                    if v is None or v not in part.nodes:
                        raise PartitionError(
                            f"part {part.pid!r}: broken parent chain at {node!r}"
                        )
                    if len(chain) > len(part.nodes):
                        raise PartitionError(
                            f"part {part.pid!r}: parent pointers contain a cycle"
                        )
                base = depth_seen[v]
                for offset, w in enumerate(reversed(chain), start=1):
                    depth_seen[w] = base + offset
            for child, parent in part.parents.items():
                if not self.graph.has_edge(child, parent):
                    raise PartitionError(
                        f"part {part.pid!r}: tree edge ({child!r}, {parent!r}) "
                        "is not a graph edge"
                    )
            true_height = max(depth_seen.values(), default=0)
            if true_height != part.height:
                raise PartitionError(
                    f"part {part.pid!r}: recorded height {part.height} != "
                    f"actual {true_height}"
                )
