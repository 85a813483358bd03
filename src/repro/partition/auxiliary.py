"""Auxiliary contracted graphs G_i (paper Section 2.1).

Contracting every part of a partition to a single node yields the
weighted auxiliary graph ``G_i``: the weight of an auxiliary edge
``(v(P), v(Q))`` is the number of graph edges with one endpoint in P and
the other in Q.  Each auxiliary edge also carries a *designated
connector*: the concrete graph edge used when the parts merge (paper
Section 2.1.6 selects it by minimum id via a convergecast; we reproduce
that tie-breaking exactly so merges are deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

from ..graphs.utils import id_key
from .parts import Partition


@dataclass(frozen=True)
class AuxEdge:
    """One auxiliary edge with its designated connector edge in G."""

    parts: Tuple[Any, Any]  # (pid_a, pid_b), canonical order
    weight: int
    connector: Tuple[Any, Any]  # (node in pid_a, node in pid_b)


class AuxiliaryGraph:
    """The weighted contraction of a partition."""

    def __init__(self, partition: Partition):
        """Build G_i from *partition* in O(m) time."""
        self.partition = partition
        self._adj: Dict[Any, Dict[Any, int]] = {
            pid: {} for pid in partition.parts
        }
        connectors: Dict[Tuple[Any, Any], Tuple[Any, Any]] = {}
        part_of = partition.part_of
        for u, v in partition.graph.edges():
            pu, pv = part_of[u], part_of[v]
            if pu == pv:
                continue
            self._adj[pu][pv] = self._adj[pu].get(pv, 0) + 1
            self._adj[pv][pu] = self._adj[pv].get(pu, 0) + 1
            key = self._key(pu, pv)
            edge = (u, v) if key == (pu, pv) else (v, u)
            best = connectors.get(key)
            if best is None or (id_key(edge[0]), id_key(edge[1])) < (
                id_key(best[0]),
                id_key(best[1]),
            ):
                connectors[key] = edge
        self._connectors = connectors

    @staticmethod
    def _key(pa: Any, pb: Any) -> Tuple[Any, Any]:
        return (pa, pb) if id_key(pa) <= id_key(pb) else (pb, pa)

    # -- queries -------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of auxiliary nodes (= parts)."""
        return len(self._adj)

    def nodes(self) -> Iterator[Any]:
        """Iterate over part ids."""
        return iter(self._adj)

    def neighbors(self, pid: Any) -> Dict[Any, int]:
        """Mapping from neighboring pid to edge weight."""
        return self._adj[pid]

    def degree(self, pid: Any) -> int:
        """Number of distinct auxiliary neighbors."""
        return len(self._adj[pid])

    def weight(self, pa: Any, pb: Any) -> int:
        """Weight of auxiliary edge (pa, pb); 0 when absent."""
        return self._adj[pa].get(pb, 0)

    def weighted_degree(self, pid: Any) -> int:
        """Total weight of auxiliary edges incident to *pid*."""
        return sum(self._adj[pid].values())

    def total_weight(self) -> int:
        """Total auxiliary edge weight = number of cut edges in G."""
        return sum(self.weighted_degree(pid) for pid in self._adj) // 2

    def edge_count(self) -> int:
        """Number of distinct auxiliary edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def connector(self, pa: Any, pb: Any) -> Tuple[Any, Any]:
        """The designated graph edge for auxiliary edge (pa, pb).

        Returned oriented as ``(node in pa, node in pb)``.
        """
        key = self._key(pa, pb)
        u, v = self._connectors[key]
        return (u, v) if key == (pa, pb) else (v, u)

    def edges(self) -> Iterator[AuxEdge]:
        """Iterate over auxiliary edges (canonical orientation)."""
        for key, connector in self._connectors.items():
            pa, pb = key
            yield AuxEdge(parts=key, weight=self._adj[pa][pb], connector=connector)
