"""Rotation systems (combinatorial embeddings).

A rotation system assigns to every node a cyclic *clockwise* ordering of
its incident edges.  Together with the graph it fully determines a
cellular embedding on an orientable surface; the embedding is planar iff
the Euler characteristic computed from the face count is 2 per connected
component (see :mod:`repro.planarity.embedding`).

:class:`RotationSystem` stores, per node id, a clockwise successor map
(a singly linked circular list) and a first entry; rotations are set
whole with :meth:`RotationSystem.set_rotation`.  :class:`HalfEdgeRing`
is the doubly linked form over int nodes and int half-edges, in flat
lists: the LR embedding builds it with O(1) insertions, Stage II's
labels walk it, and :meth:`HalfEdgeRing.to_rotation_system` maps it
back to node ids.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import EmbeddingError

HalfEdge = Tuple[Any, Any]


class RotationSystem:
    """A mutable clockwise rotation system over hashable node ids."""

    def __init__(self) -> None:  # noqa: D107
        self._first: Dict[Any, Optional[Any]] = {}
        self._cw: Dict[Any, Dict[Any, Any]] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, v: Any) -> None:
        """Register node *v* with an empty rotation."""
        if v not in self._first:
            self._first[v] = None
            self._cw[v] = {}

    def _require_node(self, v: Any) -> None:
        if v not in self._first:
            raise EmbeddingError(f"unknown node {v!r}")

    def set_rotation(self, v: Any, neighbors: Iterable[Any]) -> None:
        """Replace v's rotation with *neighbors* in clockwise order."""
        self.add_node(v)
        ordered = list(neighbors)
        if len(set(ordered)) != len(ordered):
            raise EmbeddingError(f"duplicate neighbor in rotation of {v!r}")
        self._cw[v] = dict(zip(ordered, ordered[1:] + ordered[:1]))
        self._first[v] = ordered[0] if ordered else None

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Any, ...]:
        """All registered nodes."""
        return tuple(self._first)

    def degree(self, v: Any) -> int:
        """Number of half-edges leaving *v*."""
        self._require_node(v)
        return len(self._cw[v])

    def next_cw(self, v: Any, w: Any) -> Any:
        """Neighbor following *w* clockwise in v's rotation."""
        try:
            return self._cw[v][w]
        except KeyError:
            raise EmbeddingError(f"half-edge ({v!r}, {w!r}) not present") from None

    def rotation(self, v: Any) -> List[Any]:
        """Clockwise neighbor list of *v*, starting at its first entry."""
        self._require_node(v)
        start = self._first[v]
        if start is None:
            return []
        out = [start]
        cur = self._cw[v][start]
        while cur != start:
            out.append(cur)
            cur = self._cw[v][cur]
        return out

    def half_edges(self) -> Iterator[HalfEdge]:
        """Iterate over all half-edges (v, w)."""
        for v in self._first:
            for w in self._cw[v]:
                yield (v, w)

    def to_dict(self) -> Dict[Any, List[Any]]:
        """Plain-dict snapshot ``{node: clockwise neighbor list}``."""
        return {v: self.rotation(v) for v in self._first}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RotationSystem):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RotationSystem({self.to_dict()!r})"


class HalfEdgeRing:
    """A clockwise rotation system over int nodes and int half-edges.

    Edge ``e`` runs from ``tail[e]`` to ``head[e]``; its half-edge
    ``2e`` leaves the tail and ``2e + 1`` leaves the head, so ``h ^ 1``
    is the twin of ``h``.  Each node's half-edges form one circular
    list: ``nxt[h]`` is the half-edge clockwise after ``h`` around its
    origin, ``prv[h]`` the one before, and ``first[v]`` is where
    ``v``'s rotation starts (``-1`` for an isolated node).  This is the
    flat form the LR embedding builds and Stage II's labels walk.
    """

    __slots__ = ("tail", "head", "first", "nxt", "prv")

    def __init__(self, tail, head, first, nxt, prv):  # noqa: D107
        self.tail = tail
        self.head = head
        self.first = first
        self.nxt = nxt
        self.prv = prv

    @classmethod
    def from_rotations(cls, rotations: List[List[int]]) -> "HalfEdgeRing":
        """Ring whose node ``v`` rotates clockwise through ``rotations[v]``.

        Edges are numbered in order of first appearance from their lower
        endpoint; *rotations* must list every edge at both endpoints.
        """
        n = len(rotations)
        tail: List[int] = []
        head: List[int] = []
        edge_of: Dict[int, int] = {}
        rows = []
        for u, rot in enumerate(rotations):
            hs = []
            for v in rot:
                if u < v:
                    e = len(tail)
                    tail.append(u)
                    head.append(v)
                    edge_of[u * n + v] = e
                    hs.append(2 * e)
                else:
                    hs.append(2 * edge_of[v * n + u] + 1)
            rows.append(hs)
        nxt = [0] * (2 * len(tail))
        prv = [0] * (2 * len(tail))
        first = [-1] * n
        for v, hs in enumerate(rows):
            if hs:
                first[v] = hs[0]
                for a, b in zip(hs, hs[1:] + hs[:1]):
                    nxt[a] = b
                    prv[b] = a
        return cls(tail, head, first, nxt, prv)

    def targets(self) -> List[int]:
        """Per half-edge, the node it points to."""
        to = [0] * (2 * len(self.tail))
        to[0::2] = self.head
        to[1::2] = self.tail
        return to

    def rotation(self, v: int) -> List[int]:
        """Clockwise neighbor list of *v*, starting at its first entry."""
        start = self.first[v]
        if start < 0:
            return []
        nxt, tail, head = self.nxt, self.tail, self.head
        out = []
        h = start
        while True:
            out.append(tail[h >> 1] if h & 1 else head[h >> 1])
            h = nxt[h]
            if h == start:
                return out

    def to_rotation_system(self, nodes: Sequence[Any]) -> RotationSystem:
        """The same rotations over the original ids ``nodes[i]``."""
        rs = RotationSystem()
        for v, node in enumerate(nodes):
            rs.set_rotation(node, [nodes[w] for w in self.rotation(v)])
        return rs
