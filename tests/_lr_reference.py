"""Reference left-right planarity test on networkx dicts.

The dict-keyed port of Brandes' pseudocode ("The left-right planarity
test") that the library ran before its LR moved onto int arrays.  It is
kept here, outside ``src/``, as the oracle the int implementation in
:mod:`repro.planarity.lr_planarity` is diffed against: same verdict and
the same rotation system on every graph.

Every edge is a ``(v, w)`` tuple key, and conflict pairs and intervals
are small objects; ``stack_bottom`` records object identity.  The
embedding phase grows each rotation edge by edge, so it builds an
:class:`IncrementalRotation`, which adds insertion next to a given
neighbor to the library's set-whole :class:`RotationSystem`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import GraphInputError
from repro.planarity.rotation import RotationSystem

Edge = Tuple[Any, Any]


class IncrementalRotation(RotationSystem):
    """A :class:`RotationSystem` grown one half-edge at a time.

    Keeps counterclockwise links beside the clockwise ones, so a
    half-edge can go in on either side of a neighbor already present.
    """

    def __init__(self) -> None:  # noqa: D107
        super().__init__()
        self._ccw: Dict[Any, Dict[Any, Any]] = {}

    def add_node(self, v: Any) -> None:
        super().add_node(v)
        self._ccw.setdefault(v, {})

    def add_half_edge_cw(self, v: Any, w: Any, ref: Optional[Any]) -> None:
        """Insert ``(v, w)`` clockwise after *ref* (``None``: v's rotation
        is empty and ``w`` becomes its first entry)."""
        cw, ccw = self._cw[v], self._ccw[v]
        if ref is None:
            self._first[v] = w
            cw[w] = ccw[w] = w
            return
        nxt = cw[ref]
        cw[ref] = w
        cw[w] = nxt
        ccw[nxt] = w
        ccw[w] = ref

    def add_half_edge_ccw(self, v: Any, w: Any, ref: Any) -> None:
        """Insert ``(v, w)`` counterclockwise after (before) *ref*."""
        self.add_half_edge_cw(v, w, self._ccw[v][ref])

    def add_half_edge_first(self, v: Any, w: Any) -> None:
        """Insert ``(v, w)`` as the new first entry of v's rotation."""
        first = self._first[v]
        if first is None:
            self.add_half_edge_cw(v, w, None)
        else:
            self.add_half_edge_ccw(v, w, first)
            self._first[v] = w


class _Interval:
    """An interval of back edges, identified by its low and high edges."""

    __slots__ = ("low", "high")

    def __init__(self, low: Optional[Edge] = None, high: Optional[Edge] = None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.low}, {self.high})"


class _ConflictPair:
    """A pair of (left, right) intervals of back edges."""

    __slots__ = ("L", "R")

    def __init__(
        self,
        left: Optional[_Interval] = None,
        right: Optional[_Interval] = None,
    ):
        self.L = left if left is not None else _Interval()
        self.R = right if right is not None else _Interval()

    def swap(self) -> None:
        self.L, self.R = self.R, self.L

    def lowest(self, lowpt: Dict[Edge, int]) -> int:
        if self.L.empty():
            return lowpt[self.R.low]
        if self.R.empty():
            return lowpt[self.L.low]
        return min(lowpt[self.L.low], lowpt[self.R.low])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConflictPair(L={self.L}, R={self.R})"


class _LRPlanarity:
    """Single-use state machine for one planarity check."""

    def __init__(self, graph: nx.Graph):
        if graph.is_directed() or graph.is_multigraph():
            raise GraphInputError("planarity check requires a simple undirected graph")
        if any(u == v for u, v in graph.edges()):
            raise GraphInputError("planarity check does not support self-loops")
        self.graph = graph
        self.adjs: Dict[Any, List[Any]] = {
            v: list(graph.neighbors(v)) for v in graph.nodes()
        }
        self.height: Dict[Any, Optional[int]] = {v: None for v in graph.nodes()}
        self.parent_edge: Dict[Any, Optional[Edge]] = {v: None for v in graph.nodes()}
        self.oriented_adj: Dict[Any, List[Any]] = {v: [] for v in graph.nodes()}
        self.lowpt: Dict[Edge, int] = {}
        self.lowpt2: Dict[Edge, int] = {}
        self.nesting_depth: Dict[Edge, int] = {}
        self.ref: Dict[Edge, Optional[Edge]] = {}
        self.side: Dict[Edge, int] = {}
        self.S: List[_ConflictPair] = []
        self.stack_bottom: Dict[Edge, Optional[_ConflictPair]] = {}
        self.lowpt_edge: Dict[Edge, Edge] = {}
        self.ordered_adjs: Dict[Any, List[Any]] = {}
        self.roots: List[Any] = []
        self.embedding = IncrementalRotation()
        self.left_ref: Dict[Any, Any] = {}
        self.right_ref: Dict[Any, Any] = {}

    # -- phase 1: orientation --------------------------------------------------

    def dfs_orientation(self, root: Any) -> None:
        oriented = set()
        dfs_stack = [root]
        ind: Dict[Any, int] = {}
        skip_init: Dict[Edge, bool] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            e = self.parent_edge[v]
            adj = self.adjs[v]
            i = ind.get(v, 0)
            descended = False
            while i < len(adj):
                w = adj[i]
                vw = (v, w)
                if not skip_init.get(vw, False):
                    if (v, w) in oriented or (w, v) in oriented:
                        i += 1
                        continue
                    oriented.add(vw)
                    self.oriented_adj[v].append(w)
                    self.lowpt[vw] = self.height[v]
                    self.lowpt2[vw] = self.height[v]
                    self.ref[vw] = None
                    self.side[vw] = 1
                    if self.height[w] is None:  # tree edge: descend
                        self.parent_edge[w] = vw
                        self.height[w] = self.height[v] + 1
                        ind[v] = i
                        skip_init[vw] = True
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        descended = True
                        break
                    # back edge
                    self.lowpt[vw] = self.height[w]
                # postprocessing of edge vw (back edge now, or tree edge
                # after its subtree has completed)
                self.nesting_depth[vw] = 2 * self.lowpt[vw]
                if self.lowpt2[vw] < self.height[v]:  # chordal
                    self.nesting_depth[vw] += 1
                if e is not None:
                    if self.lowpt[vw] < self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                        self.lowpt[e] = self.lowpt[vw]
                    elif self.lowpt[vw] > self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
                    else:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])
                i += 1
            if not descended:
                ind[v] = i

    # -- phase 2: testing --------------------------------------------------------

    def _top(self) -> Optional[_ConflictPair]:
        return self.S[-1] if self.S else None

    def _conflicting(self, interval: _Interval, b: Edge) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def dfs_testing(self, root: Any) -> bool:
        dfs_stack = [root]
        ind: Dict[Any, int] = {}
        skip_init: Dict[Edge, bool] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            e = self.parent_edge[v]
            adj = self.ordered_adjs[v]
            i = ind.get(v, 0)
            descended = False
            while i < len(adj):
                w = adj[i]
                ei = (v, w)
                if not skip_init.get(ei, False):
                    self.stack_bottom[ei] = self._top()
                    if ei == self.parent_edge[w]:  # tree edge: descend
                        ind[v] = i
                        skip_init[ei] = True
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        descended = True
                        break
                    # back edge
                    self.lowpt_edge[ei] = ei
                    self.S.append(_ConflictPair(right=_Interval(ei, ei)))
                # integrate new return edges
                if self.lowpt[ei] < self.height[v]:
                    if w == adj[0]:  # first child/edge inherits directly
                        self.lowpt_edge[e] = self.lowpt_edge[ei]
                    elif not self.add_constraints(ei, e):
                        return False  # non-planar
                i += 1
            if descended:
                continue
            ind[v] = i
            if e is not None:
                self.remove_back_edges(e)
        return True

    def add_constraints(self, ei: Edge, e: Edge) -> bool:
        P = _ConflictPair()
        # merge return edges of e_i into P.R
        while True:
            Q = self.S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                return False  # non-planar
            if self.lowpt[Q.R.low] > self.lowpt[e]:
                # merge intervals
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:
                # align
                self.ref[Q.R.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of e_1..e_{i-1} into P.L
        while self._conflicting(self._top().L, ei) or self._conflicting(
            self._top().R, ei
        ):
            Q = self.S.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                return False  # non-planar
            # merge interval below lowpt(e_i) into P.R
            self.ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.S.append(P)
        return True

    def remove_back_edges(self, e: Edge) -> None:
        u = e[0]
        # trim back edges ending at parent u: drop entire conflict pairs
        while self.S and self.S[-1].lowest(self.lowpt) == self.height[u]:
            P = self.S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if self.S:  # one more conflict pair to consider
            P = self.S.pop()
            # trim left interval
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref[P.L.high]
            if P.L.high is None and P.L.low is not None:
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            # trim right interval
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref[P.R.high]
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            self.S.append(P)
        # side of e is the side of a highest return edge
        if self.lowpt[e] < self.height[u]:  # e has return edge
            top = self.S[-1]
            hl = top.L.high
            hr = top.R.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    # -- phase 3: embedding -------------------------------------------------------

    def _resolve_side(self, e: Edge) -> int:
        """Resolve the absolute side of *e* through its ref chain."""
        chain: List[Edge] = []
        cur: Optional[Edge] = e
        while cur is not None and self.ref[cur] is not None:
            chain.append(cur)
            cur = self.ref[cur]
        for edge in reversed(chain):
            parent = self.ref[edge]
            self.side[edge] = self.side[edge] * self.side[parent]
            self.ref[edge] = None
        return self.side[e]

    def dfs_embedding(self, root: Any) -> None:
        dfs_stack = [root]
        ind: Dict[Any, int] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            adj = self.ordered_adjs[v]
            i = ind.get(v, 0)
            descended = False
            while i < len(adj):
                w = adj[i]
                i += 1
                ei = (v, w)
                if ei == self.parent_edge[w]:  # tree edge
                    self.embedding.add_half_edge_first(w, v)
                    self.left_ref[v] = w
                    self.right_ref[v] = w
                    ind[v] = i
                    dfs_stack.append(v)
                    dfs_stack.append(w)
                    descended = True
                    break
                # back edge: insert the reversed half-edge at the ancestor
                if self.side[ei] == 1:
                    self.embedding.add_half_edge_cw(w, v, self.right_ref[w])
                else:
                    self.embedding.add_half_edge_ccw(w, v, self.left_ref[w])
                    self.left_ref[w] = v
            if not descended:
                ind[v] = i

    # -- driver ---------------------------------------------------------------

    def run(self) -> Tuple[bool, Optional[RotationSystem]]:
        n = self.graph.number_of_nodes()
        m = self.graph.number_of_edges()
        if n > 2 and m > 3 * n - 6:
            return False, None

        # Phase 1 on every component.
        for v in self.graph.nodes():
            if self.height[v] is None:
                self.height[v] = 0
                self.roots.append(v)
                self.dfs_orientation(v)

        # Phase 2.
        for v in self.graph.nodes():
            self.ordered_adjs[v] = sorted(
                self.oriented_adj[v], key=lambda w, v=v: self.nesting_depth[(v, w)]
            )
        for root in self.roots:
            if not self.dfs_testing(root):
                return False, None

        # Phase 3: apply signs, re-sort, and build the rotation system.
        for v in self.graph.nodes():
            for w in self.oriented_adj[v]:
                e = (v, w)
                self.nesting_depth[e] *= self._resolve_side(e)
        for v in self.graph.nodes():
            self.ordered_adjs[v] = sorted(
                self.oriented_adj[v], key=lambda w, v=v: self.nesting_depth[(v, w)]
            )
            self.embedding.add_node(v)
            previous = None
            for w in self.ordered_adjs[v]:
                self.embedding.add_half_edge_cw(v, w, previous)
                previous = w
        for root in self.roots:
            self.dfs_embedding(root)
        return True, self.embedding


def reference_check_planarity(
    graph: nx.Graph,
) -> Tuple[bool, Optional[RotationSystem]]:
    """``(is_planar, clockwise rotation system or None)`` for *graph*."""
    return _LRPlanarity(graph).run()
