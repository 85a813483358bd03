"""Left-right planarity test with embedding extraction, on int arrays.

This implements the de Fraysseix-Rosenstiehl left-right criterion in the
formulation of Brandes ("The left-right planarity test"), the same
algorithmic skeleton behind Boyer-Myrvold-class linear-time testers:

1. *Orientation phase*: a DFS orients the graph, computing ``height``,
   ``lowpt``, ``lowpt2`` and a ``nesting`` ordering key per edge.
2. *Testing phase*: a second DFS over adjacency lists sorted by nesting
   depth maintains a stack of conflict pairs of back-edge intervals;
   an unresolvable conflict certifies non-planarity.
3. *Embedding phase*: the recorded ``ref``/``side`` relations assign each
   back edge to the left or right of its fundamental cycle, from which a
   clockwise rotation system is assembled.

In this reproduction the algorithm plays the role of the
Ghaffari-Haeupler distributed planar-embedding subroutine of paper
Section 2.2.2 (ARCHITECTURE.md, "Paper substitutions", item 1): it
produces the combinatorial embedding for each (planar) part, while the
*distributed* round cost of the GH algorithm is charged analytically by
the Stage II driver.

Everything runs on a :class:`LocalGraph` -- the input relabeled to
indices ``0..n-1`` once -- and flat int lists:

* each oriented edge has one id, in orientation order; ``lowpt``,
  ``lowpt2``, ``nesting``, ``ref`` and ``side`` are plain lists over it
  (``-1`` stands for "no edge");
* the conflict-pair stack is four parallel lists (left low/high, right
  low/high), and a stack height stands in for the identity of the pair
  that was on top when an edge was entered;
* the embedding is a :class:`~repro.planarity.rotation.HalfEdgeRing`
  (half-edges ``2e`` / ``2e + 1`` in ``nxt``/``prv`` circular lists).

All DFS phases are iterative, so graphs with deep DFS trees (paths,
grids) do not hit Python's recursion limit.  The rotation system equals
the one the dict-keyed port of the same pseudocode produces; the test
suite keeps that port as its oracle, next to networkx's checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import networkx as nx

from ..errors import GraphInputError
from ..graphs.utils import has_self_loops, id_key
from .rotation import HalfEdgeRing, RotationSystem


class LocalGraph:
    """A simple graph relabeled to local indices ``0..n-1``.

    Attributes:
        nodes: ``nodes[i]`` is the original id of index ``i``.
        index: original id -> local index.
        rows: ``rows[i]`` lists the neighbors of ``i`` as local indices,
            in the source's adjacency order.
        m: number of edges.
    """

    __slots__ = ("nodes", "index", "rows", "m")

    def __init__(self, nodes: List[Any], index: Dict[Any, int], rows: List[List[int]]):
        self.nodes = nodes
        self.index = index
        self.rows = rows
        self.m = sum(map(len, rows)) // 2

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "LocalGraph":
        """Relabel *graph* (or a view of one) in its own iteration order.

        Node ``i`` is the ``i``-th node *graph* yields, and each row
        follows *graph*'s adjacency order, so every order-sensitive step
        sees exactly the sequence it would see on *graph* itself.
        """
        nodes = list(graph)
        index = {v: i for i, v in enumerate(nodes)}
        adj = graph._adj
        return cls(nodes, index, [[index[w] for w in adj[v]] for v in nodes])

    @property
    def n(self) -> int:
        return len(self.nodes)

    def id_keys(self) -> Sequence[Any]:
        """Per index, a key ordering nodes like :func:`~repro.graphs.utils.id_key`."""
        nodes = self.nodes
        if all(type(v) is int for v in nodes):
            return nodes
        return [id_key(v) for v in nodes]


@dataclass
class PlanarityResult:
    """Outcome of :func:`check_planarity`.

    Attributes:
        is_planar: verdict.
        ring: the clockwise embedding over local indices when planar,
            otherwise ``None``.
        nodes: local index -> original node id.
        embedding: the same embedding as a :class:`RotationSystem` over
            the original ids (built on first access), or ``None``.
    """

    is_planar: bool
    ring: Optional[HalfEdgeRing] = None
    nodes: Sequence[Any] = ()
    _embedding: Optional[RotationSystem] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def embedding(self) -> Optional[RotationSystem]:
        if self._embedding is None and self.ring is not None:
            self._embedding = self.ring.to_rotation_system(self.nodes)
        return self._embedding

    def __bool__(self) -> bool:
        return self.is_planar


def lr_embedding(graph: LocalGraph) -> Optional[HalfEdgeRing]:
    """The LR planar embedding of *graph*, or ``None`` if it is not planar."""
    rows = graph.rows
    n = len(rows)
    if n > 2 and graph.m > 3 * n - 6:
        return None

    # -- phase 1: orientation ----------------------------------------------
    height = [-1] * n
    parent_edge = [-1] * n
    out: List[List[int]] = [[] for _ in range(n)]
    tail: List[int] = []
    head: List[int] = []
    lowpt: List[int] = []
    lowpt2: List[int] = []
    nesting: List[int] = []
    roots: List[int] = []
    ind = [0] * n
    # pending[v]: the tree edge v descended through, post-processed when
    # v is popped again.
    pending = [-1] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            hv = height[v]
            e = parent_edge[v]
            row = rows[v]
            deg = len(row)
            i = ind[v]
            x = pending[v]
            pending[v] = -1
            while True:
                if x < 0:  # scan the next edge
                    if i >= deg:
                        break
                    w = row[i]
                    hw = height[w]
                    if hw < 0:  # tree edge: descend
                        x = len(tail)
                        tail.append(v)
                        head.append(w)
                        lowpt.append(hv)
                        lowpt2.append(hv)
                        nesting.append(0)
                        out[v].append(x)
                        parent_edge[w] = x
                        height[w] = hv + 1
                        ind[v] = i
                        pending[v] = x
                        stack.append(v)
                        stack.append(w)
                        break
                    if hw >= hv - 1:
                        # Already oriented: the tree edge from the parent,
                        # or a back edge from a finished descendant.
                        i += 1
                        continue
                    x = len(tail)  # back edge to an ancestor
                    tail.append(v)
                    head.append(w)
                    lowpt.append(hw)
                    lowpt2.append(hv)
                    nesting.append(0)
                    out[v].append(x)
                # post-processing of edge x: a back edge now, or a tree
                # edge after its subtree has completed
                lx = lowpt[x]
                l2x = lowpt2[x]
                nesting[x] = 2 * lx + 1 if l2x < hv else 2 * lx
                if e >= 0:
                    le = lowpt[e]
                    if lx < le:
                        lowpt2[e] = le if le < l2x else l2x
                        lowpt[e] = lx
                    elif lx > le:
                        if lx < lowpt2[e]:
                            lowpt2[e] = lx
                    elif l2x < lowpt2[e]:
                        lowpt2[e] = l2x
                x = -1
                i += 1

    # -- phase 2: testing ----------------------------------------------------
    n_edges = len(tail)
    by_nesting = nesting.__getitem__
    ordered = [sorted(o, key=by_nesting) if len(o) > 1 else o for o in out]
    # One spare slot at the end: the pseudocode writes through "no edge"
    # (index -1) in a few places, and those writes must land harmlessly.
    ref = [-1] * (n_edges + 1)
    side = [1] * n_edges
    lowpt_edge = [-1] * n_edges
    stack_bottom = [0] * n_edges
    s_ll: List[int] = []  # left interval low edge, per conflict pair
    s_lh: List[int] = []  # left interval high edge
    s_rl: List[int] = []  # right interval low edge
    s_rh: List[int] = []  # right interval high edge

    def add_constraints(ei: int, e: int) -> bool:
        pll = plh = prl = prh = -1
        bottom = stack_bottom[ei]
        low_e = lowpt[e]
        # merge return edges of e_i into P.R
        while True:
            qll = s_ll.pop()
            qlh = s_lh.pop()
            qrl = s_rl.pop()
            qrh = s_rh.pop()
            if qll != -1 or qlh != -1:
                qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
                if qll != -1 or qlh != -1:
                    return False  # non-planar
            if lowpt[qrl] > low_e:  # merge intervals
                if prl == -1 and prh == -1:
                    prh = qrh
                else:
                    ref[prl] = qrh
                prl = qrl
            else:  # align
                ref[qrl] = lowpt_edge[e]
            if len(s_ll) == bottom:
                break
        # merge conflicting return edges of e_1..e_{i-1} into P.L
        low_b = lowpt[ei]
        while s_ll:
            qlh = s_lh[-1]
            qrh = s_rh[-1]
            if not (
                (qlh != -1 and lowpt[qlh] > low_b) or (qrh != -1 and lowpt[qrh] > low_b)
            ):
                break
            qll = s_ll.pop()
            s_lh.pop()
            qrl = s_rl.pop()
            s_rh.pop()
            if qrh != -1 and lowpt[qrh] > low_b:
                qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
                if qrh != -1 and lowpt[qrh] > low_b:
                    return False  # non-planar
            # merge interval below lowpt(e_i) into P.R
            ref[prl] = qrh
            if qrl != -1:
                prl = qrl
            if pll == -1 and plh == -1:
                plh = qlh
            else:
                ref[pll] = qlh
            pll = qll
        if pll != -1 or plh != -1 or prl != -1 or prh != -1:
            s_ll.append(pll)
            s_lh.append(plh)
            s_rl.append(prl)
            s_rh.append(prh)
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        # trim back edges ending at parent u: drop entire conflict pairs
        while s_ll:
            ll = s_ll[-1]
            rl = s_rl[-1]
            if ll == -1 and s_lh[-1] == -1:
                lowest = lowpt[rl]
            elif rl == -1 and s_rh[-1] == -1:
                lowest = lowpt[ll]
            else:
                lowest = min(lowpt[ll], lowpt[rl])
            if lowest != hu:
                break
            s_ll.pop()
            s_lh.pop()
            s_rl.pop()
            s_rh.pop()
            if ll != -1:
                side[ll] = -1
        if s_ll:  # one more conflict pair to consider
            pll = s_ll.pop()
            plh = s_lh.pop()
            prl = s_rl.pop()
            prh = s_rh.pop()
            # trim left interval
            while plh != -1 and head[plh] == u:
                plh = ref[plh]
            if plh == -1 and pll != -1:
                ref[pll] = prl
                side[pll] = -1
                pll = -1
            # trim right interval
            while prh != -1 and head[prh] == u:
                prh = ref[prh]
            if prh == -1 and prl != -1:
                ref[prl] = pll
                side[prl] = -1
                prl = -1
            s_ll.append(pll)
            s_lh.append(plh)
            s_rl.append(prl)
            s_rh.append(prh)
        # side of e is the side of a highest return edge
        if lowpt[e] < hu:
            hl = s_lh[-1]
            hr = s_rh[-1]
            if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            hv = height[v]
            e = parent_edge[v]
            adj = ordered[v]
            i = ind[v]
            # After a descent, adj[i] is the tree edge whose subtree just
            # completed: skip its initialization.
            resumed = pending[v] >= 0
            pending[v] = -1
            deg = len(adj)
            while i < deg:
                ei = adj[i]
                if not resumed:
                    stack_bottom[ei] = len(s_ll)
                    w = head[ei]
                    if parent_edge[w] == ei:  # tree edge: descend
                        ind[v] = i
                        pending[v] = ei
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt_edge[ei] = ei  # back edge
                    s_ll.append(-1)
                    s_lh.append(-1)
                    s_rl.append(ei)
                    s_rh.append(ei)
                resumed = False
                # integrate new return edges
                if lowpt[ei] < hv:
                    if i == 0:  # first child/edge inherits directly
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            else:
                if e >= 0:
                    remove_back_edges(e)

    # -- phase 3: embedding --------------------------------------------------
    for x in range(n_edges):
        if ref[x] != -1:  # resolve the absolute side through the ref chain
            chain = []
            c = x
            while ref[c] != -1:
                chain.append(c)
                c = ref[c]
            for y in reversed(chain):
                side[y] *= side[ref[y]]
                ref[y] = -1
        if side[x] < 0:
            nesting[x] = -nesting[x]
    first = [-1] * n
    nxt = [0] * (2 * n_edges)
    prv = [0] * (2 * n_edges)
    for v, o in enumerate(out):
        if len(o) > 1:
            o = sorted(o, key=by_nesting)
        ordered[v] = o
        if o:
            hs = [2 * x for x in o]
            first[v] = hs[0]
            for a, b in zip(hs, hs[1:] + hs[:1]):
                nxt[a] = b
                prv[b] = a

    # Insert every edge's head half-edge 2x + 1 around its head.
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            adj = ordered[v]
            i = ind[v]
            deg = len(adj)
            while i < deg:
                x = adj[i]
                i += 1
                w = head[x]
                h = 2 * x + 1
                if parent_edge[w] == x:  # tree edge: h becomes w's first
                    f = first[w]
                    if f < 0:
                        first[w] = nxt[h] = prv[h] = h
                    else:
                        p = prv[f]
                        nxt[p] = h
                        prv[h] = p
                        nxt[h] = f
                        prv[f] = h
                        first[w] = h
                    left_ref[v] = right_ref[v] = 2 * x
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                # back edge: insert the reversed half-edge at the ancestor
                if side[x] == 1:  # clockwise after right_ref[w]
                    p = right_ref[w]
                    q = nxt[p]
                else:  # counterclockwise before left_ref[w]
                    q = left_ref[w]
                    p = prv[q]
                    left_ref[w] = h
                nxt[p] = h
                prv[h] = p
                nxt[h] = q
                prv[q] = h
    return HalfEdgeRing(tail, head, first, nxt, prv)


def check_planarity(graph) -> PlanarityResult:
    """Test planarity of *graph*; return verdict plus embedding if planar.

    *graph* is a simple undirected networkx graph (or view), or a
    :class:`LocalGraph` that is already relabeled (and trusted to be
    simple).  The result's ``ring`` is the clockwise embedding over local
    indices and its ``embedding`` the same :class:`RotationSystem` over
    the original ids, covering every node and edge.  Use
    :func:`repro.planarity.embedding.verify_planar_embedding` for an
    independent Euler-formula certificate.
    """
    if not isinstance(graph, LocalGraph):
        if graph.is_directed() or graph.is_multigraph():
            raise GraphInputError("planarity check requires a simple undirected graph")
        if has_self_loops(graph):
            raise GraphInputError("planarity check does not support self-loops")
        graph = LocalGraph.from_graph(graph)
    ring = lr_embedding(graph)
    return PlanarityResult(ring is not None, ring, graph.nodes)


def is_planar(graph: nx.Graph) -> bool:
    """Convenience wrapper returning only the planarity verdict."""
    return check_planarity(graph).is_planar
