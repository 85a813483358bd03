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
  ``lowpt2``, ``nesting``, ``ref`` and ``side`` are plain lists over it,
  preallocated to ``m`` (``-1`` stands for "no edge");
* the conflict-pair stack is one list of ``(left low, left high, right
  low, right high)`` tuples, and a stack height stands in for the
  identity of the pair that was on top when an edge was entered;
  Brandes' ``add_constraints`` and ``remove_back_edges`` are inlined
  into the testing DFS;
* the embedding is a :class:`~repro.planarity.rotation.HalfEdgeRing`
  (half-edges ``2e`` / ``2e + 1`` in ``nxt``/``prv`` circular lists).

All DFS phases walk down tree edges and back up parent edges, with no
recursion and no explicit stack, so graphs with deep DFS trees (paths,
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
    m = graph.m
    if n > 2 and m > 3 * n - 6:
        return None

    # -- phase 1: orientation ----------------------------------------------
    # Every edge is oriented exactly once, so the per-edge lists are
    # preallocated and ``k`` counts the edges oriented so far.  Each DFS
    # walks down tree edges and back up parent edges: ``ind[v]`` keeps
    # the row position v descended from, so no stack is needed.
    height = [-1] * n
    parent_edge = [-1] * n
    out: List[List[int]] = [[] for _ in range(n)]
    tail = [0] * m
    head = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    k = 0
    roots: List[int] = []
    ind = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = hv = 0
        roots.append(r)
        v, e, row, i, x = r, -1, rows[r], 0, -1
        deg = len(row)
        while True:
            if x < 0:  # scan the next edge
                if i < deg:
                    w = row[i]
                    hw = height[w]
                    if hw < 0:  # tree edge: descend
                        tail[k] = v
                        head[k] = w
                        lowpt[k] = lowpt2[k] = hv
                        out[v].append(k)
                        parent_edge[w] = e = k
                        k += 1
                        ind[v] = i
                        v = w
                        hv += 1
                        height[w] = hv
                        row = rows[w]
                        deg = len(row)
                        i = 0
                        continue
                    if hw >= hv - 1:
                        # Already oriented: the tree edge from the parent,
                        # or a back edge from a finished descendant.
                        i += 1
                        continue
                    x = k  # back edge to an ancestor
                    k += 1
                    tail[x] = v
                    head[x] = w
                    lowpt[x] = hw
                    lowpt2[x] = hv
                    out[v].append(x)
                elif e < 0:  # the root is finished
                    break
                else:  # v is finished: back to its parent, with edge e
                    x = e
                    v = tail[e]
                    hv -= 1
                    e = parent_edge[v]
                    row = rows[v]
                    deg = len(row)
                    i = ind[v]
            # post-processing of edge x: a back edge now, or a tree edge
            # after its subtree has completed
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
    by_nesting = nesting.__getitem__
    ordered = [sorted(o, key=by_nesting) if len(o) > 1 else o for o in out]
    # One spare slot at the end: the pseudocode writes through "no edge"
    # (index -1) in a few places, and those writes must land harmlessly.
    ref = [-1] * (m + 1)
    side = [1] * m
    lowpt_edge = [-1] * m
    stack_bottom = [0] * m
    # Conflict pairs (left low, left high, right low, right high) as
    # tuples of edges; -1 ends an empty interval.
    pairs: List[tuple] = []
    push = pairs.append
    pop = pairs.pop
    for r in roots:
        v, hv, e, adj, i, x = r, 0, -1, ordered[r], 0, -1
        deg = len(adj)
        while True:
            if x < 0:  # scan the next edge
                if i < deg:
                    x = adj[i]
                    stack_bottom[x] = len(pairs)
                    w = head[x]
                    if parent_edge[w] == x:  # tree edge: descend
                        ind[v] = i
                        v = w
                        hv += 1
                        e = x
                        adj = ordered[w]
                        deg = len(adj)
                        i = 0
                        x = -1
                        continue
                    lowpt_edge[x] = x  # back edge
                    push((-1, -1, x, x))
                elif e < 0:  # the root is finished
                    break
                else:  # v is finished: remove back edges ending at its parent u
                    u = tail[e]
                    hu = hv - 1
                    # trim back edges ending at u: drop entire conflict pairs
                    while pairs:
                        ll, lh, rl, rh = pairs[-1]
                        if ll == -1 and lh == -1:
                            lowest = lowpt[rl]
                        elif rl == -1 and rh == -1:
                            lowest = lowpt[ll]
                        else:
                            lowest = min(lowpt[ll], lowpt[rl])
                        if lowest != hu:
                            break
                        pop()
                        if ll != -1:
                            side[ll] = -1
                    if pairs:  # one more conflict pair to consider
                        pll, plh, prl, prh = pop()
                        while plh != -1 and head[plh] == u:  # trim left interval
                            plh = ref[plh]
                        if plh == -1 and pll != -1:
                            ref[pll] = prl
                            side[pll] = -1
                            pll = -1
                        while prh != -1 and head[prh] == u:  # trim right interval
                            prh = ref[prh]
                        if prh == -1 and prl != -1:
                            ref[prl] = pll
                            side[prl] = -1
                            prl = -1
                        push((pll, plh, prl, prh))
                        # side of e is the side of a highest return edge
                        if lowpt[e] < hu:
                            if plh != -1 and (prh == -1 or lowpt[plh] > lowpt[prh]):
                                ref[e] = plh
                            else:
                                ref[e] = prh
                    # back to u, integrating e
                    x = e
                    v = u
                    hv = hu
                    e = parent_edge[u]
                    adj = ordered[u]
                    deg = len(adj)
                    i = ind[u]
            # integrate new return edges of ei
            ei = x
            x = -1
            i += 1
            if lowpt[ei] >= hv:
                continue
            if i == 1:  # first child/edge inherits directly
                lowpt_edge[e] = lowpt_edge[ei]
                continue
            # add the constraints of ei as one new conflict pair P
            pll = plh = prl = prh = -1
            bottom = stack_bottom[ei]
            low_e = lowpt[e]
            # merge return edges of ei into P.R
            while True:
                qll, qlh, qrl, qrh = pop()
                if qll != -1 or qlh != -1:  # swap Q's sides
                    if qrl != -1 or qrh != -1:
                        return None  # non-planar: both sides taken
                    qrl = qll
                    qrh = qlh
                if lowpt[qrl] > low_e:  # merge intervals
                    if prl == -1 and prh == -1:
                        prh = qrh
                    else:
                        ref[prl] = qrh
                    prl = qrl
                else:  # align
                    ref[qrl] = lowpt_edge[e]
                if len(pairs) == bottom:
                    break
            # merge conflicting return edges of e_1..e_{i-1} into P.L
            low_b = lowpt[ei]
            while pairs:
                qll, qlh, qrl, qrh = pairs[-1]
                if qrh != -1 and lowpt[qrh] > low_b:  # swap Q's sides
                    if qlh != -1 and lowpt[qlh] > low_b:
                        return None  # non-planar: both sides conflict
                    qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
                elif qlh == -1 or lowpt[qlh] <= low_b:
                    break
                pop()
                # merge interval below lowpt(ei) into P.R
                ref[prl] = qrh
                if qrl != -1:
                    prl = qrl
                if pll == -1 and plh == -1:
                    plh = qlh
                else:
                    ref[pll] = qlh
                pll = qll
            if pll != -1 or plh != -1 or prl != -1 or prh != -1:
                push((pll, plh, prl, prh))

    # -- phase 3: embedding --------------------------------------------------
    for x in range(m):
        c = ref[x]
        if c != -1:  # resolve the absolute side through the ref chain
            if ref[c] != -1:
                chain = []
                while ref[c] != -1:
                    chain.append(c)
                    c = ref[c]
                for y in reversed(chain):
                    side[y] *= side[ref[y]]
                    ref[y] = -1
            side[x] *= side[ref[x]]
            ref[x] = -1
        if side[x] < 0:
            nesting[x] = -nesting[x]
    first = [-1] * n
    nxt = [0] * (2 * m)
    prv = [0] * (2 * m)
    for v, o in enumerate(out):
        if not o:
            continue
        if len(o) > 1:
            o = sorted(o, key=by_nesting)
        ordered[v] = o
        first[v] = 2 * o[0]
        p = 2 * o[-1]
        for x in o:
            h = 2 * x
            nxt[p] = h
            prv[h] = p
            p = h

    # Insert every edge's head half-edge 2x + 1 around its head.
    left_ref = [-1] * n
    right_ref = [-1] * n
    for r in roots:
        v, adj, i = r, ordered[r], 0
        deg = len(adj)
        while True:
            if i == deg:  # v is finished: back to its parent
                if v == r:
                    break
                v = tail[parent_edge[v]]
                adj = ordered[v]
                deg = len(adj)
                i = ind[v]
                continue
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
                v = w
                adj = ordered[w]
                deg = len(adj)
                i = 0
                continue
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
