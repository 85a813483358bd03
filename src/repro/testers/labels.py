"""Embedding-derived lexicographic node labels (paper Section 2.2.2).

Within each part, Stage II builds a BFS tree ``T_B`` and, using the
circular clockwise ordering of each node's incident edges from the
combinatorial embedding, labels every tree edge by its position among the
node's child edges *counting clockwise from the parent edge* (the root
starts at an arbitrary first edge).  A node's label is the concatenation
of the edge labels on its root path; lexicographic order over labels is
exactly DFS preorder of ``T_B`` with children visited in rotation order,
so we assign each node its preorder *rank* -- an equivalent, compact
representation of the order.

Every function takes a relabeled
:class:`~repro.planarity.lr_planarity.LocalGraph` and walks a
:class:`~repro.planarity.rotation.HalfEdgeRing` and int lists over its
indices; corner positions are a list over the ring's half-edges.
Callers holding a networkx graph relabel once with
:meth:`LocalGraph.from_graph` and get the ring from
:func:`~repro.planarity.lr_planarity.check_planarity` or
:func:`~repro.planarity.embedding.identity_rotation`, which keep the
networkx boundary.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import GraphInputError
from ..planarity.lr_planarity import LocalGraph
from ..planarity.rotation import HalfEdgeRing


def deterministic_bfs_tree(
    graph: LocalGraph, root: int
) -> Tuple[List[int], List[int]]:
    """BFS tree matching the distributed construction of Section 2.2.1.

    All nodes of depth ``d`` announce in the same round, so a node at
    depth ``d + 1`` picks the minimum-id announcing neighbor as its
    parent -- the same rule as :class:`repro.congest.programs.bfs`
    (ties by :func:`~repro.graphs.utils.id_key`).

    Returns (parents, depths), lists over *graph*'s indices with
    ``parents[root] == -1``.
    """
    rows = graph.rows
    n = len(rows)
    keys = graph.id_keys()
    depth = [-1] * n
    parent = [-1] * n
    depth[root] = 0
    order = [root]
    for v in order:  # grows while it is walked: the BFS queue
        d = depth[v] + 1
        key = keys[v]
        for w in rows[v]:
            dw = depth[w]
            if dw < 0:
                depth[w] = d
                parent[w] = v
                order.append(w)
            elif dw == d and key < keys[parent[w]]:  # a smaller announcer
                parent[w] = v
    if len(order) != n:
        raise GraphInputError("BFS labeling requires a connected part")
    return parent, depth


def _children_in_rotation_order(ring: HalfEdgeRing, to, parent, v: int) -> List[int]:
    """Children of *v* in ``T_B``, ordered clockwise from the parent edge.

    For the root the order starts at the rotation's first entry, which is
    the emulation of "r_j arbitrarily labels one of its incident edges by
    1" -- any fixed starting edge satisfies the paper's requirement.
    """
    start = ring.first[v]
    if start < 0:
        return []
    nxt = ring.nxt
    p = parent[v]
    if p >= 0:
        while to[start] != p:
            start = nxt[start]
        start = nxt[start]
    children = []
    h = start
    while True:
        w = to[h]
        if parent[w] == v and w != p:
            children.append(w)
        h = nxt[h]
        if h == start:
            return children


def embedding_ranks(
    graph: LocalGraph, root: int, rotation: HalfEdgeRing, parents: Sequence[int]
) -> List[int]:
    """Preorder rank of every node under the embedding-ordered DFS of T_B.

    Ranks realize the lexicographic order on the paper's labels: the
    label of u is a strict prefix of v's iff u is an ancestor of v (and
    then rank(u) < rank(v)); otherwise the first differing edge label
    orders the subtrees exactly as rotation-ordered DFS does.
    """
    n = graph.n
    to = rotation.targets()
    ranks = [-1] * n
    counter = 0
    stack = [root]
    while stack:
        v = stack.pop()
        ranks[v] = counter
        counter += 1
        # Push children in reverse so the first child is visited first.
        stack.extend(reversed(_children_in_rotation_order(rotation, to, parents, v)))
    if counter != n:
        raise GraphInputError(
            "rotation order did not reach every node; embedding does not "
            "match the part"
        )
    return ranks


def non_tree_intervals(
    graph: LocalGraph, parents: Sequence[int], ranks: Sequence[int]
) -> List[Tuple[int, int, int, int]]:
    """Non-tree edges of T_B as rank intervals ``(a, b, u, v)`` with a < b.

    Definition 7 orients each edge so the smaller label comes first; the
    returned tuples keep the endpoint indices for reporting.
    """
    intervals = []
    for u, row in enumerate(graph.rows):
        pu = parents[u]
        a = ranks[u]
        for v in row:
            if v > u and v != pu and parents[v] != u:
                b = ranks[v]
                intervals.append((b, a, v, u) if a > b else (a, b, u, v))
    return intervals


def max_label_length(depths: Sequence[int]) -> int:
    """Length (in edge labels = id-sized words) of the longest node label."""
    return max(depths, default=0)


def euler_tour_positions(
    graph: LocalGraph, root: int, rotation: HalfEdgeRing, parents: Sequence[int]
) -> Tuple[List[int], int]:
    """Corner positions of non-tree half-edges along the tree's Euler tour.

    The complement of a spanning tree in the sphere is a single disk whose
    boundary is the tree's facial walk; every non-tree edge is a chord of
    that disk, attached at the *corner* (angular gap between consecutive
    tree edges in the rotation) where it appears.  The walk assigns each
    non-tree half-edge a distinct position; a rotation system is a
    genus-0 embedding of the part iff no two chords interlace in this
    circular order.

    This is the corner-refined variant of the paper's labeling: the
    literal Claim 10 labeling (first-visit preorder ranks, see
    :func:`embedding_ranks`) discards the corner information and admits
    interlacements even on planar embeddings (e.g. the 3x3 grid --
    reproduced in the test-suite), whereas the corner positions restore
    the exact planarity characterization with the same O(D)-round,
    O(log n)-bit-label distributed implementation (the root distributes
    prefix sums of subtree corner counts down ``T_B``).

    Returns:
        (positions, total): ``positions[h]`` is the walk position of
        *rotation*'s half-edge ``h`` when it is a non-tree half-edge and
        ``-1`` when it is a tree half-edge; ``total`` is the number of
        positions assigned (= 2 * number of non-tree edges).
    """
    nxt = rotation.nxt
    to = rotation.targets()
    positions = [-1] * len(to)
    if graph.n <= 1:
        return positions, 0

    # Start by traversing the first tree edge of the root's rotation; the
    # gap preceding it is scanned on the final return.
    start = first = rotation.first[root]
    if first < 0:
        raise GraphInputError("the root has no tree edge")
    while parents[to[start]] != root:
        start = nxt[start]
        if start == first:
            raise GraphInputError("the root has no tree edge")
    current = to[start]
    incoming = start ^ 1  # the tour's current half-edge, seen from `current`
    counter = 0
    for _ in range(2 * (graph.n - 1) - 1):  # the remaining tree half-edges
        h = nxt[incoming]
        while True:
            w = to[h]
            if parents[w] == current or parents[current] == w:
                current = w
                incoming = h ^ 1
                break
            positions[h] = counter
            counter += 1
            h = nxt[h]

    # Final gap at the root: from after the last incoming edge up to (and
    # excluding) the starting tree edge.
    if current != root:
        raise GraphInputError("Euler tour did not return to the root")
    h = nxt[incoming]
    while h != start:
        w = to[h]
        if parents[w] == root or parents[root] == w:
            raise GraphInputError("Euler tour missed a tree edge")
        positions[h] = counter
        counter += 1
        h = nxt[h]
    return positions, counter


def corner_intervals(
    graph: LocalGraph, parents: List[int], positions: List[int], ring: HalfEdgeRing
) -> List[Tuple[int, int]]:
    """Non-tree edges as corner-position intervals ``(a, b)``, a < b.

    *positions* is :func:`euler_tour_positions`' list over the half-edges
    of *ring*, the rotation it walked.  All 2k endpoints are distinct, so
    interlacement is exactly strict alternation around the disk boundary.
    Intervals come in networkx's ``graph.edges()`` order, which fixes the
    sampling order downstream.
    """
    first = ring.first
    nxt = ring.nxt
    to = ring.targets()
    half = [0] * graph.n  # u's half-edge to each neighbor, filled per row
    intervals = []
    # networkx yields edge (u, v) from u's row when v comes later.
    for u, row in enumerate(graph.rows):
        h = first[u]
        for _ in row:  # u's ring has one half-edge per row entry
            half[to[h]] = h
            h = nxt[h]
        pu = parents[u]
        for v in row:
            if v > u and v != pu and parents[v] != u:
                h = half[v]
                a = positions[h]
                b = positions[h ^ 1]
                intervals.append((b, a) if a > b else (a, b))
    return intervals
