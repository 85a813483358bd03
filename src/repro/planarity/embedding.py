"""Face traversal and Euler-formula verification for rotation systems.

Given a rotation system, the faces of the induced cellular embedding are
the orbits of the permutation ``next(u, v) = (v, cw_v(u))`` on half-edges.
For a connected graph the embedding is planar (genus 0) iff

    n - m + f == 2.

:func:`verify_planar_embedding` checks this per connected component and
additionally validates that the rotation system matches the graph's edge
set exactly.  This gives an *independent* certificate for embeddings
produced by the LR algorithm: any rotation bug shows up as a genus
violation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

import networkx as nx

from ..errors import EmbeddingError
from .lr_planarity import LocalGraph
from .rotation import HalfEdge, HalfEdgeRing, RotationSystem


def match_graph(rotations: RotationSystem, graph: nx.Graph) -> None:
    """Raise :class:`EmbeddingError` unless rotations match *graph* exactly.

    Every node of the graph must be present and every undirected edge must
    appear as exactly two half-edges (one per direction); no extras.
    """
    graph_nodes = set(graph.nodes())
    rot_nodes = set(rotations.nodes)
    if graph_nodes != rot_nodes:
        raise EmbeddingError(
            f"node sets differ: graph-only={graph_nodes - rot_nodes!r}, "
            f"rotation-only={rot_nodes - graph_nodes!r}"
        )
    half: Set[HalfEdge] = set(rotations.half_edges())
    expected: Set[HalfEdge] = set()
    for u, v in graph.edges():
        expected.add((u, v))
        expected.add((v, u))
    if half != expected:
        missing = expected - half
        extra = half - expected
        raise EmbeddingError(
            f"half-edge sets differ: missing={sorted(missing)[:4]!r}..., "
            f"extra={sorted(extra)[:4]!r}..."
        )


def faces(rotations: RotationSystem) -> List[List[HalfEdge]]:
    """Return the faces of the embedding as lists of half-edges.

    Each half-edge belongs to exactly one face; the face containing
    ``(u, v)`` continues with ``(v, cw_v(u))``.
    """
    remaining: Set[HalfEdge] = set(rotations.half_edges())
    out: List[List[HalfEdge]] = []
    while remaining:
        start = remaining.pop()
        face = [start]
        u, v = start
        while True:
            nxt = (v, rotations.next_cw(v, u))
            if nxt == start:
                break
            if nxt not in remaining:
                raise EmbeddingError(
                    f"face traversal revisited half-edge {nxt!r}; "
                    "rotation system is inconsistent"
                )
            remaining.discard(nxt)
            face.append(nxt)
            u, v = nxt
        out.append(face)
    return out


def genus_by_component(
    rotations: RotationSystem, graph: nx.Graph
) -> Dict[Any, Tuple[int, int, int, int]]:
    """Per-component ``(n, m, f, genus)`` from Euler's formula.

    The returned dict is keyed by an arbitrary representative node of
    each connected component.  ``genus = (2 - n + m - f) / 2``.
    """
    match_graph(rotations, graph)
    all_faces = faces(rotations)
    # Assign each face to the component of any node it touches; isolated
    # nodes have no half-edges and contribute one implicit face.
    component_of: Dict[Any, Any] = {}
    for comp in nx.connected_components(graph):
        rep = min(comp, key=repr)
        for node in comp:
            component_of[node] = rep
    face_count: Dict[Any, int] = {}
    for face in all_faces:
        rep = component_of[face[0][0]]
        face_count[rep] = face_count.get(rep, 0) + 1
    result: Dict[Any, Tuple[int, int, int, int]] = {}
    for comp in nx.connected_components(graph):
        rep = min(comp, key=repr)
        sub_n = len(comp)
        sub_m = graph.subgraph(comp).number_of_edges()
        f = face_count.get(rep, 1 if sub_m == 0 else 0)
        euler = sub_n - sub_m + f
        genus2 = 2 - euler
        if genus2 % 2 != 0 or genus2 < 0:
            raise EmbeddingError(
                f"component {rep!r} has impossible Euler characteristic "
                f"{euler} (n={sub_n}, m={sub_m}, f={f})"
            )
        result[rep] = (sub_n, sub_m, f, genus2 // 2)
    return result


def verify_planar_embedding(rotations: RotationSystem, graph: nx.Graph) -> None:
    """Raise :class:`EmbeddingError` unless rotations planarly embed *graph*."""
    stats = genus_by_component(rotations, graph)
    bad = {rep: s for rep, s in stats.items() if s[3] != 0}
    if bad:
        raise EmbeddingError(f"non-planar embedding: component genus {bad!r}")


def identity_rotation(graph):
    """An arbitrary (id-sorted) rotation system for *graph*.

    This is the fallback ordering used for parts on which the embedding
    algorithm fails to produce a planar embedding: the paper's
    Ghaffari-Haeupler step "is possible that an ordering is determined
    though Gj is not planar" -- detection then falls to the violating-edge
    machinery of Stage II, which is sound for arbitrary orderings.

    Neighbors are sorted by ``repr`` of their ids.  On a
    :class:`~repro.planarity.lr_planarity.LocalGraph` the result is the
    same order as a :class:`HalfEdgeRing` over its indices.
    """
    if not isinstance(graph, LocalGraph):
        local = LocalGraph.from_graph(graph)
        return identity_rotation(local).to_rotation_system(local.nodes)
    key = [repr(v) for v in graph.nodes].__getitem__
    return HalfEdgeRing.from_rotations([sorted(row, key=key) for row in graph.rows])
