"""Graph utilities: girth, diameter, short cycles, edge counts.

Pure-Python implementations on adjacency dictionaries; ``networkx`` graphs
are accepted everywhere.  These are substrate utilities used by the
generators, the farness certification, and the experiment harness.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from ..errors import GraphInputError


def id_key(node: Any):
    """Canonical total order on node ids.

    Integers compare numerically (the CONGEST convention: ids are
    O(log n)-bit integers and tie-breaks such as the forest-decomposition
    orientation use numeric order); any other id types are ordered by
    their repr, after all integers.  The emulated layer and the
    message-passing protocols must use the *same* order so cross-layer
    tests can compare their outputs exactly.
    """
    if isinstance(node, bool) or not isinstance(node, int):
        return (1, repr(node))
    return (0, node)


def has_self_loops(graph: nx.Graph) -> bool:
    """True if some node of *graph* is its own neighbor (one O(n) scan of
    the raw ``_adj`` rows; ``graph.adj`` would wrap each in an ``AtlasView``)."""
    return any(v in nbrs for v, nbrs in graph._adj.items())


def adjacency_slots(graph: nx.Graph) -> int:
    """Entries of the raw ``_adj`` rows: two per edge, one per self-loop.

    Counting there caches no view on the graph: ``number_of_edges()``
    caches a ``DegreeView`` and ``edges()`` an ``EdgeView``, and both
    point back at the graph, a reference cycle that keeps it alive until
    the cyclic collector runs.
    """
    return sum(map(len, graph._adj.values()))


def edge_count(graph: nx.Graph) -> int:
    """``graph.number_of_edges()``: half the degree sum, a self-loop adding
    two to its node's degree, read off ``_adj`` (see :func:`adjacency_slots`)."""
    return sum(len(nbrs) + (v in nbrs) for v, nbrs in graph._adj.items()) // 2


def iter_edges(graph: nx.Graph) -> Iterator[Tuple[Any, Any]]:
    """``graph.edges()``, in its order, walked over ``_adj`` (see
    :func:`adjacency_slots`)."""
    seen = set()
    for u, nbrs in graph._adj.items():
        for v in nbrs:
            if v not in seen:
                yield u, v
        seen.add(u)


def require_simple(graph: nx.Graph, name: str = "graph") -> None:
    """Raise :class:`GraphInputError` unless *graph* is simple undirected."""
    if graph.is_directed() or graph.is_multigraph():
        raise GraphInputError(f"{name} must be a simple undirected graph")
    if has_self_loops(graph):
        raise GraphInputError(f"{name} must not contain self-loops")


def bfs_levels(adj: Dict[Any, Iterable[Any]], source: Any) -> Dict[Any, int]:
    """Hop distances from *source* over an adjacency mapping."""
    depth = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = depth[v]
        for w in adj[v]:
            if w not in depth:
                depth[w] = dv + 1
                queue.append(w)
    return depth


def eccentricity(graph: nx.Graph, source: Any) -> int:
    """Eccentricity of *source* (graph must be connected)."""
    depth = bfs_levels(graph.adj, source)
    if len(depth) != graph.number_of_nodes():
        raise GraphInputError("eccentricity requires a connected graph")
    return max(depth.values())


EXACT_DIAMETER_NODES = 1200  # diameter() is exact up to this many nodes


def diameter(graph: nx.Graph, exact_threshold: int = EXACT_DIAMETER_NODES) -> int:
    """Diameter of a connected graph.

    Exact (all-sources BFS) for graphs up to *exact_threshold* nodes;
    beyond that a double-sweep lower bound is returned, which is exact on
    trees and a 2-approximation in general (documented: used only for
    reporting on very large instances).
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphInputError("diameter of the empty graph is undefined")
    if n == 1:
        return 0
    nodes = list(graph.nodes())
    if n <= exact_threshold:
        return max(max(bfs_levels(graph.adj, v).values()) for v in nodes)
    depth = bfs_levels(graph.adj, nodes[0])
    if len(depth) != n:
        raise GraphInputError("diameter requires a connected graph")
    far = max(depth, key=depth.get)
    depth2 = bfs_levels(graph.adj, far)
    return max(depth2.values())


def find_short_cycle(graph: nx.Graph, max_length: int) -> Optional[List[Any]]:
    """Find a cycle of length at most *max_length*, or None.

    Runs truncated BFS from every node: a cycle of length L passes within
    hop distance ``ceil(L/2)`` of each of its nodes, so depth
    ``ceil(max_length / 2)`` suffices for detection.
    """
    if max_length < 3:
        return None
    limit = (max_length + 1) // 2
    adj = graph.adj
    for source in graph.nodes():
        cycle = _short_cycle_from(adj, source, limit, max_length)
        if cycle is not None:
            return cycle
    return None


def _short_cycle_from(
    adj, source: Any, depth_limit: int, max_length: int
) -> Optional[List[Any]]:
    depth = {source: 0}
    parent: Dict[Any, Any] = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = depth[v]
        if dv >= depth_limit:
            continue
        for w in adj[v]:
            if w not in depth:
                depth[w] = dv + 1
                parent[w] = v
                queue.append(w)
            elif parent[v] != w and parent.get(w) != v:
                # Non-tree edge: extract the cycle through the meet point.
                cycle = _extract_cycle(parent, depth, v, w)
                if cycle is not None and len(cycle) <= max_length:
                    return cycle
    return None


def _extract_cycle(parent, depth, x: Any, y: Any) -> Optional[List[Any]]:
    """Cycle formed by tree paths from x and y to their meeting ancestor."""
    px, py = [x], [y]
    a, b = x, y
    while depth[a] > depth[b]:
        a = parent[a]
        px.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        py.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        px.append(a)
        py.append(b)
    # px ends at the common ancestor a == b; py likewise.
    cycle = px + py[-2::-1]
    if len(cycle) < 3:
        return None
    return cycle


def girth(graph: nx.Graph, upper_bound: Optional[int] = None) -> float:
    """Exact girth (length of shortest cycle), ``inf`` for forests.

    BFS from every node; ``upper_bound`` (when given) allows early exit as
    soon as a cycle of at most that length is found.
    """
    best = math.inf
    adj = graph.adj
    n = graph.number_of_nodes()
    for source in graph.nodes():
        best_here = _shortest_cycle_through(adj, source, best)
        best = min(best, best_here)
        if upper_bound is not None and best <= upper_bound:
            return best
        if best == 3:
            return 3
    return best


def _shortest_cycle_through(adj, source: Any, best: float) -> float:
    depth = {source: 0}
    parent = {source: None}
    queue = deque([source])
    local_best = best
    while queue:
        v = queue.popleft()
        dv = depth[v]
        if 2 * dv + 1 >= local_best:
            break
        for w in adj[v]:
            if w not in depth:
                depth[w] = dv + 1
                parent[w] = v
                queue.append(w)
            elif parent[v] != w:
                length = dv + depth[w] + 1
                if length < local_best:
                    local_best = length
    return local_best
