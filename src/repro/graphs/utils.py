"""Graph utilities: girth, diameter, arboricity bounds, relabeling.

Pure-Python implementations on adjacency dictionaries; ``networkx`` graphs
are accepted everywhere.  These are substrate utilities used by the
generators, the farness certification, and the experiment harness.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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


def ensure_int_labels(graph: nx.Graph) -> Tuple[nx.Graph, Dict[Any, int]]:
    """Relabel nodes to ``0..n-1`` (sorted by repr); return (graph, mapping)."""
    mapping = {v: i for i, v in enumerate(sorted(graph.nodes(), key=repr))}
    return nx.relabel_nodes(graph, mapping, copy=True), mapping


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


def tree_height(parents: Dict[Any, Any], root: Any) -> int:
    """Height of a tree given as child -> parent pointers."""
    children: Dict[Any, List[Any]] = {}
    for child, parent in parents.items():
        children.setdefault(parent, []).append(child)
    height = 0
    frontier = [root]
    seen = {root}
    while frontier:
        nxt: List[Any] = []
        for v in frontier:
            for c in children.get(v, ()):
                if c in seen:
                    raise GraphInputError("parent pointers contain a cycle")
                seen.add(c)
                nxt.append(c)
        if nxt:
            height += 1
        frontier = nxt
    return height


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


def degeneracy(graph: nx.Graph) -> int:
    """Degeneracy (max over the core decomposition); 0 for edgeless graphs."""
    if graph.number_of_edges() == 0:
        return 0
    degrees = dict(graph.degree())
    buckets: Dict[int, Set[Any]] = {}
    for v, d in degrees.items():
        buckets.setdefault(d, set()).add(v)
    removed: Set[Any] = set()
    result = 0
    n = graph.number_of_nodes()
    current = 0
    for _ in range(n):
        while current not in buckets or not buckets[current]:
            current += 1
        v = buckets[current].pop()
        removed.add(v)
        result = max(result, current)
        for w in graph.adj[v]:
            if w in removed:
                continue
            d = degrees[w]
            buckets[d].discard(w)
            degrees[w] = d - 1
            buckets.setdefault(d - 1, set()).add(w)
        current = max(0, current - 1)
    return result


def greedy_forest_partition(graph: nx.Graph) -> List[List[Tuple[Any, Any]]]:
    """Split the edges into forests greedily (arboricity upper bound).

    Uses the degeneracy order: orienting each edge toward the earlier node
    in the order gives out-degree at most the degeneracy, and each node's
    k-th out-edge goes to the k-th forest; the result is a valid forest
    decomposition into at most ``degeneracy`` forests.
    """
    order = _degeneracy_order(graph)
    rank = {v: i for i, v in enumerate(order)}
    out_count: Dict[Any, int] = {v: 0 for v in graph.nodes()}
    forests: List[List[Tuple[Any, Any]]] = []
    for u, v in graph.edges():
        # orient from the later node toward the earlier node in the order
        tail, head = (u, v) if rank[u] > rank[v] else (v, u)
        index = out_count[tail]
        out_count[tail] += 1
        while len(forests) <= index:
            forests.append([])
        forests[index].append((tail, head))
    return forests


def _degeneracy_order(graph: nx.Graph) -> List[Any]:
    degrees = dict(graph.degree())
    buckets: Dict[int, Set[Any]] = {}
    for v, d in degrees.items():
        buckets.setdefault(d, set()).add(v)
    removed: Set[Any] = set()
    order: List[Any] = []
    current = 0
    for _ in range(graph.number_of_nodes()):
        while current not in buckets or not buckets[current]:
            current += 1
        v = buckets[current].pop()
        removed.add(v)
        order.append(v)
        for w in graph.adj[v]:
            if w in removed:
                continue
            d = degrees[w]
            buckets[d].discard(w)
            degrees[w] = d - 1
            buckets.setdefault(d - 1, set()).add(w)
        current = max(0, current - 1)
    return order


def arboricity_bounds(graph: nx.Graph) -> Tuple[int, int]:
    """(lower, upper) bounds on the Nash-Williams arboricity.

    Lower bound: ``max ceil(m_H / (n_H - 1))`` over the whole graph and all
    cores of the degeneracy decomposition.  Upper bound: the size of the
    greedy forest partition (at most the degeneracy).
    """
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if m == 0:
        return (0, 0)
    lower = max(1, math.ceil(m / max(1, n - 1)))
    # Cores give denser subgraphs: the k-core has min degree k, hence
    # m_core >= k * n_core / 2.
    core = nx.core_number(graph)
    for k in sorted(set(core.values()), reverse=True):
        nodes = [v for v, c in core.items() if c >= k]
        if len(nodes) < 2:
            continue
        sub = graph.subgraph(nodes)
        lower = max(lower, math.ceil(sub.number_of_edges() / (len(nodes) - 1)))
    upper = max(lower, len(greedy_forest_partition(graph)))
    return (lower, upper)
