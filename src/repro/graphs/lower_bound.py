"""The Section 3 lower-bound construction (Theorem 2, Claims 11 & 12).

The paper proves an ``Omega(log n)`` round lower bound for one-sided
testing of H-minor freeness via graphs that are (a) far from
``K_k``-minor freeness yet (b) contain no cycle shorter than
``log(n) / c``: within fewer than ``girth/2 - 1`` rounds, every node's
view is a tree, which is consistent with a planar (indeed cycle-free)
graph, so a one-sided tester must accept.

The construction samples ``G(n, p)`` and removes one edge from every
short cycle.  Claim 11 uses ``p = 1000 k^2 / n``; at laptop scale that
constant makes the graph nearly complete, so the generator exposes the
expected average degree directly and *certifies* the resulting farness a
posteriori via the girth-refined Euler bound (ARCHITECTURE.md, "Paper
substitutions", item 3):
a graph with girth ``g`` needs ``m <= g (n - 2)/(g - 2)`` to be planar,
so high-girth graphs with ``m = cn/2`` for ``c > 2`` have skewness
``~ (1 - 2/c) m``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import networkx as nx

from ..errors import GraphInputError
from .distance import planarity_farness_lower_bound
from .utils import _short_cycle_from, girth


@dataclass
class LowerBoundInstance:
    """A hard instance for one-sided minor-freeness testing.

    Attributes:
        graph: the final high-girth graph.
        girth: its exact girth (``inf`` if the surgery left a forest).
        target_girth: every shorter cycle was removed by surgery.
        removed_edges: how many edges the girth surgery deleted.
        farness_lower_bound: certified farness-from-planarity fraction.
        indistinguishability_radius: rounds for which every node's view
            is a tree.  An induced radius-r ball is acyclic iff the girth
            is at least ``2r + 2`` (a cycle of length L lies entirely
            within distance ``floor(L/2)`` of each of its nodes), so the
            radius is ``(girth - 2) // 2``.
    """

    graph: nx.Graph
    girth: float
    target_girth: int
    removed_edges: int
    farness_lower_bound: float

    @property
    def indistinguishability_radius(self) -> int:
        if self.girth == float("inf"):
            return self.graph.number_of_nodes()
        return max(0, (int(self.girth) - 2) // 2)


def lower_bound_instance(
    n: int,
    average_degree: float = 8.0,
    target_girth: Optional[int] = None,
    seed: Optional[int] = None,
) -> LowerBoundInstance:
    """Sample the Theorem 2 construction.

    Args:
        n: number of nodes.
        average_degree: expected average degree ``c`` of the initial
            ``G(n, c/n)`` sample; farness after surgery is roughly
            ``1 - 2/c``, so values of 6-12 give strongly far instances.
        target_girth: cycles strictly shorter than this are destroyed.
            Defaults to ``max(4, floor(log2(n) / 2))`` -- logarithmic in n,
            mirroring the ``log(n)/c(k)`` of Claim 12, with a constant
            small enough that surgery removes an o(1) edge fraction.
        seed: RNG seed.
    """
    if n < 16:
        raise GraphInputError("lower_bound_instance needs n >= 16")
    if target_girth is None:
        target_girth = max(4, int(math.log2(n) / 2))
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(n, average_degree / n, seed=rng.randrange(2**31))
    removed = _girth_surgery(graph, target_girth, rng)
    final_girth = girth(graph)
    return LowerBoundInstance(
        graph=graph,
        girth=final_girth,
        target_girth=target_girth,
        removed_edges=removed,
        farness_lower_bound=planarity_farness_lower_bound(graph),
    )


def _girth_surgery(graph: nx.Graph, target_girth: int, rng: random.Random) -> int:
    """Remove one random edge from every cycle shorter than *target_girth*.

    Scans sources in node order like
    :func:`~repro.graphs.utils.find_short_cycle`, but after each deletion
    resumes at the source that found the last cycle instead of the first
    node.  Every short cycle is still destroyed: a source on a short
    cycle always detects one, and deleting edges never creates a cycle.
    The detector can also report a nearby cycle that misses its source,
    so a rescan from the first node may cut a different edge first; the
    removed edge sets then differ, though rarely (every E11 instance
    matches the full rescan).
    """
    max_length = target_girth - 1
    if max_length < 3:
        return 0
    depth_limit = (max_length + 1) // 2
    adj = graph.adj
    removed = 0
    for source in graph:
        while True:
            cycle = _short_cycle_from(adj, source, depth_limit, max_length)
            if cycle is None:
                break
            index = rng.randrange(len(cycle))
            u, v = cycle[index], cycle[(index + 1) % len(cycle)]
            graph.remove_edge(u, v)
            removed += 1
    return removed


def view_is_tree(graph: nx.Graph, node, radius: int) -> bool:
    """True when the radius-*radius* ball around *node* is acyclic.

    This is the indistinguishability predicate behind Theorem 2: an
    ``r``-round (deterministic or one-sided randomized) algorithm's output
    at a node is a function of its radius-``r`` view; if that view is a
    tree it also occurs in some forest, and on forests (which are planar)
    a one-sided tester must accept.

    The ball is connected (every member has a BFS path inside it), so it
    is a tree exactly when it spans ``|ball| - 1`` edges; the edges are
    counted on the adjacency of a BFS truncated at *radius*.
    """
    adj = graph.adj
    ball = {node}
    frontier = [node]
    for _ in range(radius):
        reached = []
        for v in frontier:
            for w in adj[v]:
                if w not in ball:
                    ball.add(w)
                    reached.append(w)
        frontier = reached
    ends = sum(1 for v in ball for w in adj[v] if w in ball)
    return ends == 2 * (len(ball) - 1)


def all_views_are_trees(graph: nx.Graph, radius: int) -> bool:
    """True when every node's radius-*radius* view is a tree.

    Equivalent to ``girth > 2 * radius + 1``; checked directly on the
    balls for experiment transparency (and as a cross-check of the girth
    computation in tests).
    """
    return all(view_is_tree(graph, v, radius) for v in graph.nodes())
