"""Generators of graphs that are certifiably far from planarity.

Every generator returns ``(graph, certified_farness_lower_bound)`` where
the bound is a *proven* lower bound on the fraction of edges that must be
removed to obtain a planar graph (via Euler-formula skewness bounds or
vertex-disjoint Kuratowski subgraphs).  Benchmarks use the certificate to
assert that an instance really is epsilon-far before measuring detection,
replacing the paper's probabilistic-method constants with per-instance
certificates (ARCHITECTURE.md, "Paper substitutions", item 3).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional, Tuple

import networkx as nx

from ..errors import GraphInputError
from .distance import planarity_farness_lower_bound
from .generators import random_apollonian
from .utils import edge_count


def _connect(graph: nx.Graph, rng: random.Random) -> None:
    """Stitch components together with single edges (keeps graphs sparse)."""
    components = [sorted(c) for c in nx.connected_components(graph)]
    for first, second in zip(components, components[1:]):
        graph.add_edge(rng.choice(first), rng.choice(second))


def gnp_far(
    n: int,
    average_degree: float = 14.0,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, float]:
    """Connected ``G(n, c/n)``; far from planar once ``c`` exceeds ~6.

    A planar graph has at most ``3n - 6`` edges, so a graph with
    ``m ~ cn/2`` edges has skewness at least ``m - 3n + 6``; the certified
    farness is therefore roughly ``1 - 6/c``.
    """
    if n < 8:
        raise GraphInputError("gnp_far needs n >= 8")
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(n, average_degree / n, seed=rng.randrange(2**31))
    _connect(graph, rng)
    return graph, planarity_farness_lower_bound(graph)


def random_regular_far(
    n: int,
    degree: int = 10,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, float]:
    """Random d-regular graph; certified farness ~ ``1 - 6/d``.

    Bounded-degree far instances match the regime of the paper's lower
    bound discussion (Censor-Hillel et al. use bounded-degree graphs).
    """
    if degree < 7:
        raise GraphInputError("random_regular_far needs degree >= 7 to certify")
    if n * degree % 2:
        n += 1
    graph = nx.random_regular_graph(degree, n, seed=seed)
    rng = random.Random(seed)
    _connect(graph, rng)
    return graph, planarity_farness_lower_bound(graph)


def planted_kuratowski(
    n: int,
    count: Optional[int] = None,
    minor: str = "k5",
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, float]:
    """A planar base graph with *count* vertex-disjoint planted K5s/K33s.

    Each planted Kuratowski subgraph requires at least one edge removal
    (removing base edges cannot make K5/K33 planar), and the plantings are
    vertex-disjoint, so the skewness is at least *count*; the certificate
    is ``count / m``.  With ``count = Theta(n)`` the graph is
    Theta(1)-far while remaining sparse and "locally planar-looking" --
    the hard regime for the tester.
    """
    clique_size = 5 if minor == "k5" else 6
    if minor not in ("k5", "k33"):
        raise GraphInputError("minor must be 'k5' or 'k33'")
    if count is None:
        count = max(1, n // (4 * clique_size))
    if n < clique_size * count:
        raise GraphInputError(
            f"need n >= {clique_size * count} nodes for {count} plantings"
        )
    rng = random.Random(seed)
    graph = random_apollonian(n, seed=rng.randrange(2**31))
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    planted = 0
    for i in range(count):
        group = nodes[i * clique_size : (i + 1) * clique_size]
        if minor == "k5":
            graph.add_edges_from(combinations(group, 2))
        else:
            left, right = group[:3], group[3:]
            graph.add_edges_from((u, v) for u in left for v in right)
        planted += 1
    m = edge_count(graph)
    certificate = max(planted / m, planarity_farness_lower_bound(graph))
    return graph, certificate


def dense_planar_plus_matching(
    n: int,
    extra_fraction: float = 0.5,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, float]:
    """Maximal planar graph plus ``extra_fraction * n`` random extra edges.

    Since the base already has ``3n - 6`` edges, every extra edge pushes
    the graph past the planar budget: skewness >= #extra, giving a
    certificate of ``extra / m``.
    """
    if not 0 < extra_fraction <= 3:
        raise GraphInputError("extra_fraction must be in (0, 3]")
    rng = random.Random(seed)
    graph = random_apollonian(n, seed=rng.randrange(2**31))
    want = int(extra_fraction * n)
    added = 0
    attempts = 0
    while added < want and attempts < 50 * want:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            added += 1
    return graph, added / edge_count(graph)


FAR_FAMILIES = {
    "gnp": gnp_far,
    "regular": lambda n, seed=None: random_regular_far(n, degree=10, seed=seed),
    "planted-k5": lambda n, seed=None: planted_kuratowski(n, minor="k5", seed=seed),
    "planted-k33": lambda n, seed=None: planted_kuratowski(n, minor="k33", seed=seed),
    "planar-plus": dense_planar_plus_matching,
}
"""Named far-from-planar families ``f(n, seed) -> (graph, farness_lb)``."""


def make_far(family: str, n: int, seed: Optional[int] = None) -> Tuple[nx.Graph, float]:
    """Build a named far family member (see :data:`FAR_FAMILIES`)."""
    try:
        builder = FAR_FAMILIES[family]
    except KeyError:
        raise GraphInputError(
            f"unknown far family {family!r}; choose from {sorted(FAR_FAMILIES)}"
        ) from None
    return builder(n, seed=seed)
