"""Baseline spanner constructions for the Corollary 17 comparison.

* :func:`cluster_spanner`: Elkin-Neiman-flavoured baseline -- MPX
  exponential-shift clusters' BFS trees plus one edge per adjacent
  cluster pair.  Stretch ``O(log n / beta)``; size ``n - k + #adjacent
  cluster pairs``.
* :func:`greedy_spanner`: the classic Althofer et al. greedy
  ``(2k-1)``-spanner: scan edges, keep an edge iff the current spanner
  distance between its endpoints exceeds the stretch budget.  Size
  ``O(n^{1+1/k})``; the strongest sequential size baseline (but not a
  distributed algorithm).

Both constructions accept an optional precompiled
:class:`~repro.congest.topology.CompiledTopology` of the input graph;
when given, the spanner comes back as a
:class:`~repro.applications.dense.DenseSpanner` (flat CSR-ready edge
arrays over the topology's index space) instead of a networkx graph,
so the E10 baseline column feeds the vectorized
:func:`~repro.applications.spanner.measure_stretch` directly without
re-converting the graph per trial.  The edge *set* is identical either
way -- the greedy scan order stays ``sorted(graph.edges(), key=repr)``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import networkx as nx
import numpy as np

from ..applications.dense import DenseSpanner, build_dense_spanner
from ..errors import GraphInputError
from ..graphs.utils import require_simple
from .mpx_partition import MPXResult, mpx_partition


def _to_dense_spanner(spanner: nx.Graph, topology):
    """Re-index an nx spanner as a DenseSpanner over *topology*."""
    index = topology.index
    count = spanner.number_of_edges()
    su = np.fromiter(
        (index[u] for u, _ in spanner.edges()), dtype=np.int64, count=count
    )
    sv = np.fromiter(
        (index[v] for _, v in spanner.edges()), dtype=np.int64, count=count
    )
    return DenseSpanner(topology, su, sv)


def cluster_spanner(
    graph: nx.Graph,
    beta: float,
    seed: Optional[int] = None,
    topology=None,
):
    """MPX-cluster spanner; returns (spanner, MPXResult).

    The spanner is every cluster's BFS tree plus, per adjacent cluster
    pair, the designated connector of the clusters'
    :class:`~repro.partition.dense.DenseAuxiliaryGraph` (the minimum
    oriented edge between them, as Stage I's merges use), both read off
    the clusters' dense partition by ``build_dense_spanner``.  With
    *topology* (the graph's compiled topology) the spanner is a
    :class:`~repro.applications.dense.DenseSpanner` over its index
    space; otherwise a networkx graph.  Same edge set either way.
    """
    result = mpx_partition(graph, beta=beta, seed=seed)
    if result.partition is None:
        raise GraphInputError("cluster_spanner requires at least one node")
    dense, _tree_edges, _connectors = build_dense_spanner(result.partition)
    if topology is not None:
        return DenseSpanner(topology, dense.su, dense.sv), result
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    spanner.add_edges_from(dense.edges())
    return spanner, result


def _bounded_distance(spanner: nx.Graph, source, target, limit: int) -> bool:
    """True iff ``d_spanner(source, target) <= limit`` (bounded BFS)."""
    if source == target:
        return True
    seen = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = seen[v]
        if d >= limit:
            continue
        for w in spanner.adj[v]:
            if w == target:
                return True
            if w not in seen:
                seen[w] = d + 1
                queue.append(w)
    return False


def greedy_spanner(graph: nx.Graph, stretch: int, topology=None):
    """Althofer et al. greedy *stretch*-spanner (stretch must be odd >= 1).

    Guarantees exact multiplicative stretch on every edge (hence every
    path).  Quadratic-ish running time; intended for baseline tables on
    graphs up to a few thousand nodes.  With *topology* the result is a
    :class:`~repro.applications.dense.DenseSpanner` (same edge set; the
    scan order never changes).
    """
    require_simple(graph, "greedy_spanner input")
    if stretch < 1 or stretch % 2 == 0:
        raise GraphInputError(f"stretch must be odd and >= 1, got {stretch}")
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    for u, v in sorted(graph.edges(), key=repr):
        if not _bounded_distance(spanner, u, v, stretch):
            spanner.add_edge(u, v)
    if topology is not None:
        return _to_dense_spanner(spanner, topology)
    return spanner
