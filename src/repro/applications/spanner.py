"""Corollary 17: spanners for unweighted minor-free graphs.

Given the Stage I (or Theorem 4) partition with edge-cut parameter
``epsilon``, the spanner consists of

* the spanning tree of every part (``n - k`` edges), and
* one designated connector edge per pair of adjacent parts (at most the
  number of cut edges, which is ``<= epsilon * n`` on minor-free inputs).

Size: ``(1 + O(epsilon)) n`` edges.  Stretch: an intra-part edge detours
through the part tree (``<= 2 * height``); a cut edge detours through the
two part trees plus the connector (``<= 4 * height + 1``); heights are
``poly(1/epsilon)`` by Claim 4.  Benchmark E10 measures size and exact
stretch against baselines.

The spanner is assembled as edge arrays straight from the partition's
:class:`~repro.partition.dense.DensePartitionState`
(:mod:`repro.applications.dense`); the networkx graph is materialized
only when someone asks for ``result.spanner``.  Stretch runs as one
batched BFS over CSR arrays.  Both are bit-identical to the dict
oracle's per-part walk and the per-source fold (benchmark E19).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

import networkx as nx

from ..errors import GraphInputError
from ..graphs.utils import require_simple
from ..partition.stage1 import Stage1Result
from ..partition.weighted_selection import partition_by_method
from .dense import (
    DenseSpanner,
    adjacency_csr,
    build_dense_spanner,
    multi_source_distances,
    stretch_from_distances,
)


@dataclass
class SpannerResult:
    """A constructed spanner plus provenance.

    Attributes:
        partition_result: the partition it was derived from.
        tree_edges: number of part spanning-tree edges.
        connector_edges: number of inter-part connector edges.
        guaranteed_stretch: the a-priori stretch bound
            ``4 * max_height + 1`` from the part trees.
        dense: the spanner as CSR edge arrays.
    """

    partition_result: Stage1Result
    tree_edges: int
    connector_edges: int
    guaranteed_stretch: int
    dense: DenseSpanner
    _graph: Optional[nx.Graph] = field(default=None, repr=False, compare=False)

    @property
    def spanner(self) -> nx.Graph:
        """The spanner subgraph (same node set as the input).

        Materialized on first access; fast-path consumers (vectorized
        stretch) read ``dense`` instead and never pay for it.
        """
        if self._graph is None:
            self._graph = self.dense.to_graph()
        return self._graph

    @property
    def size(self) -> int:
        """Number of spanner edges."""
        return self.dense.edge_count

    @property
    def rounds(self) -> int:
        """CONGEST rounds charged (partition + one designation exchange)."""
        return self.partition_result.rounds + 1


def build_spanner(
    graph: nx.Graph,
    epsilon: float = 0.1,
    method: str = "deterministic",
    delta: float = 0.1,
    alpha: int = 3,
    seed: Optional[int] = None,
) -> SpannerResult:
    """Build the Corollary 17 spanner.

    Args:
        graph: unweighted minor-free graph (the promise; other inputs
            yield a connected subgraph but the size bound may not hold).
        epsilon: edge-cut parameter; the partition targets
            ``epsilon * n`` cut edges per Theorems 3/4.
        method: ``"deterministic"`` (Theorem 3, ``O(poly(1/eps) log n)``
            rounds) or ``"randomized"`` (Theorem 4,
            ``O(poly(1/eps)(log 1/delta + log* n))`` rounds, size bound
            with probability ``>= 1 - delta``).
        delta / alpha / seed: as in the partition algorithms.
    """
    require_simple(graph, "build_spanner input")
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphInputError("build_spanner requires at least one node")
    result = partition_by_method(
        graph, epsilon, method, epsilon * n, delta, alpha, seed
    )
    dense, tree_edges, connector_edges = build_dense_spanner(result.partition)
    return SpannerResult(
        partition_result=result,
        tree_edges=tree_edges,
        connector_edges=connector_edges,
        guaranteed_stretch=4 * result.partition.max_height() + 1,
        dense=dense,
    )


def measure_stretch(
    graph: nx.Graph,
    spanner: Union[nx.Graph, DenseSpanner],
    sample_nodes: int = 16,
    seed: Optional[int] = None,
) -> float:
    """Exact stretch over BFS from a sample of source nodes.

    Returns ``max over sampled u, all v of d_S(u, v) / d_G(u, v)``; with
    ``sample_nodes >= n`` this is the exact stretch.  *spanner* may be a
    networkx graph or a :class:`DenseSpanner`.

    All sampled sources run as one batched BFS over the CSR arrays.  A
    networkx spanner whose node set differs from the graph's may carry
    shortest paths through spanner-only nodes, so it is measured with
    one networkx BFS per source instead (same sample, same float).
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    if sample_nodes < len(nodes):
        sources = rng.sample(nodes, sample_nodes)
    else:
        sources = nodes
    if not sources:
        return 1.0
    if isinstance(spanner, DenseSpanner):
        topology = spanner.topology
        span_csr = spanner.csr()
    else:
        topology, span_csr = _compile_nx_spanner(graph, spanner)
    if span_csr is None:
        return _stretch_per_source(graph, spanner, sources)

    import numpy as np

    arrays = topology.batch_arrays()
    src_idx = np.asarray([topology.index[v] for v in sources], dtype=np.int64)
    dist_g = multi_source_distances(
        arrays.indptr, arrays.indices, arrays.degrees, src_idx, topology.n
    )
    dist_s = multi_source_distances(
        span_csr[0], span_csr[1], span_csr[2], src_idx, topology.n
    )
    return stretch_from_distances(dist_g, dist_s)


def _stretch_per_source(graph: nx.Graph, spanner: nx.Graph, sources) -> float:
    """The worst ``d_S / d_G`` ratio by one networkx BFS pair per source."""
    worst = 1.0
    for source in sources:
        d_g = nx.single_source_shortest_path_length(graph, source)
        d_s = nx.single_source_shortest_path_length(spanner, source)
        for v, dg in d_g.items():
            if dg == 0:
                continue
            ds = d_s.get(v)
            if ds is None:
                raise GraphInputError("spanner does not span the graph")
            worst = max(worst, ds / dg)
    return worst


def _compile_nx_spanner(graph: nx.Graph, spanner: nx.Graph):
    """CSR form of a networkx spanner over *graph*'s dense index space.

    Returns ``(topology, (indptr, indices, degrees))``, or
    ``(topology, None)`` when the spanner's node set differs from the
    graph's.
    """
    from ..congest.topology import compile_topology

    topology = compile_topology(graph)
    if spanner.number_of_nodes() != topology.n or any(
        v not in topology.index for v in spanner.nodes()
    ):
        return topology, None
    import numpy as np

    index = topology.index
    su = np.fromiter(
        (index[u] for u, _ in spanner.edges()),
        dtype=np.int64,
        count=spanner.number_of_edges(),
    )
    sv = np.fromiter(
        (index[v] for _, v in spanner.edges()),
        dtype=np.int64,
        count=spanner.number_of_edges(),
    )
    return topology, adjacency_csr(topology.n, su, sv)
