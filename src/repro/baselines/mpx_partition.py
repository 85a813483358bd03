"""Exponential-shift clustering baseline (Miller-Peng-Xu / Elkin-Neiman).

The paper remarks (Section 1.1) that the partition of Elkin and Neiman
[12], as adapted in [13, 14], yields parts of diameter ``O(log n / eps)``
with at most ``eps * m`` cut edges w.h.p., giving an alternative Stage I
that costs ``O(log^2 n * poly(1/eps))`` rounds overall.  This module
implements that baseline via the classic exponential-shift clustering:

* every node draws ``delta_u ~ Exp(beta)``;
* node ``v`` joins the cluster of the center maximizing
  ``delta_u - d(u, v)``;
* each edge is cut with probability ``O(beta)`` and cluster radii are
  ``O(log n / beta)`` w.h.p.

With ``beta = eps`` this is the ablation partner of Stage I in benchmark
E12: its round cost scales with the cluster radius ``O(log n / eps)``
(each BFS level is one round), whereas Stage I pays
``O(log n * poly(1/eps))`` with the ``log n`` factor *per phase* but only
``O(log 1/eps)`` phases.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional

import networkx as nx

from ..congest.topology import compile_topology
from ..errors import GraphInputError
from ..graphs.utils import id_key, require_simple
from ..partition.dense import DensePartitionState


@dataclass
class MPXResult:
    """Exponential-shift clustering outcome.

    Attributes:
        partition: the clusters' Dijkstra trees as a dense partition
            state (``None`` for the empty graph).
        rounds: CONGEST round cost: the maximal start delay plus the
            maximal cluster depth plus one announcement round (each BFS
            wavefront level is one round in the standard implementation).
        max_shift: the largest exponential shift drawn.
        beta: the rate parameter used.
    """

    partition: Optional[DensePartitionState]
    rounds: int
    max_shift: float
    beta: float

    @property
    def cut_size(self) -> int:
        """Number of inter-cluster edges."""
        return self.partition.cut_size() if self.partition is not None else 0


def mpx_partition(
    graph: nx.Graph,
    beta: float,
    seed: Optional[int] = None,
) -> MPXResult:
    """Cluster *graph* with exponential shifts of rate *beta*.

    Every edge is cut with probability at most ``beta`` (in expectation
    ``E[cut] <= beta * m``), and every cluster has radius
    ``O(log(n)/beta)`` with high probability.
    """
    require_simple(graph, "mpx_partition input")
    if not 0 < beta <= 1:
        raise GraphInputError(f"beta must be in (0, 1], got {beta}")
    rng = random.Random(seed)
    shifts: Dict[Any, float] = {
        v: rng.expovariate(beta) for v in sorted(graph.nodes(), key=repr)
    }
    # Multi-source Dijkstra on keys d(u, v) - delta_u; ties broken by
    # center id, then by node id in ``id_key`` order (so mixed labels
    # never compare across types), for determinism.
    best_key: Dict[Any, float] = {}
    predecessor: Dict[Any, Optional[Any]] = {}  # filled as nodes settle
    heap = []
    for v in graph.nodes():
        key = -shifts[v]
        best_key[v] = key
        heapq.heappush(heap, (key, repr(v), id_key(v), v, v, None))
    while heap:
        key, _center_tie, _node_tie, v, center, pred = heapq.heappop(heap)
        if v in predecessor:
            continue
        predecessor[v] = pred
        for w in graph.adj[v]:
            if w in predecessor:
                continue
            new_key = key + 1.0
            if new_key < best_key[w] - 1e-12:
                best_key[w] = new_key
                heapq.heappush(heap, (new_key, repr(center), id_key(w), w, center, v))

    partition = None
    if predecessor:  # a root's predecessor None maps to -1
        topology = compile_topology(graph)
        parent = [topology.index.get(predecessor[v], -1) for v in topology.nodes]
        partition = DensePartitionState.from_forest(topology, parent)
    max_depth = partition.max_height() if partition is not None else 0
    max_shift = max(shifts.values()) if shifts else 0.0
    rounds = int(math.ceil(max_shift)) + max_depth + 1
    return MPXResult(
        partition=partition, rounds=rounds, max_shift=max_shift, beta=beta
    )
