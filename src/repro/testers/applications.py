"""Corollary 16 and the remark after it: testing hereditary properties of
minor-free graphs.

One tester, :func:`test_hereditary_property`, partitions the graph
(deterministically per Theorem 3, or randomized per Theorem 4) with the
edge-cut target ``epsilon * m / 2``, then verifies the property inside
every part, all parts at once on the dense partition state:

* cycle-freeness: any BFS non-tree edge closes a cycle;
* bipartiteness: any non-tree edge joining equal BFS parities closes an
  odd cycle;
* planarity: the part's LR embedding exists (the part is collected at
  its root: ``O(n_j)`` edge words, by the density check);
* outerplanarity: the part plus one universal apex node is planar (all
  nodes fit on one face).

Corollary 16 states the first two; the paper's remark after it extends
the argument to any hereditary property that can be verified in a number
of rounds polynomial in the part diameter, and the last two are such
properties.  Soundness: when G is epsilon-far from the property,
removing the <= ``epsilon m / 2`` cut edges cannot make it close, so
some part still violates the property, and its check finds that
deterministically.  Completeness: parts of a satisfying graph are
subgraphs, hence satisfy the hereditary property, so the deterministic
variant errs on *no* input satisfying the minor-free promise, and the
randomized variant fails only when the partition misses its cut target
(probability <= delta).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..congest.ledger import TreeCostModel
from ..graphs.utils import edge_count, require_simple
from ..partition.weighted_selection import partition_by_method
from ..planarity.lr_planarity import LocalGraph, lr_embedding
from .results import ApplicationTestResult
from .stage2 import extract_part_subgraphs

PROPERTIES = ("cycle-free", "bipartite", "planar", "outerplanar")
"""The properties :func:`test_hereditary_property` verifies."""


def _with_apex(part: LocalGraph) -> LocalGraph:
    """*part* plus one node adjacent to every node: planar iff *part* is
    outerplanar."""
    n = part.n
    rows = [row + [n] for row in part.rows]
    rows.append(list(range(n)))
    return LocalGraph([*part.nodes, object()], part.index, rows)


def _verify_parts(graph: nx.Graph, state, prop: str) -> Tuple[List[Any], int]:
    """Verify *prop* in every part of *state*; returns (rejecting pids,
    max rounds).

    One multi-source BFS from every part root over the intra-part edge
    arrays gives every node's depth, and a scatter-max over ``part_of``
    each part's.  Cycle-freeness and bipartiteness then run the non-tree
    / parity predicates vectorized over all intra-part edges at once.
    Dense indices sort like ``id_key``, so the min-index parent at depth
    ``d - 1`` is exactly ``deterministic_bfs_tree``'s min-id parent:
    each part's verdict is that of a per-part BFS tree check.  Planarity
    and outerplanarity run the LR embedding on the parts that Stage II's
    :func:`extract_part_subgraphs` relabels.  A part's rounds are its
    BFS + one (depth, parent) exchange, plus ``n_j`` for collecting the
    part at its root for the two LR properties.
    """
    if state is None:  # the empty graph has no parts
        return [], 0
    topology = state.topology
    n = topology.n
    ids = topology.nodes
    part_of = state.part_of
    roots = state.roots
    intra = part_of[state.eu] == part_of[state.ev]
    ieu = state.eu[intra]
    iev = state.ev[intra]

    depth = np.full(n, -1, dtype=np.int64)
    depth[roots] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[roots] = True
    level = 0
    while True:
        level += 1
        hit = np.zeros(n, dtype=bool)
        hit[iev[frontier[ieu]]] = True
        hit[ieu[frontier[iev]]] = True
        new = hit & (depth < 0)
        if not new.any():
            break
        depth[new] = level
        frontier = new
    tallest = np.zeros(n, dtype=np.int64)
    np.maximum.at(tallest, part_of, depth)
    rounds = tallest[roots] + 1 + TreeCostModel().neighbor_exchange()

    if prop in ("planar", "outerplanar"):
        rounds += np.bincount(part_of, minlength=n)[roots]
        parts = extract_part_subgraphs(graph, state)
        if prop == "outerplanar":
            parts = {pid: _with_apex(part) for pid, part in parts.items()}
        rejecting = [pid for pid, part in parts.items() if lr_embedding(part) is None]
        return rejecting, int(rounds.max())

    # BFS parent per non-root node: minimum intra-part neighbor one
    # level up (min dense index == min id_key).
    parent = np.full(n, n, dtype=np.int64)
    du = depth[ieu]
    dv = depth[iev]
    up = dv == du + 1
    np.minimum.at(parent, iev[up], ieu[up])
    down = du == dv + 1
    np.minimum.at(parent, ieu[down], iev[down])

    bad = (parent[iev] != ieu) & (parent[ieu] != iev)
    if prop == "bipartite":
        bad &= du % 2 == dv % 2
    rejecting_roots = np.unique(part_of[ieu[bad]])
    return [ids[r] for r in rejecting_roots.tolist()], int(rounds.max())


def test_hereditary_property(
    graph: nx.Graph,
    prop: str,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> ApplicationTestResult:
    """Test the hereditary property *prop* on a minor-free graph.

    Args:
        graph: the input graph (minor-free promise with arboricity
            <= alpha for the partition quality guarantee).
        prop: one of :data:`PROPERTIES` (``"cycle-free"``,
            ``"bipartite"``, ``"planar"``, ``"outerplanar"``).
        epsilon: distance parameter; the partition targets a cut of
            ``epsilon * m / 2`` edges.
        alpha: the arboricity bound of the promise.
        method: ``"deterministic"`` (Theorem 3: ``O(poly(1/eps) log n)``
            rounds, never errs on promise-satisfying inputs) or
            ``"randomized"`` (Theorem 4: ``O(poly(1/eps) (log 1/delta +
            log* n))`` rounds, success probability >= 1 - delta).
        delta / seed: the randomized partition's failure bound and seed.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; choose from {PROPERTIES}")
    require_simple(graph)
    target_cut = epsilon * edge_count(graph) / 2  # Corollary 16
    stage1 = partition_by_method(graph, epsilon, method, target_cut, delta, alpha, seed)
    rejecting, verify_rounds = _verify_parts(graph, stage1.partition, prop)
    return ApplicationTestResult(
        accepted=not rejecting,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        partition_result=stage1,
        partition_rounds=stage1.rounds,
        verification_rounds=verify_rounds,
        property_name=prop,
    )


def test_cycle_freeness(
    graph: nx.Graph,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> ApplicationTestResult:
    """Corollary 16 cycle-freeness tester (minor-free promise)."""
    return test_hereditary_property(
        graph, "cycle-free", epsilon, alpha, method, delta, seed
    )


def test_bipartiteness(
    graph: nx.Graph,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> ApplicationTestResult:
    """Corollary 16 bipartiteness tester (minor-free promise)."""
    return test_hereditary_property(
        graph, "bipartite", epsilon, alpha, method, delta, seed
    )
