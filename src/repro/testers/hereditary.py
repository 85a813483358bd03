"""Generic hereditary-property testing on minor-free graphs.

The paper notes after Corollary 16 that "similar statements can be
derived for any hereditary property that can either be verified or
(property) tested in a number of rounds that is polynomial in the
diameter".  This module provides that generalization:

* a property is supplied as a :class:`PartChecker` -- a per-part verifier
  that inspects one connected low-diameter part and returns a verdict
  plus its round cost (polynomial in the part diameter);
* the tester partitions the graph (Theorem 3 deterministically or
  Theorem 4 randomized) with cut target ``epsilon * m / 2`` and runs the
  checker inside every part in parallel.

Soundness argument (mirrors Corollary 16): the property is *hereditary*
(closed under taking subgraphs) and, for the distance transfer, closed
under disjoint unions of satisfying parts after removing the cut edges.
If G is epsilon-far, removing the <= epsilon*m/2 cut edges leaves some
part that still violates the property, and a sound checker flags it.
Completeness: parts of a satisfying graph are subgraphs, hence satisfy
the (hereditary) property, and a complete checker accepts them.

Built-in checkers: cycle-freeness, bipartiteness, planarity and
outerplanarity (via the "add a universal apex vertex, test planarity"
characterization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import networkx as nx

from ..graphs.utils import edge_count, require_simple
from ..partition.weighted_selection import partition_by_method
from ..planarity.lr_planarity import LocalGraph, check_planarity
from .labels import deterministic_bfs_tree
from .results import ApplicationTestResult

PartChecker = Callable[[nx.Graph, Any], Tuple[bool, int]]
"""A per-part verifier: ``checker(part_subgraph, root) -> (ok, rounds)``.

The returned round count must be polynomial in the part's diameter for
the overall round bound to hold; built-in checkers charge
``O(diameter)`` (a BFS plus constant-round local exchanges), matching
their distributed implementations.
"""


def _bfs_rounds(sub: nx.Graph, root: Any) -> Tuple[LocalGraph, List[int], int]:
    """*sub* relabeled, its BFS depths from *root*, and the rounds charged."""
    local = LocalGraph.from_graph(sub)
    _parents, depths = deterministic_bfs_tree(local, local.index[root])
    return local, depths, max(depths, default=0) + 2


def cycle_freeness_checker(sub: nx.Graph, root: Any) -> Tuple[bool, int]:
    """Accept iff the part is a tree (BFS + non-tree-edge scan)."""
    local, _depths, rounds = _bfs_rounds(sub, root)
    return local.m == local.n - 1, rounds


def bipartiteness_checker(sub: nx.Graph, root: Any) -> Tuple[bool, int]:
    """Accept iff the part has no odd cycle (BFS parity check).

    BFS depths of adjacent nodes differ by at most one, so an edge joins
    equal parities -- closing an odd cycle -- iff its ends share a depth;
    tree edges never do.
    """
    local, depths, rounds = _bfs_rounds(sub, root)
    for u, row in enumerate(local.rows):
        d = depths[u]
        for v in row:
            if depths[v] == d:
                return False, rounds
    return True, rounds


def planarity_checker(sub: nx.Graph, root: Any) -> Tuple[bool, int]:
    """Exact per-part planarity (LR), charged at the GH embedding cost.

    Unlike Stage II of Theorem 1 this leaks the oracle's verdict
    directly; it exists as the `verified in poly(diameter) rounds`
    flavour of the paper's remark (planarity of a D-diameter part is
    decidable in O(D) rounds by collecting the part at the root, whose
    edge count is O(n_j) by the density check).
    """
    local, _depths, rounds = _bfs_rounds(sub, root)
    rounds += local.n  # convergecast of O(n_j) edge words
    return check_planarity(sub).is_planar, rounds


def outerplanarity_checker(sub: nx.Graph, root: Any) -> Tuple[bool, int]:
    """Accept iff the part is outerplanar.

    A graph is outerplanar iff adding one universal apex vertex keeps it
    planar (all nodes must fit on the outer face).  Outerplanar graphs
    are K4- and K23-minor free, so outerplanarity is a hereditary,
    minor-closed property -- exactly the setting of the paper's remark.
    """
    local, _depths, rounds = _bfs_rounds(sub, root)
    rounds += local.n
    apex = object()  # guaranteed-fresh node id
    augmented = nx.Graph(sub)
    augmented.add_edges_from((apex, v) for v in sub.nodes())
    return check_planarity(augmented).is_planar, rounds


BUILTIN_CHECKERS = {
    "cycle-free": cycle_freeness_checker,
    "bipartite": bipartiteness_checker,
    "planar": planarity_checker,
    "outerplanar": outerplanarity_checker,
}
"""Named built-in part checkers for :func:`test_hereditary_property`."""


@dataclass
class HereditaryTestResult(ApplicationTestResult):
    """ApplicationTestResult plus the checker's name for reporting."""

    property_name: str = ""


def test_hereditary_property(
    graph: nx.Graph,
    checker: PartChecker | str,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> HereditaryTestResult:
    """Test any hereditary property on a minor-free graph.

    Args:
        graph: the input graph (minor-free promise with arboricity
            <= alpha for the partition quality guarantee).
        checker: a :data:`PartChecker` or the name of a built-in
            (``"cycle-free"``, ``"bipartite"``, ``"planar"``,
            ``"outerplanar"``).
        epsilon: distance parameter; the partition targets a cut of
            ``epsilon * m / 2`` edges.
        alpha / method / delta / seed: as in the Corollary 16 testers.

    Returns:
        A :class:`HereditaryTestResult`; one-sided for sound-and-complete
        checkers (deterministic method), success probability >= 1 - delta
        for the randomized partition.
    """
    require_simple(graph, "test_hereditary_property input")
    if isinstance(checker, str):
        name = checker
        try:
            checker = BUILTIN_CHECKERS[checker]
        except KeyError:
            raise ValueError(
                f"unknown built-in checker {checker!r}; choose from "
                f"{sorted(BUILTIN_CHECKERS)}"
            ) from None
    else:
        name = getattr(checker, "__name__", "custom")

    target_cut = epsilon * edge_count(graph) / 2
    stage1 = partition_by_method(graph, epsilon, method, target_cut, delta, alpha, seed)

    rejecting = []
    max_rounds = 0
    state = stage1.partition
    node_sets = state.node_sets() if state is not None else {}
    for pid, nodes in node_sets.items():
        ok, rounds = checker(graph.subgraph(nodes), pid)
        max_rounds = max(max_rounds, rounds)
        if not ok:
            rejecting.append(pid)

    return HereditaryTestResult(
        accepted=not rejecting,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        partition_result=stage1,
        partition_rounds=stage1.rounds,
        verification_rounds=max_rounds,
        property_name=name,
    )
