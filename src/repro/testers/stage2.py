"""Stage II: per-part planarity verification (paper Section 2.2).

For each part ``G_j`` of the Stage I partition (all parts run in
parallel; the stage's round cost is the maximum over parts):

1. build the BFS tree ``T_B^j`` and aggregate ``n(G_j)``, ``m(G_j)``
   (Section 2.2.1 preprocessing);
2. reject when ``m > 3n - 6`` (Euler density check);
3. compute a combinatorial embedding with the embedding subroutine
   (Ghaffari-Haeupler in the paper; this library's LR implementation
   here -- see ARCHITECTURE.md, "Paper substitutions", item 1).  On
   non-planar parts, where GH may emit an arbitrary ordering, use the
   id-sorted fallback rotation;
4. label the non-tree edges by their corners on ``T_B^j``'s Euler tour
   (the corner refinement of the paper's lexicographic labels, see
   :func:`~repro.testers.labels.euler_tour_positions`);
5. sample ``s = Theta(log n / epsilon)`` non-tree edges and reject when
   any sampled edge interlaces another non-tree edge (Definition 7).

All parts are relabeled at once from the compiled CSR
(:func:`extract_part_subgraphs`), each to a
:class:`~repro.planarity.lr_planarity.LocalGraph` over indices
``0..n_j-1``; the BFS, the LR embedding (a half-edge ring), the corner
labels (:mod:`repro.testers.labels`) and the sampling all run on int
lists from there, and sampled edges are resolved against the numpy
:func:`violating_mask`.  The seed's per-part view relabeling and its
``O(s*k)`` pairwise sample scan live on only as test-side references
(``tests/_reference_paths.seed_stage2``).

Round accounting per part (charged to the ledger, category "stage2.*"):
BFS costs ``depth + 1``; the counts convergecast/broadcast ``2 depth + 2``;
the embedding ``D + min(ceil(log2 n_j), D)`` with ``D <= 2 depth`` (the GH
bound); label distribution pipelines ``depth`` words down the tree
(``2 depth``); the sample gather/broadcast pipelines ``s`` edge labels of
``<= 2 depth`` words (``depth + 2 s depth``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Optional

import networkx as nx
import numpy as np

from ..congest.ledger import RoundLedger, TreeCostModel
from ..planarity.embedding import identity_rotation
from ..planarity.lr_planarity import LocalGraph, check_planarity
from ..telemetry import get_tracer
from .labels import (
    corner_intervals,
    deterministic_bfs_tree,
    euler_tour_positions,
    max_label_length,
)
from .results import PartVerdict
from .violations import sample_and_detect, violating_mask


@dataclass
class Stage2Config:
    """Knobs for Stage II.

    Attributes:
        epsilon: distance parameter (detection threshold is epsilon/2
            per part, per Claim 3).
        sample_constant: c in ``s = ceil(c * log2(n) / epsilon)``.
        reject_on_embedding_failure: treat an embedding-subroutine
            failure as rejection evidence.  Off by default: the paper's
            GH subroutine may emit an ordering even on non-planar parts,
            and we exercise the sampling machinery rather than leak the
            LR oracle's verdict (ARCHITECTURE.md, "Paper substitutions",
            item 1).
        collect_exact_violations: also compute the exact violating-edge
            count per part (analysis only; used by benchmark E13).
    """

    epsilon: float = 0.1
    sample_constant: float = 2.0
    reject_on_embedding_failure: bool = False
    collect_exact_violations: bool = False


def extract_part_subgraphs(graph: nx.Graph, state) -> dict:
    """Every part of the dense *state* relabeled to a :class:`LocalGraph`.

    Rows come from the compiled CSR: one masked selection keeps the
    ``columns`` slots (the parent's ``_adj`` order) whose endpoints share
    a part, and one gather maps them to part-local indices, so each row
    is a slice of one flat list.  Node order is what the part's
    ``graph.subgraph(nodes)`` view yields, ``nodes`` a frozenset built in
    ascending dense-index order: networkx's filter atlas walks
    ``set(iter(nodes))`` when ``2 |P| < n``, else the graph's own node
    order filtered to the part.  So every order-sensitive step (the LR
    embedding, whose rotation drives the corner labels and so the
    sampled intervals) sees the sequence it would see through the view.

    Returns a mapping ``pid -> LocalGraph`` (``pid`` the root's id).
    """
    topology = state.topology
    ids, index, part_of = topology.nodes, topology.index, state.part_of
    grouped = np.argsort(part_of, kind="stable").tolist()
    # A subgraph view's own ``subgraph`` filters the graph it views.
    base = graph._graph if hasattr(graph, "_NODE_OK") else graph
    local = np.empty(topology.n, dtype=np.int64)  # node -> index in its part
    orders = []
    start = 0
    for root, size in state.sizes.items():
        if 2 * size < len(base):
            members = frozenset(ids[i] for i in grouped[start : start + size])
            order = [index[v] for v in set(iter(members))]
        else:
            order = np.fromiter((index[v] for v in base if v in index), np.int64)
            order = order[part_of[order] == root].tolist()
        local[order] = np.arange(size)
        orders.append(order)
        start += size
    owner, columns = topology.batch_arrays().row_owner, topology.columns
    keep = part_of[owner] == part_of[columns]
    ptr = [0, *np.cumsum(np.bincount(owner[keep], minlength=topology.n)).tolist()]
    flat = local[columns[keep]].tolist()
    parts = {}
    for root, order in zip(state.sizes, orders):
        nodes = [ids[i] for i in order]
        rows = [flat[ptr[i] : ptr[i + 1]] for i in order]
        local_index = dict(zip(nodes, range(len(nodes))))
        parts[ids[root]] = LocalGraph(nodes, local_index, rows)
    return parts


def sample_size(n_total: int, config: Stage2Config) -> int:
    """The paper's ``s = Theta(log n / epsilon)`` with n = |V(G)|."""
    return max(
        1,
        int(
            math.ceil(
                config.sample_constant * math.log2(max(n_total, 2)) / config.epsilon
            )
        ),
    )


def test_part(
    pid: Any,
    sub: LocalGraph,
    n_total: int,
    rng: random.Random,
    config: Stage2Config,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
) -> PartVerdict:
    """Run Stage II on the part rooted at node *pid*; return its verdict.

    *sub* is the part's induced subgraph, relabeled (see
    :func:`extract_part_subgraphs`).
    """
    model = cost_model or TreeCostModel()
    local = RoundLedger()
    n, m = sub.n, sub.m
    root = sub.index[pid]
    tracer = get_tracer()  # its spans are no-ops while telemetry is off

    # 1. BFS tree + counts (Section 2.2.1).
    with tracer.span("stage2.labels"):
        parents, depths = deterministic_bfs_tree(sub, root)
    depth = max(depths, default=0)
    local.charge(depth + 1, "stage2.bfs", f"BFS tree of depth {depth}")
    local.charge(
        model.convergecast(depth, 2) + model.broadcast(depth, 2),
        "stage2.counts",
        "aggregate and redistribute n(Gj), m(Gj)",
    )

    def verdict(accepted, reason, embedding_planar, sampled, violating):
        if ledger is not None:
            ledger.merge(local)
        return PartVerdict(
            pid=pid,
            accepted=accepted,
            reason=reason,
            n=n,
            m=m,
            non_tree_edges=max(0, m - (n - 1)),
            bfs_depth=depth,
            embedding_planar=embedding_planar,
            sampled=sampled,
            violating_exact=violating,
            rounds=local.total,
        )

    # 2. Density check.
    if n > 2 and m > 3 * n - 6:
        return verdict(False, "density", False, 0, None)

    # 3. Embedding (GH in the paper; LR here, GH round cost charged).
    diameter_bound = max(1, 2 * depth)
    local.charge(
        diameter_bound + min(math.ceil(math.log2(max(n, 2))), diameter_bound),
        "stage2.embedding",
        f"planar embedding, D<={diameter_bound} (Ghaffari-Haeupler bound)",
    )
    with tracer.span("stage2.embed"):
        lr = check_planarity(sub)
    if lr.is_planar:
        ring = lr.ring
        embedding_planar = True
    else:
        if config.reject_on_embedding_failure:
            return verdict(False, "embedding", False, 0, None)
        ring = identity_rotation(sub)
        embedding_planar = False

    # 4. Labels: corner positions on the tree's Euler tour.
    with tracer.span("stage2.labels"):
        positions, universe = euler_tour_positions(sub, root, ring, parents)
        intervals = corner_intervals(sub, parents, positions, ring)
    label_words = max_label_length(depths)
    local.charge(
        model.broadcast(depth, max(1, label_words)),
        "stage2.labels",
        f"distribute labels of <= {label_words} words",
    )

    mask = (
        violating_mask(intervals, universe=universe)
        if config.collect_exact_violations
        else None
    )
    violating = sum(mask) if mask is not None else None

    # 5. Sampling-based detection: sampled interlacements resolve via
    # the violating mask, reusing the analysis mask when it was already
    # computed.
    s = sample_size(n_total, config)
    with tracer.span("stage2.sample"):
        outcome = sample_and_detect(intervals, s, rng, universe=universe, mask=mask)
    label_cost = max(1, 2 * label_words)
    local.charge(
        model.convergecast(depth, max(1, outcome.sampled))
        + model.broadcast(depth, max(1, outcome.sampled * label_cost)),
        "stage2.sampling",
        f"gather + broadcast {outcome.sampled} sampled edge labels",
    )
    if outcome.detected:
        return verdict(False, "violation", embedding_planar, outcome.sampled, violating)
    return verdict(True, None, embedding_planar, outcome.sampled, violating)
