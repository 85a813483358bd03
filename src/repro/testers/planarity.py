"""The full distributed planarity tester (Theorem 1).

Composition of Stage I (partition; may reject on arboricity evidence)
and Stage II (per-part verification; may reject on density or violating
edges).  Guarantees reproduced:

* **completeness / one-sided error**: a planar graph is accepted by
  every node with probability 1 (Claim 3 first part + Claim 10);
* **soundness**: an epsilon-far graph is rejected with probability
  ``1 - 1/poly(n)`` -- either Stage I rejects, or the final cut is at
  most ``epsilon m / 2``, some part is ``epsilon/2``-far (Claim 3), that
  part has ``>= (epsilon/2) m(Gj)`` violating edges (Corollary 9), and
  the ``Theta(log n / epsilon)`` sample hits one w.h.p.;
* **round complexity**: ``O(log n * poly(1/epsilon))``, accounted by the
  ledger (Stage II parts run in parallel; its cost is the max over
  parts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx

from ..congest.ledger import TreeCostModel
from ..graphs.utils import require_simple
from ..partition.stage1 import partition_stage1
from ..runtime.seeding import derive_rng
from ..telemetry import get_tracer
from .results import PlanarityTestResult
from .stage2 import Stage2Config, extract_part_subgraphs, test_part


@dataclass
class PlanarityTestConfig:
    """All knobs of the Theorem 1 tester.

    Attributes:
        epsilon: distance parameter.
        alpha: arboricity bound verified in Stage I (3 = planar).
        sample_constant: Stage II sampling constant c in
            ``s = c log2(n) / epsilon``.
        early_stop: stop Stage I once the cut target is met
            (ARCHITECTURE.md, "Paper substitutions", item 2).
        reject_on_embedding_failure: see :class:`Stage2Config`.
        collect_exact_violations: per-part exact violating-edge counts
            (analysis mode, used by benchmarks).
    """

    epsilon: float = 0.1
    alpha: int = 3
    sample_constant: float = 2.0
    early_stop: bool = True
    reject_on_embedding_failure: bool = False
    collect_exact_violations: bool = False

    def stage2(self) -> Stage2Config:
        """The Stage II view of this configuration."""
        return Stage2Config(
            epsilon=self.epsilon,
            sample_constant=self.sample_constant,
            reject_on_embedding_failure=self.reject_on_embedding_failure,
            collect_exact_violations=self.collect_exact_violations,
        )


def stage2_over_partition(
    graph: nx.Graph,
    state,
    stage2_config: Stage2Config,
    seed: Optional[int] = None,
):
    """Run Stage II over an arbitrary rooted partition's dense *state*.

    Used by the full tester and by the E12 ablation, which feeds Stage II
    with the Elkin-Neiman/MPX baseline partition instead of Stage I.
    Returns ``(verdicts, rejecting_pids, max_part_rounds)``; parts run in
    parallel, so the stage's round cost is the max over parts.
    """
    if state is None:  # the empty graph has no parts
        return [], [], 0
    model = TreeCostModel()
    n_total = graph.number_of_nodes()
    verdicts = []
    rejecting = []
    max_part_rounds = 0
    with get_tracer().span("stage2.extract", parts=len(state.sizes)):
        subgraphs = extract_part_subgraphs(graph, state)
    for pid in sorted(subgraphs, key=repr):
        rng = derive_rng(seed, repr(pid), "stage2")
        verdict = test_part(
            pid,
            subgraphs[pid],
            n_total=n_total,
            rng=rng,
            config=stage2_config,
            cost_model=model,
        )
        verdicts.append(verdict)
        max_part_rounds = max(max_part_rounds, verdict.rounds)
        if not verdict.accepted:
            rejecting.append(pid)
    return verdicts, rejecting, max_part_rounds


def test_planarity(
    graph: nx.Graph,
    epsilon: float = 0.1,
    seed: Optional[int] = None,
    config: Optional[PlanarityTestConfig] = None,
) -> PlanarityTestResult:
    """Run the Theorem 1 tester on *graph*.

    Args:
        graph: simple undirected graph; need not be connected (parts
            never span components, and components run side by side).
        epsilon: distance parameter (ignored when *config* is given).
        seed: randomness seed for Stage II sampling.
        config: full configuration; defaults to
            ``PlanarityTestConfig(epsilon=epsilon)``.

    Returns:
        A :class:`PlanarityTestResult`; ``result.accepted`` is the global
        verdict and ``result.rounds`` the charged CONGEST round count.
    """
    require_simple(graph, "test_planarity input")
    if config is None:
        config = PlanarityTestConfig(epsilon=epsilon)
    n_total = graph.number_of_nodes()
    if n_total == 0:
        raise ValueError("test_planarity requires at least one node")

    stage1 = partition_stage1(
        graph,
        epsilon=config.epsilon,
        alpha=config.alpha,
        early_stop=config.early_stop,
    )
    if not stage1.success:
        return PlanarityTestResult(
            accepted=False,
            rejected_stage="stage1",
            rejecting_parts=stage1.rejecting_parts,
            stage1=stage1,
            stage1_rounds=stage1.rounds,
            stage2_rounds=0,
        )

    verdicts, rejecting, max_part_rounds = stage2_over_partition(
        graph, stage1.partition, config.stage2(), seed=seed
    )

    return PlanarityTestResult(
        accepted=not rejecting,
        rejected_stage="stage2" if rejecting else None,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        stage1=stage1,
        part_verdicts=verdicts,
        stage1_rounds=stage1.rounds,
        stage2_rounds=max_part_rounds,
    )
