"""Result containers shared by the distributed testers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..partition.stage1 import Stage1Result


@dataclass
class PartVerdict:
    """Stage II outcome for a single part.

    Attributes:
        pid: part id (root node id).
        accepted: the part found no evidence of non-planarity.
        reason: ``None`` when accepted; otherwise one of ``"density"``
            (m > 3n - 6), ``"violation"`` (a sampled non-tree edge
            interlaced another), or ``"embedding"`` (embedding failure
            treated as rejection, only when so configured).
        n / m: part size.
        non_tree_edges: number of BFS non-tree edges.
        bfs_depth: depth of the part's BFS tree.
        embedding_planar: whether the embedding subroutine produced a
            planar embedding (False means the fallback ordering was used).
        sampled: how many non-tree edges the detection step sampled.
        violating_exact: exact number of violating edges (analysis mode
            only; ``None`` otherwise).
        rounds: CONGEST rounds charged for this part's Stage II.
    """

    pid: Any
    accepted: bool
    reason: Optional[str]
    n: int
    m: int
    non_tree_edges: int
    bfs_depth: int
    embedding_planar: bool
    sampled: int
    violating_exact: Optional[int]
    rounds: int


@dataclass
class PlanarityTestResult:
    """Outcome of the full Theorem 1 tester.

    ``accepted`` is the global verdict: True iff *no* node output reject.
    ``rejected_stage`` records where evidence appeared (``"stage1"`` for
    arboricity evidence, ``"stage2"`` for density/violation evidence).
    """

    accepted: bool
    rejected_stage: Optional[str]
    rejecting_parts: Tuple[Any, ...]
    stage1: Stage1Result
    part_verdicts: List[PartVerdict] = field(default_factory=list)
    stage1_rounds: int = 0
    stage2_rounds: int = 0

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds: Stage I plus the parallel Stage II max."""
        return self.stage1_rounds + self.stage2_rounds

    @property
    def total_violating_exact(self) -> Optional[int]:
        """Sum of exact violating-edge counts when analysis mode was on.

        Parts rejected before the labeling step (density check) carry no
        count and do not contribute; ``None`` when no part was analyzed.
        """
        counts = [
            v.violating_exact
            for v in self.part_verdicts
            if v.violating_exact is not None
        ]
        if not counts:
            return None
        return sum(counts)


@dataclass
class ApplicationTestResult:
    """Outcome of a Corollary 16 tester; ``property_name`` is the tested
    property (``"cycle-free"``, ``"bipartite"``, ``"planar"`` or
    ``"outerplanar"``)."""

    accepted: bool
    rejecting_parts: Tuple[Any, ...]
    partition_result: Stage1Result
    partition_rounds: int
    verification_rounds: int
    property_name: str

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds (partition + parallel per-part checks)."""
        return self.partition_rounds + self.verification_rounds
