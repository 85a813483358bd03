"""Distributed property testers: planarity (Thm 1), and Corollary 16's
hereditary properties -- cycle-freeness, bipartiteness, and, by the
remark after it, planarity and outerplanarity -- verified per part of
the partition."""

from .applications import (
    test_bipartiteness,
    test_cycle_freeness,
    test_hereditary_property,
)
from .labels import (
    deterministic_bfs_tree,
    embedding_ranks,
    max_label_length,
    non_tree_intervals,
)
from .planarity import PlanarityTestConfig, test_planarity
from .results import ApplicationTestResult, PartVerdict, PlanarityTestResult
from .stage2 import Stage2Config, sample_size, test_part
from .violations import (
    SamplingOutcome,
    count_violating,
    edges_interlace,
    sample_and_detect,
    violating_mask,
)

__all__ = [
    "ApplicationTestResult",
    "PartVerdict",
    "PlanarityTestConfig",
    "PlanarityTestResult",
    "SamplingOutcome",
    "Stage2Config",
    "count_violating",
    "deterministic_bfs_tree",
    "edges_interlace",
    "embedding_ranks",
    "max_label_length",
    "non_tree_intervals",
    "sample_and_detect",
    "sample_size",
    "test_bipartiteness",
    "test_cycle_freeness",
    "test_part",
    "test_hereditary_property",
    "test_planarity",
    "violating_mask",
]
