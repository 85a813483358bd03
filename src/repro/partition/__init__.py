"""Stage I partitioning: deterministic (Thm 1/3) and randomized (Thm 4)."""

from .dense import DenseAuxiliaryGraph, DensePartitionState, MarkingResult
from .stage1 import (
    PhaseStats,
    Stage1Result,
    partition_stage1,
    theoretical_phase_cap,
)
from .weighted_selection import RandomizedPartitionResult, partition_randomized

__all__ = [
    "DenseAuxiliaryGraph",
    "DensePartitionState",
    "MarkingResult",
    "PhaseStats",
    "RandomizedPartitionResult",
    "Stage1Result",
    "partition_randomized",
    "partition_stage1",
    "theoretical_phase_cap",
]
