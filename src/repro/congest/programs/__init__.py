"""Genuinely distributed node programs executed on the CONGEST simulator.

These implement the primitive building blocks of the paper as real
message-passing protocols.  They serve two purposes: they demonstrate that
the building blocks fit the CONGEST bandwidth budget, and they provide
ground truth against which the faster emulated layer is cross-validated.
"""

from .bfs import BFSTreeProgram, bfs_tree
from .cole_vishkin import ColeVishkinProgram, cole_vishkin_coloring
from .flood import FloodProgram
from .forest_decomposition import (
    BarenboimElkinProgram,
    run_forest_decomposition_simulated,
)
from .stage2_verification import (
    SimulatedStage2Result,
    Stage2VerificationProgram,
    run_stage2_verification_simulated,
)
from .storm import BroadcastStormProgram

__all__ = [
    "BFSTreeProgram",
    "BarenboimElkinProgram",
    "BroadcastStormProgram",
    "ColeVishkinProgram",
    "FloodProgram",
    "SimulatedStage2Result",
    "Stage2VerificationProgram",
    "bfs_tree",
    "cole_vishkin_coloring",
    "run_forest_decomposition_simulated",
    "run_stage2_verification_simulated",
]
