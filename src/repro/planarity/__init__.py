"""Planarity substrate: LR test, rotation systems, embedding verification."""

from .embedding import (
    faces,
    genus_by_component,
    identity_rotation,
    match_graph,
    verify_planar_embedding,
)
from .lr_planarity import PlanarityResult, check_planarity, is_planar
from .rotation import RotationSystem

__all__ = [
    "PlanarityResult",
    "RotationSystem",
    "check_planarity",
    "faces",
    "genus_by_component",
    "identity_rotation",
    "is_planar",
    "match_graph",
    "verify_planar_embedding",
]
