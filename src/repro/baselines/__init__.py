"""Baselines: MPX/Elkin-Neiman partition and spanner baselines."""

from .mpx_partition import MPXResult, mpx_partition
from .spanners import cluster_spanner, greedy_spanner

__all__ = [
    "MPXResult",
    "cluster_spanner",
    "greedy_spanner",
    "mpx_partition",
]
