"""Experiment-harness utilities: statistics and table rendering."""

from .stats import (
    LinearFit,
    fit_rounds_vs_log_n,
    geometric_mean,
    linear_fit,
    wilson_interval,
)
from .tables import Table, format_cell

__all__ = [
    "LinearFit",
    "Table",
    "fit_rounds_vs_log_n",
    "format_cell",
    "geometric_mean",
    "linear_fit",
    "wilson_interval",
]
