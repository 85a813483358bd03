"""Statistics helpers for the experiment harness.

Small, dependency-light routines: Wilson confidence intervals for
detection rates, least-squares fits (of round counts against ``log n``
for the E3 scaling analysis) and geometric means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass
class LinearFit:
    """Least-squares fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted line."""
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares on (xs, ys)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("xs are constant")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r2)


def fit_rounds_vs_log_n(ns: Sequence[int], rounds: Sequence[int]) -> LinearFit:
    """Fit ``rounds ~ a * log2(n) + b`` (benchmark E3)."""
    return linear_fit([math.log2(n) for n in ns], list(rounds))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("values must be non-empty")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    return math.exp(sum(math.log(v) for v in values) / len(values))
