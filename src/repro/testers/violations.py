"""Violating (interlacing) non-tree edges: Definition 7 and its detection.

Two intervals ``(a, b)`` and ``(c, d)`` (with ``a < b``, ``c < d``,
``a < c``) *intersect* when ``a < c < b < d``; a non-tree edge is
*violating* when it intersects some other non-tree edge.  Claims 8-10:

* no violating edge => the part is planar (so on a gamma-far part at
  least a gamma fraction of the edges is violating -- Corollary 9);
* the part is planar and the labels come from a planar embedding =>
  there is no violating edge (one-sided error).

This module provides the exact violating-edge mask (numpy range-max /
range-min tables) and the paper's sampling-based distributed detection
procedure, which resolves each sampled edge against that mask.  The
``O(k^2)`` brute-force mask and the ``O(s*k)`` pairwise sample scan it
replaced are test-side oracles (``tests/_reference_paths.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

Interval = Tuple[int, int]


def edges_interlace(first: Interval, second: Interval) -> bool:
    """Definition 7 predicate on two rank intervals (order-insensitive)."""
    (a, b), (c, d) = first, second
    if a > c:
        (a, b), (c, d) = (c, d), (a, b)
    return a < c < b < d


def _range_reduce(values, op, lo, hi):
    """*op* (``np.maximum`` / ``np.minimum``) over ``values[lo..hi]``,
    inclusive and non-empty, for every query pair at once.

    Row ``j`` of the sparse table reduces each window of ``2**j``
    values; a query combines the two (overlapping) windows of the
    largest power of two that fits in it.
    """
    size = len(values)
    table = np.empty((max(1, size.bit_length()), size), dtype=values.dtype)
    table[0] = values
    for j in range(1, len(table)):
        half = 1 << (j - 1)
        op(table[j - 1, :-half], table[j - 1, half:], out=table[j, :-half])
        table[j, -half:] = table[j - 1, -half:]
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(length)), exact
    return op(table[level, lo], table[level, hi - (1 << level) + 1])


def _violating_array(intervals: Sequence[Interval], universe: int):
    """:func:`violating_mask` as a numpy bool array."""
    k = len(intervals)
    if k == 0:
        return np.zeros(0, dtype=bool)
    ab = np.array(intervals, dtype=np.int64).reshape(k, 2)
    a, b = ab[:, 0], ab[:, 1]
    # For each position x: the furthest right end of an interval starting
    # at x, and the furthest left end of an interval ending at x.
    right = np.full(universe, -1, dtype=np.int64)
    np.maximum.at(right, a, b)
    left = np.full(universe, universe, dtype=np.int64)
    np.minimum.at(left, b, a)
    lo, hi = a + 1, b - 1
    inside = lo <= hi
    lo, hi = np.where(inside, lo, 0), np.where(inside, hi, 0)
    crosses_right = _range_reduce(right, np.maximum, lo, hi) > b
    crosses_left = _range_reduce(left, np.minimum, lo, hi) < a
    return inside & (crosses_right | crosses_left)


def violating_mask(intervals: Sequence[Interval], universe: int) -> List[bool]:
    """O(k + universe log universe) violating-edge mask via range tables.

    An interval ``e = (a, b)`` is violating iff

    * (A) some interval starts strictly inside ``e`` and ends strictly
      after ``b``: the largest right end among intervals starting in
      ``(a, b)`` exceeds ``b``; or
    * (B) some interval ends strictly inside ``e`` and starts strictly
      before ``a``: the smallest left end among intervals ending in
      ``(a, b)`` is below ``a``.

    Both are range-max / range-min queries over the positions, answered
    for all intervals at once from numpy sparse tables.

    Args:
        intervals: rank intervals with endpoints in ``[0, universe)``.
        universe: exclusive upper bound on endpoint values.
    """
    return _violating_array(intervals, universe).tolist()


def count_violating(intervals: Sequence[Interval], universe: int) -> int:
    """Number of violating non-tree edges (exact, for analysis)."""
    return sum(violating_mask(intervals, universe))


@dataclass
class SamplingOutcome:
    """Result of the distributed sampling-based violation detection.

    Attributes:
        detected: True when a sampled edge interlaced some non-tree edge.
        sample_target: the target sample size s.
        sampled: number of edges actually sampled.
        truncated: whether the congestion cap (4s) kicked in.
        witness: one interlacing (sampled, other) interval pair if found.
    """

    detected: bool
    sample_target: int
    sampled: int
    truncated: bool
    witness: Optional[Tuple[Interval, Interval]] = None


def sample_and_detect(
    intervals: Sequence[Interval],
    sample_target: int,
    rng: random.Random,
    universe: int,
    mask: Optional[List[bool]] = None,
) -> SamplingOutcome:
    """Paper Section 2.2.2 detection: sample ~s non-tree edges, broadcast
    their labels, and let every edge owner test interlacement.

    Each non-tree edge is independently selected with probability
    ``min(1, s / k)``; if far more than the expected number is selected
    (beyond ``4s``), the excess is dropped (the paper aborts; dropping
    preserves one-sided error and only weakens detection in a
    1/poly(n)-probability event).  A violation is detected when a sampled
    edge interlaces *any* non-tree edge, sampled or not.

    The per-sample interlacement test resolves against
    :func:`violating_mask` (*universe* is an exclusive upper bound on
    endpoint values): the mask answers exactly the predicate "does edge
    i interlace some other edge".  Callers that already computed the
    mask (analysis mode) pass it via *mask* to skip the rebuild.
    """
    k = len(intervals)
    if k == 0 or sample_target <= 0:
        return SamplingOutcome(False, sample_target, 0, False)
    probability = min(1.0, sample_target / k)
    chosen = [i for i in range(k) if rng.random() < probability]
    cap = max(4 * sample_target, 1)
    truncated = len(chosen) > cap
    if truncated:
        chosen = chosen[:cap]
    if mask is None:
        mask = _violating_array(intervals, universe)
    for i in chosen:
        if mask[i]:
            # The witness is the first partner in index order.
            for j in range(k):
                if j != i and edges_interlace(intervals[i], intervals[j]):
                    return SamplingOutcome(
                        True,
                        sample_target,
                        len(chosen),
                        truncated,
                        witness=(intervals[i], intervals[j]),
                    )
    return SamplingOutcome(False, sample_target, len(chosen), truncated)
