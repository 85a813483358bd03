"""Cost-balanced shard scheduling from measured job wall-times.

Hash-sharding (:func:`repro.runtime.sweeps.job_shard`) splits a grid
into equal *counts*, but grid points are not equal *work*: one
``n=2000`` tester job costs as much as dozens of ``n=64`` ones, so a
fleet of hash-balanced shards finishes whenever its unluckiest member
does.  This module closes the loop:

1. every backend reports per-job wall-times (see
   :func:`~repro.runtime.jobs.run_job_timed`); :class:`CostBook`
   aggregates them per ``(kind, n)`` and flushes into the sharded
   store's **metadata shard** (``cost:<kind>:<n>`` records that
   accumulate count/total across runs and processes);
2. :class:`CostModel` loads that history and predicts a cost for any
   spec -- exact mean where the ``(kind, n)`` cell was measured, a
   power-law fit ``a * n**b`` per kind otherwise (experiment grids
   sweep ``n``, so unmeasured sizes interpolate sensibly);
3. :func:`assign_shards` replaces hash placement with an LPT greedy
   (longest processing time first): sort specs by predicted cost,
   assign each to the least-loaded shard.  The assignment is a pure
   function of (specs, shard count, cost table), so every orchestrator
   holding the same history partitions a grid identically -- and when
   there is **no history it degrades to exactly the hash split**, so
   ``balance="cost"`` is always safe to request.

Sharding only affects *who runs what*: cache keys are independent of
shard placement, so mixed assignments (one leg hash-split, another
cost-split) at worst overlap (cache hits) or leave gaps that a final
``--resume`` run fills.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import telemetry_enabled
from .jobs import JobSpec
from .store import ShardedStore

COST_META_PREFIX = "cost:"


def cost_meta_key(kind: str, n: int) -> str:
    """Metadata-shard key of one ``(kind, n)`` cost cell."""
    return f"{COST_META_PREFIX}{kind}:{int(n)}"


@dataclass
class CostBook:
    """Accumulates per-``(kind, n)`` wall-times and flushes them to a store.

    Observations are aggregated in memory (``observe``) and merged
    into the store's metadata shard on ``flush``: each cell is a
    read-modify-write of its ``cost:<kind>:<n>`` record.  Concurrent
    orchestrators can race on a cell; the loser's increment is lost,
    which is acceptable for an advisory cost table.

    ``observe`` is thread-safe, so one book may be fed from several
    threads.  A :class:`~repro.runtime.service.SweepService` keeps its
    own book: its event loop logs completed jobs and requeued jobs'
    partial elapsed time there, while ``iter_jobs`` observes into the
    caller's book from the consumer thread.  When telemetry
    is enabled and a :class:`CostModel` is attached (``model``), every
    observation also feeds the ``scheduler.cost_rel_error`` histogram
    with ``|actual - predicted| / predicted`` -- the model-quality
    signal the sweep dashboard's ETA depends on.
    """

    store: Optional[ShardedStore] = None
    model: Optional["CostModel"] = None
    _pending: Dict[Tuple[str, int], List[float]] = field(
        default_factory=dict, repr=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, kind: str, n: int, seconds: float) -> None:
        """Record one executed job's wall-time."""
        if seconds is None or seconds < 0:
            return
        with self._lock:
            cell = self._pending.setdefault((kind, int(n)), [0.0, 0.0])
            cell[0] += 1
            cell[1] += float(seconds)
        if self.model is not None and telemetry_enabled():
            predicted = self.model.predict(kind, n)
            if predicted:
                get_metrics().observe(
                    "scheduler.cost_rel_error",
                    abs(float(seconds) - predicted) / predicted,
                )

    @property
    def observations(self) -> int:
        """Jobs observed since the last flush."""
        with self._lock:
            return int(
                sum(count for count, _total in self._pending.values())
            )

    def flush(self) -> int:
        """Merge pending observations into the store's metadata shard.

        Returns the number of ``(kind, n)`` cells updated.  A book
        without a store keeps aggregating in memory (``flush`` is a
        no-op returning 0) so cache-less runs stay cheap.
        """
        with self._lock:
            if self.store is None or not self._pending:
                return 0
            pending, self._pending = self._pending, {}
        updated = 0
        for (kind, n), (count, total) in sorted(pending.items()):
            key = cost_meta_key(kind, n)
            existing = self.store.get_meta(key) or {}
            merged_count = float(existing.get("count", 0)) + count
            merged_total = float(existing.get("total_s", 0.0)) + total
            self.store.put_meta(
                key,
                {
                    "kind": kind,
                    "n": int(n),
                    "count": merged_count,
                    "total_s": round(merged_total, 6),
                    "mean_s": round(merged_total / merged_count, 6),
                },
            )
            updated += 1
        return updated


@dataclass
class CostModel:
    """Predicts per-spec wall-times from the store's cost history.

    ``samples[kind][n]`` is the measured mean seconds for that cell;
    ``fits[kind]`` is the per-kind power law ``(a, b)`` with
    ``cost(n) = a * n**b``, least-squares in log-log space over the
    kind's measured sizes (needs >= 2 distinct ``n``).
    """

    samples: Dict[str, Dict[int, float]] = field(default_factory=dict)
    fits: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for kind, by_n in self.samples.items():
            fit = _fit_power_law(by_n)
            if fit is not None:
                self.fits[kind] = fit

    @property
    def empty(self) -> bool:
        return not self.samples

    @classmethod
    def from_store(cls, store: Optional[ShardedStore]) -> "CostModel":
        """Load every ``cost:*`` record from the store's meta shard."""
        samples: Dict[str, Dict[int, float]] = {}
        if store is not None:
            for key in store.meta_keys():
                if not key.startswith(COST_META_PREFIX):
                    continue
                record = store.get_meta(key)
                if not isinstance(record, dict):
                    continue
                kind = record.get("kind")
                n = record.get("n")
                mean = record.get("mean_s")
                if (
                    isinstance(kind, str)
                    and isinstance(n, (int, float))
                    and isinstance(mean, (int, float))
                    and mean > 0
                ):
                    samples.setdefault(kind, {})[int(n)] = float(mean)
        return cls(samples=samples)

    def predict(self, kind: str, n: int) -> Optional[float]:
        """Predicted seconds for one ``(kind, n)``; ``None`` = no history.

        Exact measured mean when available; the kind's power-law fit
        otherwise; with a single measured size, linear scaling in
        ``n`` from that anchor (round cost is near-linear in ``n`` for
        every workload in the repo).
        """
        by_n = self.samples.get(kind)
        if not by_n:
            return None
        exact = by_n.get(int(n))
        if exact is not None:
            return exact
        fit = self.fits.get(kind)
        if fit is not None:
            a, b = fit
            return a * float(n) ** b
        anchor_n, anchor_mean = next(iter(sorted(by_n.items())))
        return anchor_mean * (float(n) / float(anchor_n or 1))


@dataclass(frozen=True)
class SpeculationPolicy:
    """When to re-dispatch an in-flight job to a second worker.

    The service (:mod:`repro.runtime.service`) scans its running jobs
    against this policy: a job whose elapsed time exceeds ``factor``
    times its :class:`CostModel` prediction -- the same multiple the
    telemetry dashboard uses to flag stragglers -- earns a speculative
    twin on another worker.  First result wins; the duplicate's result
    is dropped on arrival, so the store stays one-line-per-job.

    Attributes:
        factor: elapsed / predicted multiple that flags a straggler
            (matches ``telemetry.dashboard.STRAGGLER_FACTOR``).
        min_seconds: never speculate before this much wall-time, no
            matter the prediction -- guards against thrashing on
            sub-millisecond jobs where dispatch overhead dominates.
        no_history_seconds: elapsed threshold for jobs whose ``(kind,
            n)`` has no cost history (prediction ``None``).
        max_copies: total dispatches per job, original + twins
            (2 = at most one speculative copy).
    """

    factor: float = 3.0
    min_seconds: float = 1.0
    no_history_seconds: float = 10.0
    max_copies: int = 2

    def should_speculate(
        self,
        predicted: Optional[float],
        elapsed: float,
        copies: int,
    ) -> bool:
        """Does a job with *copies* dispatches deserve another one?"""
        if copies >= self.max_copies:
            return False
        if elapsed < self.min_seconds:
            return False
        if predicted is None or predicted <= 0:
            return elapsed >= self.no_history_seconds
        return elapsed >= self.factor * predicted


def _fit_power_law(by_n: Dict[int, float]) -> Optional[Tuple[float, float]]:
    """Least-squares ``log(cost) = log(a) + b*log(n)`` over measured cells."""
    points = [
        (math.log(n), math.log(mean))
        for n, mean in sorted(by_n.items())
        if n > 0 and mean > 0
    ]
    if len(points) < 2:
        return None
    count = float(len(points))
    sum_x = sum(x for x, _y in points)
    sum_y = sum(y for _x, y in points)
    sum_xx = sum(x * x for x, _y in points)
    sum_xy = sum(x * y for x, y in points)
    denom = count * sum_xx - sum_x * sum_x
    if abs(denom) < 1e-12:
        return None
    b = (count * sum_xy - sum_x * sum_y) / denom
    a = math.exp((sum_y - b * sum_x) / count)
    return a, b


def assign_shards(
    specs: Sequence[JobSpec],
    shards: int,
    model: Optional[CostModel] = None,
) -> List[int]:
    """LPT cost-balanced shard assignment (hash fallback without history).

    Deterministic given ``(specs, shards, model)``: specs sort by
    predicted cost descending with the canonical encoding as the tie
    break, and each is placed on the least-loaded shard (lowest index
    on ties).  Specs whose kind has no history cost the batch's mean
    predicted cost (so they spread evenly rather than piling onto one
    shard); when *nothing* has history the assignment is exactly
    :func:`~repro.runtime.sweeps.job_shard`'s hash split.
    """
    from .sweeps import job_shard  # local import: sweeps imports us

    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    specs = list(specs)
    costs: List[Optional[float]] = [
        model.predict(spec.kind, spec.n) if model is not None else None
        for spec in specs
    ]
    known = [cost for cost in costs if cost is not None]
    if not known:
        return [job_shard(spec, shards) for spec in specs]
    default = sum(known) / len(known)
    resolved = [cost if cost is not None else default for cost in costs]
    order = sorted(
        range(len(specs)),
        key=lambda i: (-resolved[i], specs[i].canonical()),
    )
    loads = [0.0] * shards
    assignment = [0] * len(specs)
    for i in order:
        target = min(range(shards), key=lambda s: (loads[s], s))
        assignment[i] = target
        loads[target] += resolved[i]
    return assignment
