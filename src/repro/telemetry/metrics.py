"""Fleet metrics: counters, gauges, and histograms with a JSON registry.

Spans answer *where one run's time went*; metrics answer *how the
fleet is doing* -- queue depth, cache hit ratio, store bytes
reclaimed, live workers and clients, speculation counts, CostModel
prediction error.  The registry is a process-local
:class:`Metrics` singleton (:func:`get_metrics`); instrumented seams
guard every update with :func:`~repro.telemetry.spans.telemetry_enabled`
so the disabled path costs one global read.

Snapshotting: :meth:`Metrics.snapshot` renders the whole registry as a
plain JSON-safe dict; :meth:`Metrics.flush_to` writes it as
``metrics-<token>.json`` next to the process's trace file, so a merged
trace directory carries one metrics registry per participating process
(orchestrator and each worker).

Metric names are dotted strings (``service.workers``,
``store.bytes_reclaimed``, ``scheduler.cost_rel_error``); the full
taxonomy is tabulated in ARCHITECTURE.md's Telemetry section.

Histograms use fixed geometric bucket boundaries (powers of 10 from
1e-4 to 1e3) -- coarse, but dependency-free, mergeable across
processes by summing, and wide enough to cover both sub-millisecond
heartbeat RTTs and multi-minute job latencies on one scale.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional

HISTOGRAM_BOUNDS = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0,
)
"""Upper bucket bounds (``le``); values above the last go to ``+inf``."""


class Histogram:
    """Count/total/min/max plus geometric bucket counts."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            value = 0.0  # durations/RTTs: negatives are clock artifacts
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for position, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                self.buckets[position] += 1
                return
        self.buckets[-1] += 1

    def to_dict(self) -> Dict[str, Any]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(mean, 6),
            "min": round(self.min, 6) if self.min is not None else None,
            "max": round(self.max, 6) if self.max is not None else None,
            "bounds": list(HISTOGRAM_BOUNDS),
            "buckets": list(self.buckets),
        }


class Metrics:
    """Thread-safe registry of counters, gauges, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, delta: float = 1.0) -> None:
        """Increment counter *name* (monotone; use gauges for levels)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to the current level (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram *name*."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """The registry as one JSON-safe dict (sorted names)."""
        with self._lock:
            return {
                "counters": {
                    name: (
                        int(value) if float(value).is_integer() else value
                    )
                    for name, value in sorted(self._counters.items())
                },
                "gauges": {
                    name: value for name, value in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def flush_to(self, directory) -> Optional[Path]:
        """Write the snapshot as ``metrics-<token>.json`` under *directory*.

        Named by the tracer's process token so concurrent processes
        never clobber each other.  Returns the path, or ``None`` when
        the registry is empty or the directory is unwritable.
        """
        snapshot = self.snapshot()
        if not any(snapshot.values()):
            return None
        from .spans import get_tracer

        try:
            target = Path(directory)
            target.mkdir(parents=True, exist_ok=True)
            path = target / f"metrics-{get_tracer().token}.json"
            path.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            )
            return path
        except OSError:
            return None

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_METRICS = Metrics()


def get_metrics() -> Metrics:
    """The process metrics registry (always available; gating is the
    caller's job via :func:`~repro.telemetry.spans.telemetry_enabled`)."""
    return _METRICS


def reset_metrics() -> None:
    """Clear the registry (called by :func:`repro.telemetry.reset`)."""
    _METRICS.clear()


def read_metrics(directory) -> Dict[str, Dict[str, Any]]:
    """Load every ``metrics-*.json`` under *directory*, keyed by token."""
    registries: Dict[str, Dict[str, Any]] = {}
    try:
        paths = sorted(Path(directory).glob("metrics-*.json"))
    except OSError:
        return registries
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            token = path.stem.split("-", 1)[1] if "-" in path.stem else path.stem
            registries[token] = payload
    return registries
