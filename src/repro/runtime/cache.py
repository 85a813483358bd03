"""Coordinate-addressed result cache for the batch runtime.

Cache keys are ``sha256(kind || graph fingerprint || config digest)``:

* the **graph fingerprint** hashes the generator coordinates
  ``(family/far, n, effective graph seed)`` (:func:`coordinate_fingerprint`),
  so a cache hit skips graph generation entirely.  This is sound because
  every bundled generator is deterministic in its coordinates; the
  test-suite certifies it by regenerating each family and comparing
  content fingerprints (:func:`graph_fingerprint`, kept as that oracle);
* the **config digest** hashes the spec's canonical JSON minus the graph
  coordinates, so any change to ``epsilon``, ``method``, sampling knobs,
  or the algorithm seed invalidates the entry.

Entries live in a bounded in-memory LRU; an optional on-disk layer (the
sharded single-index :class:`~repro.runtime.store.ShardedStore` --
append-only shard files, fcntl-locked multi-writer appends, newest-wins
compaction) persists them across processes and CLI invocations, so
concurrent sweeps, shard runs, and fleet workers all share one cache.
Only flat primitive records (see :mod:`repro.runtime.jobs`) are stored,
so JSON round-trips are lossless.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

import networkx as nx

from .jobs import JobSpec, Record, spec_needs_graph
from .store import ClearReport, GCReport, ShardedStore


def coordinate_fingerprint(spec: JobSpec) -> str:
    """Graph fingerprint derived from generator coordinates alone.

    Hashes ``(family/far, n, effective graph seed)`` instead of the
    generated edge list, so a cache hit skips graph generation entirely.
    Sound because the bundled generators are deterministic in those
    coordinates (the cross-check test regenerates and compares content
    fingerprints).  The ``coord:`` prefix keeps this key space disjoint
    from the content fingerprints of :func:`graph_fingerprint`.
    """
    payload = json.dumps(
        {
            "far": spec.far,
            "family": spec.family,
            "n": spec.n,
            "graph_seed": spec.effective_graph_seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return "coord:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def graph_fingerprint(graph: nx.Graph) -> str:
    """SHA-256 over the canonical node and edge lists of *graph*.

    The reference the tests check :func:`coordinate_fingerprint` against:
    two independent builds from the same coordinates must agree here.

    Nodes and edges are sorted by :func:`repr`; each undirected edge is
    normalized so ``(u, v)`` and ``(v, u)`` fingerprint identically.
    """
    digest = hashlib.sha256()
    for node in sorted(graph.nodes(), key=repr):
        token = repr(node).encode("utf-8")
        digest.update(b"n" + len(token).to_bytes(4, "big") + token)
    edges = sorted(
        tuple(sorted((u, v), key=repr)) for u, v in graph.edges()
    )
    for u, v in edges:
        token = (repr(u) + "|" + repr(v)).encode("utf-8")
        digest.update(b"e" + len(token).to_bytes(4, "big") + token)
    return digest.hexdigest()


def config_digest(spec: JobSpec) -> str:
    """SHA-256 over the non-graph part of the spec: kind + seed + config.

    The graph coordinates (family, n) are deliberately excluded -- the
    graph's identity is the fingerprint's job.  The seed stays in: it
    drives the algorithm's randomness, not just generation.
    """
    payload = json.dumps(
        {
            "kind": spec.kind,
            "seed": spec.seed,
            "config": [[k, repr(v)] for k, v in spec.config],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key(spec: JobSpec, fingerprint: str) -> str:
    """The content address of *spec* run on a graph with *fingerprint*."""
    payload = f"{spec.kind}\x00{fingerprint}\x00{config_digest(spec)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_evictions: int = 0
    disk_bytes_reclaimed: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary_line(self) -> str:
        """One-line rendering for CLI summaries."""
        parts = [
            f"hits={self.hits}",
            f"misses={self.misses}",
            f"hit_rate={self.hit_rate:.0%}",
            f"stores={self.stores}",
        ]
        if self.disk_hits:
            parts.append(f"disk_hits={self.disk_hits}")
        return " ".join(parts)


@dataclass
class ResultCache:
    """In-memory LRU over job records, with an optional sharded disk store.

    Args:
        max_entries: LRU capacity; oldest entries evict first.  The disk
            store (when configured) re-warms the LRU on hit.
        disk_dir: directory for the persistent sharded store
            (:class:`~repro.runtime.store.ShardedStore`); created on
            first write.  ``None`` keeps the cache memory-only.
            Multiple processes may point at one directory concurrently
            -- appends are fcntl-locked, so pool/fleet workers and
            parallel shard runs share a single cache.
        disk_shards: number of shard files for a newly-created store.
        disk_max_entries: live-entry cap the store enforces at
            compaction time (``None`` = unbounded).
    """

    max_entries: int = 4096
    disk_dir: Optional[Path] = None
    disk_shards: int = 8
    disk_max_entries: Optional[int] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[str, Record]" = field(default_factory=OrderedDict)
    _store: Optional[ShardedStore] = field(default=None, repr=False)

    def __post_init__(self):
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self._store = ShardedStore(
                self.disk_dir,
                shards=self.disk_shards,
                max_entries=self.disk_max_entries,
            )

    @property
    def store_backend(self) -> Optional[ShardedStore]:
        """The sharded disk store, when configured."""
        return self._store

    def lookup(self, key: str) -> Optional[Record]:
        """Return the cached record for *key*, or ``None`` on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return dict(self._entries[key])
        if self._store is not None:
            record = self._store.get(key)
            if record is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._remember(key, record)
                return dict(record)
        self.stats.misses += 1
        return None

    def store(self, key: str, record: Record) -> None:
        """Insert *record* under *key* (memory, and disk when configured)."""
        self.stats.stores += 1
        self._remember(key, record)
        if self._store is not None:
            self._store.put(key, record)
            self.stats.disk_evictions = self._store.stats.evicted_entries
            self.stats.disk_bytes_reclaimed = (
                self._store.stats.bytes_reclaimed
            )

    def remember(self, key: str, record: Record) -> None:
        """Insert into the in-memory LRU only (disk untouched).

        The executor uses this when a backend already appended the
        record to this cache's own disk store (the remote backend's
        service with a shared ``store_dir``): a second ``put`` would
        double every line and halve the compaction headroom.
        """
        self.stats.stores += 1
        self._remember(key, record)

    def _remember(self, key: str, record: Record) -> None:
        self._entries[key] = dict(record)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self, disk: bool = False) -> ClearReport:
        """Drop the in-memory entries (and the disk store when *disk*).

        Returns a :class:`~repro.runtime.store.ClearReport` of evicted
        entries and bytes reclaimed (in-memory entries count as
        entries; bytes are disk bytes only).  The counts also land in
        ``stats.evictions`` / ``stats.disk_evictions`` /
        ``stats.disk_bytes_reclaimed``.
        """
        report = ClearReport(entries_removed=len(self._entries))
        self.stats.evictions += len(self._entries)
        self._entries.clear()
        if disk and self._store is not None:
            disk_report = self._store.clear()
            report += disk_report
            self.stats.disk_evictions += disk_report.entries_removed
            self.stats.disk_bytes_reclaimed += disk_report.bytes_reclaimed
        return report

    def gc(
        self,
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Optional[GCReport]:
        """Garbage-collect the disk store (see :meth:`ShardedStore.gc`).

        Entries the GC removed may survive in this process's in-memory
        LRU until they age out; other processes miss immediately.
        Returns ``None`` for a memory-only cache.  Removal counters
        land in ``stats.disk_evictions`` / ``disk_bytes_reclaimed``.
        """
        if self._store is None:
            return None
        report = self._store.gc(ttl=ttl, max_bytes=max_bytes)
        self.stats.disk_evictions += report.entries_removed
        self.stats.disk_bytes_reclaimed += report.bytes_reclaimed
        return report


class KeyDeriver:
    """Computes cache keys for specs, memoizing coordinate fingerprints.

    The fingerprint comes from :func:`coordinate_fingerprint`, memoized
    per ``graph_coordinates`` so a sweep over epsilon hashes each graph's
    coordinates once.  **No graph is built** while deriving keys -- a
    fully-cached batch never touches the generators; misses build their
    graph lazily in the backend.
    """

    def __init__(self):
        self._fingerprints: Dict[Any, str] = {}

    def key_for(self, spec: JobSpec) -> str:
        if not spec_needs_graph(spec):
            # Graphless kinds (audit jobs that build their own
            # instances): the coordinate hash is cheap enough not to
            # memoize.
            return cache_key(spec, coordinate_fingerprint(spec))
        graph_id = spec.graph_coordinates
        fingerprint = self._fingerprints.get(graph_id)
        if fingerprint is None:
            fingerprint = coordinate_fingerprint(spec)
            self._fingerprints[graph_id] = fingerprint
        return cache_key(spec, fingerprint)
