"""Coordinate-addressed cache keys for the batch runtime.

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

Records live under these keys in the sharded
:class:`~repro.runtime.store.ShardedStore` (append-only shard files,
fcntl-locked multi-writer appends, newest-wins compaction), which
persists them across processes and CLI invocations, so concurrent
sweeps, shard runs and the service all share one cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict

import networkx as nx

from .jobs import JobSpec, spec_needs_graph


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
    """Hit/miss counters for one batch."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary_line(self) -> str:
        """One-line rendering for CLI summaries."""
        return (
            f"hits={self.hits} misses={self.misses} "
            f"hit_rate={self.hit_rate:.0%} stores={self.stores}"
        )


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
