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
from typing import Any, Dict, Tuple

import networkx as nx

from .jobs import JobSpec


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


def _split_json(payload: Dict[str, Any], hole: str) -> Tuple[str, str]:
    """The canonical JSON of *payload* split around the int field *hole*.

    The field is dumped as ``0`` and cut out; the text before and after
    it is what every payload differing only in that int shares.  The
    last match is the field itself: a quote inside a string value is
    escaped, so ``"hole":0`` cannot occur in one.
    """
    text = json.dumps(
        {**payload, hole: 0}, sort_keys=True, separators=(",", ":")
    )
    head, _, tail = text.rpartition(f'"{hole}":0')
    return f'{head}"{hole}":', tail


class KeyDeriver:
    """Computes cache keys for specs from memoized JSON templates.

    A key is byte-identical to ``cache_key(spec,
    coordinate_fingerprint(spec))``, but the canonical JSON of both
    digests is spliced together from text memoized per ``(kind,
    config)`` and ``(far, family, n)``, so a key costs three SHA-256
    calls and no ``json.dumps``.  A spec whose seeds or ``n`` are not
    exact ints, or whose kind, family or far are not exact strs, takes
    the reference path.  **No graph is built** while
    deriving keys -- a fully-cached batch never touches the generators;
    misses build their graph lazily in the backend.
    """

    def __init__(self):
        self._configs: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._coordinates: Dict[Tuple[Any, str, int], Tuple[str, str]] = {}

    def key_for(self, spec: JobSpec) -> str:
        kind, far, family, n, seed = (
            spec.kind, spec.far, spec.family, spec.n, spec.seed
        )
        graph_seed = seed if spec.graph_seed is None else spec.graph_seed
        if not (
            type(seed) is type(graph_seed) is type(n) is int
            and type(kind) is type(family) is str
            and (far is None or type(far) is str)
        ):
            return cache_key(spec, coordinate_fingerprint(spec))
        # repr, not the tuple, keys the config: 1, 1.0 and True are
        # equal dict keys but digest differently.
        config_id = (kind, repr(spec.config))
        config = self._configs.get(config_id)
        if config is None:
            config = self._configs[config_id] = _split_json(
                {"kind": kind, "config": [[k, repr(v)] for k, v in spec.config]},
                "seed",
            )
        coordinates = self._coordinates.get((far, family, n))
        if coordinates is None:
            coordinates = self._coordinates[far, family, n] = _split_json(
                {"far": far, "family": family, "n": n}, "graph_seed"
            )
        digest = hashlib.sha256(f"{config[0]}{seed}{config[1]}".encode())
        fingerprint = hashlib.sha256(
            f"{coordinates[0]}{graph_seed}{coordinates[1]}".encode()
        )
        return hashlib.sha256(
            f"{kind}\x00coord:{fingerprint.hexdigest()}\x00"
            f"{digest.hexdigest()}".encode()
        ).hexdigest()
