"""Compiled graph topology shared across simulator runs.

:class:`CongestNetwork` historically re-derived its adjacency structure
from the :mod:`networkx` graph on every construction: per-node sorted
neighbor tuples, frozen membership sets, and the bandwidth budget.  For
a sweep that replays hundreds of trials on the same topology this work
was repeated per run even though the graph never changed.

A :class:`CompiledTopology` does that derivation exactly once per graph,
CSR first:

* node ids are normalized to **dense indices** ``0..n-1`` in the
  canonical :func:`~repro.graphs.utils.id_key` order (numeric for ints,
  ``repr`` after them for everything else, so mixed labels compile);
* the adjacency is a CSR encoding over dense indices
  (``indptr``/``indices``, rows ascending) plus a degree table, built by
  numpy sorts with no per-node Python containers -- the Stage I engine
  and the batched plane read only these arrays;
* the simulator's per-node views -- neighbor tuples (original ids) and
  frozen neighbor sets for O(1) membership checks in the delivery loop
  -- are derived from the CSR on first use, so a tester run that never
  simulates never allocates them;
* the default per-edge bandwidth budget.

:func:`compile_topology` memoizes compilations per graph *object* in a
``WeakKeyDictionary``.  A topology holds its graph only through a weak
reference (a strong one would keep every memo key alive forever), so an
entry drops as soon as the last outside reference to its graph goes;
:class:`~repro.congest.network.CongestNetwork` keeps its own strong
reference for as long as it runs.  The memo is the hook the runtime
layer relies on: its serial backend hands the same graph object to
every trial of a batch that replays it, so the topology is compiled
exactly once per process no matter how many jobs replay it.
:func:`topology_stats` exposes compile/reuse counters so tests (and
benchmarks) can assert that reuse actually happens.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Optional, Tuple

import networkx as nx
import numpy as np

from ..errors import GraphInputError
from ..graphs.utils import adjacency_slots, id_key
from .message import default_bandwidth_bits


def _int_array(values: "np.ndarray") -> array:
    """An ``array('q')`` copy of an int64 vector."""
    out = array("q")
    out.frombytes(values.tobytes())
    return out


class CompiledTopology:
    """Immutable, pre-derived adjacency structure of one simple graph.

    Attributes:
        graph: the source :class:`networkx.Graph` (held weakly; ``None``
            once the graph has been garbage-collected).
        n: number of nodes.
        m: number of edges (half the CSR slots).
        nodes: node ids in ``id_key`` order; position = dense index.
        dense_labels: whether the ids are ``0..n-1`` (each its own index).
        index: mapping from node id to dense index.
        indptr: CSR row pointers (length ``n + 1``); the neighbors of
            dense index ``i`` are ``indices[indptr[i]:indptr[i + 1]]``.
        indices: CSR column indices (dense neighbor indices, ascending
            within each row).
        columns: int64 numpy vector of the same rows in the source
            graph's ``_adj`` order, which Stage II's extraction keeps.
        degrees: dense degree table (``degrees[i]`` = degree of node
            ``nodes[i]``).
        neighbors: node id -> tuple of neighbor ids in dense order (the
            shape :class:`~repro.congest.node.NodeContext` consumes).
            Built on first access.
        neighbor_sets: node id -> frozenset of neighbor ids (delivery
            loop membership checks).  Built on first access.
        bandwidth_bits: the default CONGEST budget for this ``n`` (see
            :func:`repro.congest.message.default_bandwidth_bits`).
    """

    __slots__ = (
        "_graph_ref",
        "n",
        "m",
        "nodes",
        "dense_labels",
        "index",
        "indptr",
        "indices",
        "columns",
        "degrees",
        "bandwidth_bits",
        "_neighbors",
        "_neighbor_sets",
        "_plane_arrays",
        "_edge_arrays",
        "_batch_arrays",
        "__weakref__",
    )

    def __init__(self, graph: nx.Graph):
        if graph.is_directed() or graph.is_multigraph():
            raise GraphInputError("CongestNetwork requires a simple undirected graph")
        if graph.number_of_nodes() == 0:
            raise GraphInputError("CongestNetwork requires at least one node")
        self._graph_ref = weakref.ref(graph)
        n = self.n = graph.number_of_nodes()
        adj = graph._adj
        # Plain ints (bools and IntEnums excluded) sort numerically, as
        # id_key does; sorted distinct ints from 0 to n - 1 are exactly
        # 0..n-1, where every label is its own dense index.
        if set(map(type, adj)) == {int}:
            nodes: Tuple[Any, ...] = tuple(sorted(adj))
            dense_labels = nodes[0] == 0 and nodes[-1] == n - 1
        else:
            nodes = tuple(sorted(adj, key=id_key))
            dense_labels = False
        self.nodes = nodes
        self.dense_labels = dense_labels
        index: Dict[Any, int] = dict(zip(nodes, range(n)))
        self.index = index

        # Rows are filled in dense order, so one sort of the packed
        # (row, column) keys orders every row by neighbor index.
        degrees = np.fromiter(map(len, map(adj.__getitem__, nodes)), np.int64, n)
        slots = int(degrees.sum())
        if dense_labels:
            neighbor_indices = chain.from_iterable(map(adj.__getitem__, nodes))
        else:
            neighbor_indices = (index[w] for v in nodes for w in adj[v])
        columns = np.fromiter(neighbor_indices, np.int64, slots)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        if (columns == rows).any():
            raise GraphInputError("CongestNetwork does not support self-loops")
        # Loop-free, so every edge fills exactly two slots.
        self.m = slots // 2
        keys = np.sort(rows * n + columns)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        self.indptr = _int_array(indptr)
        self.indices = _int_array(keys - rows * n)
        self.columns = columns
        self.degrees = _int_array(degrees)
        self.bandwidth_bits = default_bandwidth_bits(n)
        self._neighbors = None
        self._neighbor_sets = None
        self._plane_arrays = None
        self._edge_arrays = None
        self._batch_arrays = None

    @property
    def graph(self) -> Optional[nx.Graph]:
        """The source graph, or ``None`` once it has been collected."""
        return self._graph_ref()

    # -- simulator views (lazy) -----------------------------------------------

    @property
    def neighbors(self) -> Dict[Any, Tuple[Any, ...]]:
        """Node id -> tuple of neighbor ids, in dense-index order."""
        views = self._neighbors
        if views is None:
            nodes = self.nodes
            indptr, indices = self.indptr, self.indices
            views = self._neighbors = {
                v: tuple(nodes[j] for j in indices[indptr[i] : indptr[i + 1]])
                for i, v in enumerate(nodes)
            }
        return views

    @property
    def neighbor_sets(self) -> Dict[Any, frozenset]:
        """Node id -> frozenset of neighbor ids."""
        views = self._neighbor_sets
        if views is None:
            views = self._neighbor_sets = {
                v: frozenset(nbrs) for v, nbrs in self.neighbors.items()
            }
        return views

    # -- dense-index accessors ------------------------------------------------

    def plane_arrays(self) -> "PlaneArrays":
        """Edge-slot arrays backing the dense message plane (lazy, cached).

        Every directed edge ``(u, v)`` owns one *slot*: the position of
        ``v`` in ``u``'s CSR row addresses the half-edge ``u -> v``, and
        messages travelling ``u -> v`` land in the **mirror** slot (the
        position of ``u`` in ``v``'s row), so a receiver's mail for one
        round is exactly the stamped entries of its own row slice.  The
        arrays are derived once per topology and shared by every run.
        """
        arrays = self._plane_arrays
        if arrays is None:
            arrays = self._plane_arrays = PlaneArrays(self)
        return arrays

    def edge_arrays(self):
        """Undirected edges as numpy index arrays ``(eu, ev)``, ``eu < ev``.

        One row per edge, endpoints as dense indices, ordered by
        ``(eu, row position)`` -- the contiguous representation the
        CSR-native partition pipeline sweeps instead of networkx edge
        views: the CSR slots whose owner precedes the neighbor.  Lazily
        built and cached.
        """
        arrays = self._edge_arrays
        if arrays is None:
            csr = self.batch_arrays()
            forward = csr.row_owner < csr.indices
            arrays = self._edge_arrays = (
                csr.row_owner[forward],
                csr.indices[forward],
            )
        return arrays

    def batch_arrays(self) -> "BatchArrays":
        """Numpy views of the CSR structure for the batched tensor plane.

        Zero-copy where possible: ``indptr``/``indices`` are
        ``np.frombuffer`` views over the compiled ``array('q')``
        buffers, ``degrees`` and ``row_owner`` are derived from them at
        C speed.  Lazily built and cached per topology, so every trial
        of a batch over the same graph shares one export (mirroring
        :meth:`plane_arrays` on the scalar side).
        """
        arrays = self._batch_arrays
        if arrays is None:
            indptr = np.frombuffer(self.indptr, dtype=np.int64)
            if len(self.indices):
                indices = np.frombuffer(self.indices, dtype=np.int64)
            else:
                indices = np.zeros(0, dtype=np.int64)
            degrees = np.diff(indptr)
            row_owner = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
            arrays = self._batch_arrays = BatchArrays(
                indptr=indptr,
                indices=indices,
                degrees=degrees,
                row_owner=row_owner,
            )
        return arrays

    def degree(self, node: Any) -> int:
        """Degree of *node* (by id)."""
        return self.degrees[self.index[node]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTopology(n={self.n}, m={self.m})"


class PlaneArrays:
    """Flat edge-slot lookup tables for the dense message plane.

    Attributes:
        csr_ids: per-slot original node id of the row entry
            (``csr_ids[s] = nodes[indices[s]]``) -- the *sender* id seen
            by the receiver owning slot ``s``.
        mirror: per-slot index of the reversed half-edge: for slot ``j``
            encoding ``u -> v`` in u's row, ``mirror[j]`` is the slot of
            ``v -> u`` in v's row.  Writing a payload for ``v`` into
            ``mirror[j]`` files it exactly where v's row scan finds it.
        row_owner: per-slot dense index of the row's owner (receiver).
        send_slot: per sender dense index, mapping from a *target's
            original id* to the slot (in the target's row) that delivers
            to it -- one dict ``get`` both validates neighborship and
            addresses the write.
        broadcast_slots / broadcast_targets: per sender dense index, the
            mirror-slot list and receiver-index list of its whole row --
            a pure broadcast zips the two and never touches the CSR.

    All tables are plain Python lists of pre-boxed ints (not ``array``
    typecodes): the delivery loop indexes them millions of times per
    run, and list reads return shared int objects instead of boxing a
    fresh ``PyLong`` per access.
    """

    __slots__ = (
        "csr_ids",
        "mirror",
        "row_owner",
        "send_slot",
        "broadcast_slots",
        "broadcast_targets",
    )

    def __init__(self, topology: "CompiledTopology"):
        indptr = topology.indptr
        indices = list(topology.indices)
        nodes = topology.nodes
        n = topology.n
        csr_ids = [nodes[i] for i in indices]
        position: Dict[Tuple[int, int], int] = {}
        row_owner = [0] * len(indices)
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                position[(u, indices[j])] = j
                row_owner[j] = u
        mirror = [position[(v, u)] for (u, v) in position]
        send_slot = []
        broadcast_slots = []
        broadcast_targets = []
        for u in range(n):
            lo, hi = indptr[u], indptr[u + 1]
            row_mirror = mirror[lo:hi]
            send_slot.append(dict(zip(csr_ids[lo:hi], row_mirror)))
            broadcast_slots.append(row_mirror)
            broadcast_targets.append(indices[lo:hi])
        self.csr_ids = csr_ids
        self.mirror = mirror
        self.row_owner = row_owner
        self.send_slot = tuple(send_slot)
        self.broadcast_slots = tuple(broadcast_slots)
        self.broadcast_targets = tuple(broadcast_targets)


@dataclass(frozen=True)
class BatchArrays:
    """Numpy CSR views of one topology (see ``batch_arrays``).

    Attributes:
        indptr: row pointers, length ``n + 1`` (int64 view).
        indices: per-slot dense index of the slot's *sender* -- for slot
            ``s`` in receiver ``row_owner[s]``'s row, ``indices[s]`` is
            the dense index of the neighbor whose broadcast lands there.
        degrees: dense degree table (``np.diff(indptr)``).
        row_owner: per-slot dense index of the row's owner (receiver).
    """

    indptr: Any
    indices: Any
    degrees: Any
    row_owner: Any


@dataclass
class TopologyStats:
    """Process-wide compile/reuse counters for :func:`compile_topology`."""

    compiled: int = 0
    reused: int = 0


_stats = TopologyStats()
_lock = threading.Lock()
_memo: "weakref.WeakKeyDictionary[nx.Graph, CompiledTopology]" = (
    weakref.WeakKeyDictionary()
)


def compile_topology(graph: nx.Graph, reuse: bool = True) -> CompiledTopology:
    """Compile (or fetch the memoized compilation of) *graph*.

    The memo is keyed by graph object identity -- networkx graphs hash
    by identity and are never mutated by the simulator, so two networks
    built over the *same* graph object share one compilation, while a
    structurally equal copy compiles separately.  Pass ``reuse=False``
    to force a fresh compilation (it is still stored for later reuse).

    Callers who mutate a graph between runs should recompile; as a
    guard, a memo hit whose node or ``_adj`` slot count no longer
    matches the graph is discarded and recompiled (same-count rewires
    are not detected); :func:`~repro.graphs.utils.adjacency_slots`
    counts without caching a view on the graph.
    """
    if reuse:
        with _lock:
            cached = _memo.get(graph)
        if cached is not None:
            slots = adjacency_slots(graph)
            if cached.n == graph.number_of_nodes() and 2 * cached.m == slots:
                with _lock:
                    _stats.reused += 1
                return cached
            # Stale hit (graph mutated since compilation): fall through
            # and recompile; the fresh topology overwrites the memo.
    topology = CompiledTopology(graph)
    with _lock:
        _memo[graph] = topology
        _stats.compiled += 1
    return topology


def topology_stats() -> TopologyStats:
    """A snapshot of the process-wide compile/reuse counters."""
    with _lock:
        return TopologyStats(compiled=_stats.compiled, reused=_stats.reused)


def reset_topology_stats() -> None:
    """Zero the compile/reuse counters (test isolation helper)."""
    with _lock:
        _stats.compiled = 0
        _stats.reused = 0
