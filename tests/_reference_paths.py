"""Test-side switches onto the reference implementations.

No runtime knob selects a reference path any more: the package runs one
production path per layer.  The differential suites patch the oracle in
for the duration of a ``with`` block instead:

* :func:`dict_plane` -- the seed's per-node dict-inbox delivery loop
  (:func:`repro.congest._differential.run_dict_plane`) in place of the
  dense message plane;
* :func:`seed_stage2` -- Stage II relabeling each part from its
  ``graph.subgraph`` view (``test_part(subgraph=None)``) and checking
  samples with the ``O(s*k)`` pairwise scan
  (``sample_and_detect(universe=None)``);
* :func:`pinned_forest` -- the dense Stage I engine's pointer-reversal
  merge checked, phase by phase, against the BFS re-root over
  per-node tree-adjacency lists that it replaced
  (:class:`ReferenceForest`).

Two plain oracles sit beside them: :func:`reference_topology`, the
per-node constructor loop that ``CompiledTopology`` replaced with numpy
sorts, and :func:`reference_edge_arrays`, its Python double loop over
the CSR slots.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import numpy as np

from repro.congest import CongestNetwork
from repro.congest._differential import run_dict_plane
from repro.errors import PartitionError
from repro.graphs import make_planar
from repro.graphs.utils import id_key
from repro.partition.dense import DensePartitionState
import repro.testers.planarity as planarity
import repro.testers.stage2 as stage2


def _run_dict_plane(self, programs, prof, max_rounds, round_hook=None):
    return run_dict_plane(programs, prof, max_rounds, round_hook)


@contextmanager
def dict_plane():
    """Run every ``CongestNetwork.run`` inside the block on the dict plane."""
    with mock.patch.object(CongestNetwork, "_run_dense_plane", _run_dict_plane):
        yield


def _per_part_views(graph, partition):
    return dict.fromkeys(partition.parts)


_SAMPLE_AND_DETECT = stage2.sample_and_detect


def _pairwise_scan(intervals, s, rng, universe=None, mask=None):
    return _SAMPLE_AND_DETECT(intervals, s, rng)


@contextmanager
def seed_stage2():
    """Run Stage II inside the block on its reference relabeling and scan."""
    with mock.patch.object(
        planarity, "extract_part_subgraphs", _per_part_views
    ), mock.patch.object(stage2, "sample_and_detect", _pairwise_scan):
        yield


def reference_topology(graph):
    """The per-node compile loop: every table ``CompiledTopology`` exposes.

    Rows are sorted by ``id_key`` neighbor order, the same order as the
    dense indices, so each row's index list comes out ascending.
    """
    nodes = tuple(sorted(graph.nodes(), key=id_key))
    index = {v: i for i, v in enumerate(nodes)}
    indptr = array("q", [0])
    indices = array("q")
    degrees = array("q")
    neighbors = {}
    neighbor_sets = {}
    neighbor_index_sets = []
    for v in nodes:
        nbrs = tuple(sorted(graph.neighbors(v), key=id_key))
        neighbors[v] = nbrs
        neighbor_sets[v] = frozenset(nbrs)
        row = [index[w] for w in nbrs]
        indices.extend(row)
        indptr.append(len(indices))
        degrees.append(len(nbrs))
        neighbor_index_sets.append(frozenset(row))
    return SimpleNamespace(
        nodes=nodes,
        index=index,
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        neighbors=neighbors,
        neighbor_sets=neighbor_sets,
        neighbor_index_sets=tuple(neighbor_index_sets),
    )


def reference_edge_arrays(topology):
    """Undirected edges ``(eu, ev)``, ``eu < ev``, by a loop over CSR slots."""
    eu = []
    ev = []
    indptr, indices = topology.indptr, topology.indices
    for u in range(topology.n):
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            if u < v:
                eu.append(u)
                ev.append(v)
    return np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)


class ReferenceForest:
    """Spanning forest kept as per-node adjacency lists, re-rooted by BFS.

    Merges only ever *add* connector edges, so the forest grows in
    place; each merged part is re-rooted at its center by a BFS that
    rewrites the parents and measures the height, and a BFS that misses
    nodes of the merged part raises :class:`PartitionError`.
    """

    def __init__(self, n):
        self.parent = [-1] * n
        self.tree_adj = [[] for _ in range(n)]
        self.heights = dict.fromkeys(range(n), 0)
        self.sizes = dict.fromkeys(range(n), 1)
        self._seen = [0] * n
        self._generation = 0

    def merge(self, contract_edges, aux):
        star_children = {}
        for child, center in contract_edges:
            star_children.setdefault(center, []).append(child)
        tree_adj = self.tree_adj
        for child, center in contract_edges:
            u, v = (int(end[0]) for end in aux.connectors([child], [center]))
            tree_adj[u].append(v)
            tree_adj[v].append(u)
        parent = self.parent
        seen = self._seen
        for center, children in star_children.items():
            expected = self.sizes[center] + sum(self.sizes[c] for c in children)
            self._generation += 1
            generation = self._generation
            seen[center] = generation
            parent[center] = -1
            height = -1
            reached = 0
            frontier = [center]
            while frontier:
                height += 1
                reached += len(frontier)
                nxt = []
                for v in frontier:
                    for w in tree_adj[v]:
                        if seen[w] != generation:
                            seen[w] = generation
                            parent[w] = v
                            nxt.append(w)
                frontier = nxt
            if reached != expected:
                raise PartitionError(
                    f"spanning tree of part rooted at {center!r} does not "
                    f"reach {expected - reached} nodes"
                )
            self.sizes[center] = expected
            self.heights[center] = height
            for child in children:
                del self.sizes[child]
                del self.heights[child]


_DENSE_MERGE = DensePartitionState.merge


@contextmanager
def pinned_forest():
    """Check every dense merge inside the block against :class:`ReferenceForest`.

    Each state gets its own reference forest on first merge; after every
    merge the state's ``parent``/``heights``/``sizes`` must equal the
    reference's, key order included.  Yields the list of merges checked,
    one ``(parts_before, parts_after)`` entry per call.
    """
    checked = []

    def merge(state, contract_edges, aux):
        reference = state.__dict__.get("_reference_forest")
        if reference is None:
            reference = state._reference_forest = ReferenceForest(state.topology.n)
        before = state.size
        _DENSE_MERGE(state, contract_edges, aux)
        reference.merge(contract_edges, aux)
        assert state.parent.tolist() == reference.parent
        assert list(state.heights.items()) == list(reference.heights.items())
        assert list(state.sizes.items()) == list(reference.sizes.items())
        checked.append((before, state.size))

    with mock.patch.object(DensePartitionState, "merge", merge):
        yield checked


def edge_case_graphs():
    """Label and shape edge cases the differential suites pin beside the
    bundled generators."""
    base = make_planar("delaunay", 60, seed=0)
    str_labelled = nx.relabel_nodes(base, {v: f"v{v}" for v in base})
    isolated = make_planar("grid", 30, seed=0)
    isolated.add_nodes_from([500, 77, 31])
    single = nx.Graph()
    single.add_node(4)
    disconnected = nx.disjoint_union(nx.cycle_graph(7), nx.path_graph(5))
    mixed = nx.Graph([(0, "a"), ("a", 2), (2, (1, 0)), ((1, 0), "b"), (10, 2)])
    mixed.add_node("z")
    return {
        "str-labelled": str_labelled,
        "isolated-nodes": isolated,
        "single-node": single,
        "disconnected": disconnected,
        "mixed-labels": mixed,
    }
