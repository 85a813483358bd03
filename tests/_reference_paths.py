"""Test-side switches onto the reference implementations.

No runtime knob selects a reference path any more: the package runs one
production path per layer.  The differential suites patch the oracle in
for the duration of a ``with`` block instead:

* :func:`dict_plane` -- the seed's per-node dict-inbox delivery loop
  (:func:`run_dict_plane`) and its accounting (:class:`FaithfulProfile`)
  in place of the dense message plane;
* :func:`faithful_profile` -- the dense plane, but with the seed's
  accounting and real inbox dicts (:func:`inbox_dict`) in place of
  :class:`~repro.congest.plane.SlotInbox` views;
* :func:`seed_stage2` -- Stage II relabeling each part from its
  ``graph.subgraph`` view (:func:`_per_part_views`) and checking
  samples with the ``O(s*k)`` pairwise scan (:func:`_pairwise_scan`);
* :func:`pinned_forest` -- the dense Stage I engine's pointer-reversal
  merge checked, phase by phase, against the BFS re-root over
  per-node tree-adjacency lists that it replaced
  (:class:`ReferenceForest`).

Three plain oracles sit beside them: :func:`reference_topology`, the
per-node constructor loop that ``CompiledTopology`` replaced with numpy
sorts, :func:`reference_edge_arrays`, its Python double loop over the
CSR slots, and :func:`violating_mask_bruteforce`, the ``O(k^2)``
violating-edge mask.  :func:`labels_by_id` runs the int-indexed label
layer on a networkx graph and keys its answers by node id.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import numpy as np

import repro.congest.network as network
from repro.congest import BROADCAST, CongestNetwork, DenseMessagePlane, bit_size
from repro.errors import BandwidthExceededError, PartitionError, ProtocolError
from repro.graphs import make_planar
from repro.graphs.utils import id_key
from repro.partition.dense import DensePartitionState
from repro.planarity.lr_planarity import LocalGraph
from repro.planarity.rotation import HalfEdgeRing
from repro.testers.labels import (
    corner_intervals,
    deterministic_bfs_tree,
    embedding_ranks,
    euler_tour_positions,
    non_tree_intervals,
)
from repro.testers.violations import SamplingOutcome, edges_interlace
import repro.testers.planarity as planarity
import repro.testers.stage2 as stage2


class FaithfulProfile:
    """The seed's validation and accounting, message by message.

    Same constructor and counters as
    :class:`~repro.congest.instrumentation.MessageAccounting`, but every
    message -- broadcasts expanded edge by edge -- is checked against the
    sender's neighbor set and sized by the full :func:`bit_size`
    recursion, and a per-round ``(messages, bits)`` ledger is kept.
    :meth:`deliver` files into dict inboxes (the dict plane),
    :meth:`deliver_dense` into the dense plane's edge slots.
    """

    def __init__(self, topology, bandwidth_bits, strict_bandwidth):
        self._neighbors = topology.neighbors
        self._neighbor_sets = topology.neighbor_sets
        self._bandwidth = bandwidth_bits
        self._strict = strict_bandwidth
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        self.over_budget = 0
        self._rounds = {}

    def round_stats(self, rounds):
        """Per-round ``(messages, bits)`` for the first *rounds* rounds."""
        return tuple(tuple(self._rounds.get(r, (0, 0))) for r in range(rounds))

    def _this_round(self, round_index):
        row = self._rounds.get(round_index)
        if row is None:
            row = self._rounds[round_index] = [0, 0]
        return row

    def _expand_broadcast(self, node, outbox):
        expanded = dict.fromkeys(self._neighbors[node], outbox[BROADCAST])
        for target, payload in outbox.items():
            if target != BROADCAST:
                expanded[target] = payload
        return expanded

    def deliver(self, node, outbox, inboxes, round_index):
        if BROADCAST in outbox:
            outbox = self._expand_broadcast(node, outbox)
        neighbor_set = self._neighbor_sets[node]
        bandwidth = self._bandwidth
        this_round = self._this_round(round_index)
        for target, payload in outbox.items():
            if target not in neighbor_set:
                raise ProtocolError(
                    f"node {node!r} attempted to message non-neighbor "
                    f"{target!r}"
                )
            bits = bit_size(payload)
            self.total_messages += 1
            self.total_bits += bits
            this_round[0] += 1
            this_round[1] += bits
            if bits > self.max_message_bits:
                self.max_message_bits = bits
            if bits > bandwidth:
                if self._strict:
                    raise BandwidthExceededError(node, target, bits, bandwidth)
                self.over_budget += 1
            box = inboxes.get(target)
            if box is None:
                box = inboxes[target] = {}
            box[node] = payload

    def deliver_dense(self, idx, node, outbox, plane, token):
        if BROADCAST in outbox:
            outbox = self._expand_broadcast(node, outbox)
        slots = plane.send_slot[idx]
        owner = plane.row_owner
        data = plane.next_data
        stamp = plane.next_stamp
        mark = plane.next_mark
        count = plane.next_count
        bandwidth = self._bandwidth
        this_round = self._this_round(token - 1)
        for target, payload in outbox.items():
            slot = slots.get(target)
            if slot is None:
                raise ProtocolError(
                    f"node {node!r} attempted to message non-neighbor "
                    f"{target!r}"
                )
            bits = bit_size(payload)
            self.total_messages += 1
            self.total_bits += bits
            this_round[0] += 1
            this_round[1] += bits
            if bits > self.max_message_bits:
                self.max_message_bits = bits
            if bits > bandwidth:
                if self._strict:
                    raise BandwidthExceededError(node, target, bits, bandwidth)
                self.over_budget += 1
            data[slot] = payload
            stamp[slot] = token
            receiver = owner[slot]
            if mark[receiver] == token:
                count[receiver] += 1
            else:
                mark[receiver] = token
                count[receiver] = 1


def inbox_dict(plane, idx, token):
    """Node *idx*'s dense-plane inbox as a real dict, or ``None``.

    Key order is the CSR row order (senders in ``id_key`` order), which
    is the seed's insertion order because the scheduler steps senders
    in that order.
    """
    if plane.cur_mark[idx] != token:
        return None
    lo, hi = plane.indptr[idx], plane.indptr[idx + 1]
    data = plane.cur_data
    ids = plane.csr_ids
    remaining = plane.cur_count[idx]
    if remaining == hi - lo:
        return dict(zip(ids[lo:hi], data[lo:hi]))
    stamp = plane.cur_stamp
    box = {}
    for slot in range(lo, hi):
        if stamp[slot] == token:
            box[ids[slot]] = data[slot]
            remaining -= 1
            if not remaining:
                break
    return box


_EMPTY_INBOX = {}


def run_dict_plane(programs, prof, max_rounds, round_hook=None):
    """The seed delivery loop: per-node dict inboxes rebuilt per round.

    Same contract as ``CongestNetwork._run_dense_plane``: returns
    ``(rounds_executed, active)`` where *active* is the (possibly
    empty) list of still-running programs at exit.
    """
    active = [item for item in programs.items() if not item[1].halted]
    inboxes = {}
    rounds_executed = 0
    deliver = prof.deliver
    for round_index in range(max_rounds):
        if not active:
            break
        rounds_executed += 1
        next_inboxes = {}
        get_inbox = inboxes.get
        for node, program in active:
            outbox = program.step(round_index, get_inbox(node, _EMPTY_INBOX))
            if outbox is None:
                continue
            if not isinstance(outbox, Mapping):
                raise ProtocolError(
                    f"node {node!r} returned a non-mapping outbox: {outbox!r}"
                )
            if outbox:
                deliver(node, outbox, next_inboxes, round_index)
        inboxes = next_inboxes
        if round_hook is not None:
            round_hook(round_index, len(active), prof)
        active = [item for item in active if not item[1].halted]
    return rounds_executed, active


def _run_dict_plane(self, programs, prof, max_rounds, round_hook=None):
    return run_dict_plane(programs, prof, max_rounds, round_hook)


@contextmanager
def _faithful_accounting():
    """Build every run's accounting as a :class:`FaithfulProfile`; yields
    the list of those built, in run order."""
    built = []

    def make(topology, bandwidth_bits, strict_bandwidth):
        built.append(FaithfulProfile(topology, bandwidth_bits, strict_bandwidth))
        return built[-1]

    with mock.patch.object(network, "MessageAccounting", make):
        yield built


@contextmanager
def dict_plane():
    """Run every ``CongestNetwork.run`` inside the block on the seed's dict
    plane with :class:`FaithfulProfile` accounting; yields the list of
    accountings built (one per run, in order)."""
    with _faithful_accounting() as built, mock.patch.object(
        CongestNetwork, "_run_dense_plane", _run_dict_plane
    ):
        yield built


@contextmanager
def faithful_profile():
    """Run every ``CongestNetwork.run`` inside the block on the dense plane
    with :class:`FaithfulProfile` accounting and real inbox dicts; yields
    the list of accountings built (one per run, in order)."""
    with _faithful_accounting() as built, mock.patch.object(
        DenseMessagePlane, "inbox_view", inbox_dict
    ):
        yield built


def _per_part_views(graph, state):
    """Each part of the dense *state* relabeled from its own
    ``graph.subgraph`` view, its node set built in ascending dense-index
    order as the tester builds it."""
    ids = state.topology.nodes
    members = {}
    for idx, root in enumerate(state.part_of.tolist()):
        members.setdefault(ids[root], []).append(ids[idx])
    return {
        pid: LocalGraph.from_graph(graph.subgraph(frozenset(nodes)))
        for pid, nodes in members.items()
    }


def _pairwise_scan(intervals, s, rng, universe=None, mask=None):
    """:func:`sample_and_detect`'s sampling, each sampled edge checked
    against every other non-tree edge instead of the violating mask."""
    k = len(intervals)
    if k == 0 or s <= 0:
        return SamplingOutcome(False, s, 0, False)
    probability = min(1.0, s / k)
    chosen = [i for i in range(k) if rng.random() < probability]
    cap = max(4 * s, 1)
    truncated = len(chosen) > cap
    if truncated:
        chosen = chosen[:cap]
    for i in chosen:
        for j in range(k):
            if j != i and edges_interlace(intervals[i], intervals[j]):
                return SamplingOutcome(
                    True, s, len(chosen), truncated, (intervals[i], intervals[j])
                )
    return SamplingOutcome(False, s, len(chosen), truncated)


def violating_mask_bruteforce(intervals):
    """The ``O(k^2)`` violating-edge mask :func:`violating_mask` replaced."""
    k = len(intervals)
    mask = [False] * k
    for i in range(k):
        for j in range(i + 1, k):
            if edges_interlace(intervals[i], intervals[j]):
                mask[i] = mask[j] = True
    return mask


def labels_by_id(graph, root, rotation=None):
    """Stage II's labels of networkx *graph* from *root*, keyed by node id.

    The label layer runs on a relabeled :class:`LocalGraph`; this
    relabels once, runs it and maps the answers back: ``parents`` (None
    at the root) and ``depths`` by node and, given *rotation* (a
    :class:`~repro.planarity.rotation.RotationSystem` over node ids),
    ``ranks`` by node, corner ``positions`` by ``(v, x)`` half-edge and
    their ``total``, and the ``corner`` and ``preorder`` non-tree
    intervals as ``(a, b)`` pairs.
    """
    local = LocalGraph.from_graph(graph)
    nodes, index = local.nodes, local.index
    r = index[root]
    parent, depth = deterministic_bfs_tree(local, r)
    out = SimpleNamespace(
        parents={v: nodes[p] if p >= 0 else None for v, p in zip(nodes, parent)},
        depths=dict(zip(nodes, depth)),
    )
    if rotation is None:
        return out
    ring = HalfEdgeRing.from_rotations(
        [[index[w] for w in rotation.rotation(v)] for v in nodes]
    )
    ranks = embedding_ranks(local, r, ring, parent)
    positions, out.total = euler_tour_positions(local, r, ring, parent)
    out.ranks = dict(zip(nodes, ranks))
    to = ring.targets()
    out.positions = {
        (nodes[to[h ^ 1]], nodes[to[h]]): p for h, p in enumerate(positions) if p >= 0
    }
    out.corner = corner_intervals(local, parent, positions, ring)
    out.preorder = [
        (a, b) for a, b, _u, _v in non_tree_intervals(local, parent, ranks)
    ]
    return out


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
    dense indices, so each row's index list comes out ascending;
    ``columns`` keeps each row in the graph's own neighbor order.
    """
    nodes = tuple(sorted(graph.nodes(), key=id_key))
    index = {v: i for i, v in enumerate(nodes)}
    indptr = array("q", [0])
    indices = array("q")
    degrees = array("q")
    neighbors = {}
    neighbor_sets = {}
    row_owner = []
    columns = []
    for i, v in enumerate(nodes):
        nbrs = tuple(sorted(graph.neighbors(v), key=id_key))
        neighbors[v] = nbrs
        neighbor_sets[v] = frozenset(nbrs)
        indices.extend(index[w] for w in nbrs)
        indptr.append(len(indices))
        degrees.append(len(nbrs))
        row_owner.extend([i] * len(nbrs))
        columns.extend(index[w] for w in graph.neighbors(v))
    return SimpleNamespace(
        nodes=nodes,
        index=index,
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        neighbors=neighbors,
        neighbor_sets=neighbor_sets,
        row_owner=row_owner,
        columns=columns,
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

    def merge(state, children, centers, aux):
        reference = state.__dict__.get("_reference_forest")
        if reference is None:
            reference = state._reference_forest = ReferenceForest(state.topology.n)
        before = state.size
        contract_edges = list(zip(children.tolist(), centers.tolist()))
        _DENSE_MERGE(state, children, centers, aux)
        reference.merge(contract_edges, aux)
        assert state.parent.tolist() == reference.parent
        assert list(state.heights.items()) == list(reference.heights.items())
        assert list(state.sizes.items()) == list(reference.sizes.items())
        assert state.roots.tolist() == list(reference.sizes)
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
