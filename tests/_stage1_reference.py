"""Reference Stage I: the dict engine the dense partition is diffed against.

The package runs one Stage I engine, the CSR-native dense partition
(:mod:`repro.partition.dense`), and one decision layer in it serves
Theorem 3 and Theorem 4 alike.  This module keeps the seed's dict-keyed
implementation of the same algorithms as a test oracle; none of it is
reachable from ``src/``:

* :class:`Part`, :func:`build_part` and :class:`Partition` -- the
  partition as per-part objects, with the Lemma 6 checks
  (:meth:`Partition.validate`); :func:`to_partition` and
  :func:`dense_of` convert to and from the engine's
  :class:`~repro.partition.dense.DensePartitionState`;
* :class:`AuxiliaryGraph` -- the weighted contraction ``G_i`` of a
  :class:`Partition`, with min-id designated
  connectors (the oracle of
  :class:`~repro.partition.dense.DenseAuxiliaryGraph`);
* :func:`forest_decomposition_emulated` -- Barenboim-Elkin deactivation
  and orientation over an :class:`AuxiliaryGraph`;
* :func:`select_heaviest_out_edges` and :func:`merge_parts` -- merging
  sub-steps 1 and 4 on :class:`Partition` objects;
* :func:`cole_vishkin_emulated` and :func:`randomized_coloring_emulated`
  -- sub-step 2a and Remark 1's randomized coloring on dict
  pseudoforests (the oracles of
  :func:`~repro.partition.dense.cole_vishkin_dense`
  and :func:`~repro.partition.dense.randomized_coloring_dense`);
* :func:`mark_and_choose` -- CHW marking and parity choice on dict
  pseudoforests, abstainers included (the oracle of
  :func:`~repro.partition.dense.mark_and_choose_dense`, which
  :func:`dense_marking` runs on the same dict input);
* :func:`weighted_edge_selection` and :func:`_color_pseudoforest` -- the
  Theorem 4 per-draw ``rng.choices`` loop and its dict coloring step;
* :func:`reference_partition_stage1` / :func:`reference_partition_randomized`
  -- the two phase loops;
* :func:`reference_build_spanner`, :func:`reference_measure_stretch` and
  :func:`reference_application` -- the Corollary 16/17 consumers walking
  the partition's ``Part`` objects through networkx views;
  :func:`part_verdict` is the per-part check of the four Corollary 16
  properties and its rounds rule, the oracle of
  :func:`repro.testers.applications.test_hereditary_property`;
* :func:`node_sets` -- a dense state's per-part node sets;
* :func:`reference_stage1` -- patches the tester onto the reference
  partition, handed to Stage II through :func:`dense_of`, for the
  duration of a ``with`` block.

:data:`RELABELINGS` and :func:`label_cases` drive the label-type
differential suites: every case is a bundled family, relabeled.
"""

from __future__ import annotations

import math
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple
from unittest import mock

import networkx as nx
import numpy as np
import pytest

import repro.testers.planarity as planarity
from _reference_paths import labels_by_id
from repro.congest.ledger import RoundLedger, TreeCostModel
from repro.congest.programs.cole_vishkin import cv_schedule, cv_step_value
from repro.congest.programs.forest_decomposition import barenboim_elkin_round_budget
from repro.congest.topology import compile_topology
from repro.errors import GraphInputError, PartitionError
from repro.graphs.utils import diameter, id_key, iter_edges
from repro.partition.dense import (
    DensePartitionState,
    MarkingResult,
    mark_and_choose_dense,
)
from repro.partition.stage1 import (
    PhaseStats,
    Stage1Result,
    _charge_merging_overhead,
    theoretical_phase_cap,
)
from repro.partition.weighted_selection import (
    RandomizedPartitionResult,
    default_trials,
)
from repro.planarity.lr_planarity import check_planarity
from repro.testers.results import ApplicationTestResult

# -- label types ---------------------------------------------------------------

RELABELINGS = {
    "identity": None,
    "str": "v{}".format,
    "mixed": lambda v: v if v % 2 else f"s{v}",
    "negative": lambda v: -v - 1,
    "big": lambda v: v + 2**62,
    "tuple": lambda v: (v % 3, v),
}
"""Node relabelings of an int-labelled graph: one per label type."""


def relabeled(graph: nx.Graph, relabeling: str) -> nx.Graph:
    """*graph* under the named :data:`RELABELINGS` entry."""
    mapping = RELABELINGS[relabeling]
    return graph if mapping is None else nx.relabel_nodes(graph, mapping)


def label_cases(names):
    """``pytest.param(name, relabeling)`` over *names* x :data:`RELABELINGS`.

    The identity case keeps the bare name as its id, so adding the
    label axis leaves the int-labelled test ids unchanged.
    """
    return [
        pytest.param(
            name,
            relabeling,
            id=name if relabeling == "identity" else f"{name}/{relabeling}",
        )
        for name in names
        for relabeling in RELABELINGS
    ]


# -- the dict partition ----------------------------------------------------------
#
# Lemma 6's partition as per-part objects: a connected node set with a
# rooted spanning tree, named by its root.  The engine keeps the same
# partition as two vectors (``DensePartitionState.part_of`` and
# ``parent``); :func:`to_partition` and :func:`dense_of` convert between
# the two forms.


@dataclass
class Part:
    """One part: a connected node set with a rooted spanning tree.

    Attributes:
        root: designated root node (also the part's identifier).
        nodes: the part's node set.
        parents: spanning-tree parent pointers (child -> parent) for every
            non-root node of the part.
        height: height of the spanning tree.
    """

    root: Any
    nodes: FrozenSet[Any]
    parents: Dict[Any, Any] = field(default_factory=dict)
    height: int = 0

    @property
    def pid(self) -> Any:
        """Part identifier (the root node's id)."""
        return self.root

    def __len__(self) -> int:
        return len(self.nodes)

    def tree_edges(self) -> Iterator[Tuple[Any, Any]]:
        """Spanning-tree edges as (child, parent) pairs."""
        return iter(self.parents.items())


def build_part(root: Any, nodes, tree_edges) -> Part:
    """Construct a part from a root and an edge set; recompute the tree.

    *tree_edges* must connect exactly the node set; parent pointers and
    height are derived by BFS from the root (so callers may pass edges in
    any orientation).
    """
    node_set = frozenset(nodes)
    adjacency: Dict[Any, List[Any]] = {v: [] for v in node_set}
    for u, v in tree_edges:
        if u not in node_set or v not in node_set:
            raise PartitionError(f"tree edge ({u!r}, {v!r}) leaves the part")
        adjacency[u].append(v)
        adjacency[v].append(u)
    parents: Dict[Any, Any] = {}
    height = 0
    seen = {root}
    queue = deque([(root, 0)])
    while queue:
        v, depth = queue.popleft()
        height = max(height, depth)
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                parents[w] = v
                queue.append((w, depth + 1))
    if seen != node_set:
        raise PartitionError(
            f"spanning tree of part rooted at {root!r} does not reach "
            f"{len(node_set - seen)} nodes"
        )
    return Part(root=root, nodes=node_set, parents=parents, height=height)


class Partition:
    """A partition of a graph's nodes into rooted connected parts."""

    def __init__(self, graph: nx.Graph, parts: List[Part]):
        """Wrap *parts* over *graph*; derives the node -> part index."""
        self.graph = graph
        self.parts: Dict[Any, Part] = {}
        self.part_of: Dict[Any, Any] = {}
        for part in parts:
            if part.pid in self.parts:
                raise PartitionError(f"duplicate part id {part.pid!r}")
            self.parts[part.pid] = part
            for node in part.nodes:
                if node in self.part_of:
                    raise PartitionError(f"node {node!r} appears in two parts")
                self.part_of[node] = part.pid
        missing = set(graph.nodes()) - set(self.part_of)
        if missing:
            raise PartitionError(f"{len(missing)} nodes not covered by any part")

    @classmethod
    def singletons(cls, graph: nx.Graph) -> "Partition":
        """The initial partition P_1: every node is its own part."""
        return cls(
            graph,
            [Part(root=v, nodes=frozenset([v])) for v in graph.nodes()],
        )

    # -- queries ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def cut_edges(self) -> Iterator[Tuple[Any, Any]]:
        """Edges of the graph whose endpoints lie in different parts."""
        part_of = self.part_of
        for u, v in iter_edges(self.graph):
            if part_of[u] != part_of[v]:
                yield (u, v)

    def cut_size(self) -> int:
        """Number of inter-part edges (the weight of the auxiliary graph)."""
        return sum(1 for _ in self.cut_edges())

    def max_height(self) -> int:
        """Maximum spanning-tree height over parts."""
        return max((p.height for p in self.parts.values()), default=0)

    def max_diameter(self) -> int:
        """Maximum diameter of the induced subgraphs of the parts."""
        best = 0
        for part in self.parts.values():
            if len(part) > 1:
                best = max(best, diameter(self.graph.subgraph(part.nodes)))
        return best

    def part_subgraph(self, pid: Any) -> nx.Graph:
        """Induced subgraph of the part with id *pid*."""
        return self.graph.subgraph(self.parts[pid].nodes)

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check all Lemma 6 invariants; raise :class:`PartitionError`."""
        for part in self.parts.values():
            if part.root not in part.nodes:
                raise PartitionError(f"root {part.root!r} outside its part")
            sub = self.graph.subgraph(part.nodes)
            if len(part) > 1 and not nx.is_connected(sub):
                raise PartitionError(f"part {part.pid!r} is not connected")
            if set(part.parents) != part.nodes - {part.root}:
                raise PartitionError(
                    f"part {part.pid!r}: parent pointers do not cover the part"
                )
            depth_seen: Dict[Any, int] = {part.root: 0}
            for node in part.parents:
                # Walk to the root, detecting cycles and escapes.
                chain = []
                v = node
                while v not in depth_seen:
                    chain.append(v)
                    v = part.parents.get(v)
                    if v is None or v not in part.nodes:
                        raise PartitionError(
                            f"part {part.pid!r}: broken parent chain at {node!r}"
                        )
                    if len(chain) > len(part.nodes):
                        raise PartitionError(
                            f"part {part.pid!r}: parent pointers contain a cycle"
                        )
                base = depth_seen[v]
                for offset, w in enumerate(reversed(chain), start=1):
                    depth_seen[w] = base + offset
            for child, parent in part.parents.items():
                if not self.graph.has_edge(child, parent):
                    raise PartitionError(
                        f"part {part.pid!r}: tree edge ({child!r}, {parent!r}) "
                        "is not a graph edge"
                    )
            true_height = max(depth_seen.values(), default=0)
            if true_height != part.height:
                raise PartitionError(
                    f"part {part.pid!r}: recorded height {part.height} != "
                    f"actual {true_height}"
                )


def to_partition(state: DensePartitionState, graph: nx.Graph) -> Partition:
    """The dense *state* over *graph* as a :class:`Partition`.

    Parts come in ascending root order, and each node set is built in
    ascending dense-index order.
    """
    ids = state.topology.nodes
    parent = state.parent.tolist()
    members: Dict[int, List[int]] = {root: [] for root in state.heights}
    for idx, root in enumerate(state.part_of.tolist()):
        members[root].append(idx)
    parts = []
    for root, group in members.items():
        parents = {ids[idx]: ids[parent[idx]] for idx in group if parent[idx] >= 0}
        parts.append(
            Part(
                root=ids[root],
                nodes=frozenset(ids[idx] for idx in group),
                parents=parents,
                height=state.heights[root],
            )
        )
    return Partition(graph, parts)


def node_sets(state: DensePartitionState) -> Dict[Any, FrozenSet[Any]]:
    """Each part's node set by root id, roots ascending; each set is
    built in ascending dense-index order, as :func:`to_partition` builds
    it."""
    ids = state.topology.nodes
    members: Dict[int, List[Any]] = {root: [] for root in state.heights}
    for idx, root in enumerate(state.part_of.tolist()):
        members[root].append(ids[idx])
    return {ids[root]: frozenset(group) for root, group in members.items()}


def dense_of(partition: Partition) -> DensePartitionState:
    """The dict *partition* as a :class:`DensePartitionState`."""
    topology = compile_topology(partition.graph)
    index = topology.index
    parent = np.full(topology.n, -1, dtype=np.int64)
    for part in partition.parts.values():
        for child, up in part.tree_edges():
            parent[index[child]] = index[up]
    return DensePartitionState.from_forest(topology, parent)


# -- auxiliary graph -----------------------------------------------------------


@dataclass(frozen=True)
class AuxEdge:
    """One auxiliary edge with its designated connector edge in G."""

    parts: Tuple[Any, Any]  # (pid_a, pid_b), canonical order
    weight: int
    connector: Tuple[Any, Any]  # (node in pid_a, node in pid_b)


class AuxiliaryGraph:
    """The weighted contraction of a partition."""

    def __init__(self, partition: Partition):
        """Build G_i from *partition* in O(m) time."""
        self.partition = partition
        self._adj: Dict[Any, Dict[Any, int]] = {
            pid: {} for pid in partition.parts
        }
        connectors: Dict[Tuple[Any, Any], Tuple[Any, Any]] = {}
        part_of = partition.part_of
        for u, v in partition.graph.edges():
            pu, pv = part_of[u], part_of[v]
            if pu == pv:
                continue
            self._adj[pu][pv] = self._adj[pu].get(pv, 0) + 1
            self._adj[pv][pu] = self._adj[pv].get(pu, 0) + 1
            key = self._key(pu, pv)
            edge = (u, v) if key == (pu, pv) else (v, u)
            best = connectors.get(key)
            if best is None or (id_key(edge[0]), id_key(edge[1])) < (
                id_key(best[0]),
                id_key(best[1]),
            ):
                connectors[key] = edge
        self._connectors = connectors

    @staticmethod
    def _key(pa: Any, pb: Any) -> Tuple[Any, Any]:
        return (pa, pb) if id_key(pa) <= id_key(pb) else (pb, pa)

    # -- queries -------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of auxiliary nodes (= parts)."""
        return len(self._adj)

    def nodes(self) -> Iterator[Any]:
        """Iterate over part ids."""
        return iter(self._adj)

    def neighbors(self, pid: Any) -> Dict[Any, int]:
        """Mapping from neighboring pid to edge weight."""
        return self._adj[pid]

    def degree(self, pid: Any) -> int:
        """Number of distinct auxiliary neighbors."""
        return len(self._adj[pid])

    def weight(self, pa: Any, pb: Any) -> int:
        """Weight of auxiliary edge (pa, pb); 0 when absent."""
        return self._adj[pa].get(pb, 0)

    def weighted_degree(self, pid: Any) -> int:
        """Total weight of auxiliary edges incident to *pid*."""
        return sum(self._adj[pid].values())

    def total_weight(self) -> int:
        """Total auxiliary edge weight = number of cut edges in G."""
        return sum(self.weighted_degree(pid) for pid in self._adj) // 2

    def edge_count(self) -> int:
        """Number of distinct auxiliary edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def connector(self, pa: Any, pb: Any) -> Tuple[Any, Any]:
        """The designated graph edge for auxiliary edge (pa, pb).

        Returned oriented as ``(node in pa, node in pb)``.
        """
        key = self._key(pa, pb)
        u, v = self._connectors[key]
        return (u, v) if key == (pa, pb) else (v, u)

    def edges(self) -> Iterator[AuxEdge]:
        """Iterate over auxiliary edges (canonical orientation)."""
        for key, connector in self._connectors.items():
            pa, pb = key
            yield AuxEdge(parts=key, weight=self._adj[pa][pb], connector=connector)


# -- Cole-Vishkin and Remark 1 colorings ----------------------------------------


def cole_vishkin_emulated(
    parents: Dict[Any, Optional[Any]],
    initial_colors: Optional[Dict[Any, int]] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    height: int = 0,
    category: str = "stage1.coloring",
) -> Tuple[Dict[Any, int], int]:
    """3-color a directed pseudoforest; return (colors, super_rounds).

    Args:
        parents: out-edge (parent) per node; ``None`` for roots.  Every
            node of the pseudoforest must appear as a key.
        initial_colors: distinct non-negative ints per node; defaults to
            the node ids when those are ints (the CONGEST assumption), or
            to ranks in sorted id order otherwise.
        ledger / cost_model / height: emulation cost accounting.
        category: ledger category for the charge.
    """
    nodes = list(parents)
    for v, p in parents.items():
        if p is not None and p not in parents:
            raise PartitionError(f"parent {p!r} of {v!r} missing from pseudoforest")
    if initial_colors is None:
        if all(isinstance(v, int) and v >= 0 for v in nodes):
            initial_colors = {v: v for v in nodes}
        else:
            initial_colors = {v: i for i, v in enumerate(sorted(nodes, key=repr))}
    colors = dict(initial_colors)
    if len(set(colors.values())) != len(nodes):
        raise PartitionError("initial CV colors must be distinct")

    children: Dict[Any, list] = {v: [] for v in nodes}
    for v, p in parents.items():
        if p is not None:
            children[p].append(v)

    schedule = cv_schedule(max(colors.values(), default=1))
    for phase in schedule:
        colors = _apply_phase(phase, colors, parents, children)

    _check_proper(colors, parents)
    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_round = model.aux_message_relay(height)
        ledger.charge(
            len(schedule) * per_round,
            category,
            f"{len(schedule)} CV super-rounds x {per_round} rounds "
            f"(height {height})",
        )
    return colors, len(schedule)


def _apply_phase(phase, colors, parents, children):
    new = dict(colors)
    if phase == "cv":
        for v, c in colors.items():
            p = parents[v]
            if p is None:
                new[v] = cv_step_value(c, c ^ 1)
            else:
                new[v] = cv_step_value(c, colors[p])
    elif phase == "shift":
        for v, c in colors.items():
            p = parents[v]
            if p is None:
                new[v] = 0 if c != 0 else 1
            else:
                new[v] = colors[p]
    elif phase.startswith("elim"):
        target = int(phase[4:])
        for v, c in colors.items():
            if c != target:
                continue
            forbidden = set()
            p = parents[v]
            if p is not None:
                forbidden.add(colors[p])
            for child in children[v]:
                forbidden.add(colors[child])
            new[v] = min(x for x in (0, 1, 2) if x not in forbidden)
    else:  # pragma: no cover - defensive
        raise PartitionError(f"unknown CV phase {phase!r}")
    return new


def _check_proper(colors, parents):
    for v, p in parents.items():
        if p is not None and colors[v] == colors[p]:
            raise PartitionError(
                f"CV produced an improper coloring on edge ({v!r}, {p!r})"
            )
    bad = {c for c in colors.values() if c not in (0, 1, 2)}
    if bad:
        raise PartitionError(f"CV left colors outside {{0,1,2}}: {bad!r}")


def randomized_coloring_emulated(
    parents: Dict[Any, Optional[Any]],
    rounds: int,
    rng,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    height: int = 0,
    category: str = "randomized.coloring",
) -> Tuple[Dict[Any, Optional[int]], int]:
    """Remark 1: constant-round randomized 3-coloring with abstention.

    Every node picks a uniform color from {0, 1, 2}; for a fixed budget
    of super-rounds, nodes whose color equals their parent's re-pick.
    Each conflicted node resolves with probability 2/3 per round, so
    after ``r`` rounds the expected conflict fraction is ``3^-r``.
    Nodes still conflicted after the budget **abstain** (color ``None``):
    the marking step ignores them, which can only reduce the contracted
    weight -- correctness (Claim 15) is preserved unconditionally, and
    only the per-phase decay degrades with the (exponentially small)
    abstention rate.  This removes the ``log* n`` of Cole-Vishkin for
    constant success probability, realizing the paper's Remark 1
    trade-off.

    Returns (colors-with-possible-None, number of abstaining nodes).
    """
    if rounds < 1:
        raise PartitionError("randomized coloring needs at least one round")
    nodes = list(parents)
    colors: Dict[Any, Optional[int]] = {v: rng.randrange(3) for v in nodes}
    for _ in range(rounds):
        conflicted = [
            v
            for v, p in parents.items()
            if p is not None and colors[v] == colors[p]
        ]
        if not conflicted:
            break
        for v in conflicted:
            colors[v] = rng.randrange(3)
    abstaining = 0
    for v, p in parents.items():
        if p is not None and colors[v] == colors[p]:
            colors[v] = None
            abstaining += 1
    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_round = model.aux_message_relay(height)
        ledger.charge(
            rounds * per_round,
            category,
            f"{rounds} randomized-coloring super-rounds x {per_round} rounds "
            f"(height {height}); {abstaining} abstentions",
        )
    return colors, abstaining


# -- CHW marking ---------------------------------------------------------------


@dataclass
class ReferenceMarking:
    """The oracle's marking outcome, keyed by node ids.

    Attributes:
        marked_edges: the selected subtree edges, as (child, parent).
        contract_edges: the star edges chosen for contraction.
        tree_heights: height of each marked subtree, keyed by its root.
        marked_weight: total weight of marked edges, w(T_i).
        contracted_weight: total weight of contracted edges.
    """

    marked_edges: List[Tuple[Any, Any]]
    contract_edges: List[Tuple[Any, Any]]
    tree_heights: Dict[Any, int]
    marked_weight: int
    contracted_weight: int


def marked_pairs(
    result: MarkingResult, out_edge: Dict[int, Optional[int]]
) -> List[Tuple[int, int]]:
    """The engine's marked edges as ``(child, parent)`` int pairs of the
    dict pseudoforest *out_edge* it ran on."""
    return [(v, out_edge[v]) for v in result.marked_idx.tolist()]


def contract_pairs(result: MarkingResult) -> List[Tuple[int, int]]:
    """The engine's contraction edges as ``(child, center)`` int pairs."""
    children, centers = result.contract_children, result.contract_centers
    return list(zip(children.tolist(), centers.tolist()))


def mark_and_choose(
    out_edge: Dict[Any, Optional[Any]],
    weight: Dict[Tuple[Any, Any], int],
    colors: Dict[Any, int],
) -> ReferenceMarking:
    """Run sub-steps 2b-4 on the pseudoforest ``{v: out_edge[v]}``.

    Args:
        out_edge: each node's selected out-neighbor (None when absent).
        weight: weight of each pseudoforest edge keyed by (child, parent).
        colors: proper 3-coloring with values {0, 1, 2}; the paper's
            color classes {1, 2, 3} map to {0, 1, 2} here (class "3" = 2).
    """
    incoming: Dict[Any, List[Any]] = {v: [] for v in out_edge}
    for v, p in out_edge.items():
        if p is not None:
            if p not in incoming:
                raise PartitionError(f"out-edge target {p!r} not a pseudoforest node")
            incoming[p].append(v)

    marked: set = set()
    color_one, color_two, color_three = 0, 1, 2

    def participates(v: Any) -> bool:
        # Nodes with color None abstained from the randomized coloring
        # (Remark 1); they make no decisions and their edges stay
        # unmarked, so the marked graph is the marked graph of the
        # properly-colored subgraph and Claim 15 applies unchanged.
        return colors[v] is not None

    for u in out_edge:
        if not participates(u):
            continue
        color = colors[u]
        if color == color_one:
            p = out_edge[u]
            considered = [v for v in incoming[u] if participates(v)]
            w_in = sum(weight[(v, u)] for v in considered)
            if p is not None and participates(p) and weight[(u, p)] >= w_in:
                marked.add((u, p))
            else:
                marked.update((v, u) for v in considered)
        elif color == color_two:
            p = out_edge[u]
            in3 = [v for v in incoming[u] if colors[v] == color_three]
            w_in3 = sum(weight[(v, u)] for v in in3)
            if (
                p is not None
                and colors[p] == color_three
                and weight[(u, p)] >= w_in3
            ):
                marked.add((u, p))
            else:
                marked.update((v, u) for v in in3)

    return _choose_parity(out_edge, weight, marked)


def dense_marking(
    out_edge: Dict[int, Optional[int]],
    weight: Dict[Tuple[int, int], int],
    colors: Dict[int, Optional[int]],
) -> MarkingResult:
    """:func:`~repro.partition.dense.mark_and_choose_dense` on a dict input.

    *out_edge* is a pseudoforest over the nodes ``0..n-1``, in the
    format :func:`mark_and_choose` takes; an abstainer's ``None`` color
    becomes the engine's -1.
    """
    nodes = range(len(out_edge))
    parent = [-1 if out_edge[v] is None else out_edge[v] for v in nodes]
    edge_weight = [0 if p < 0 else weight[(v, p)] for v, p in zip(nodes, parent)]
    color = [-1 if colors[v] is None else colors[v] for v in nodes]
    return mark_and_choose_dense(
        np.array(parent, dtype=np.int64),
        np.array(edge_weight, dtype=np.int64),
        np.array(color, dtype=np.int64),
    )


def _choose_parity(out_edge, weight, marked) -> ReferenceMarking:
    """Compute levels per marked tree and contract the heavier parity."""
    marked_children: Dict[Any, List[Any]] = {v: [] for v in out_edge}
    marked_out: Dict[Any, Optional[Any]] = {v: None for v in out_edge}
    for child, parent in marked:
        marked_children[parent].append(child)
        marked_out[child] = parent

    # Roots of marked trees: nodes with a marked incident edge but no
    # marked out-edge.  Claim 15 guarantees there are no marked cycles.
    touched = {v for e in marked for v in e}
    roots = [v for v in touched if marked_out[v] is None]

    level: Dict[Any, int] = {}
    tree_heights: Dict[Any, int] = {}
    for root in roots:
        stack = [(root, 0)]
        height = 0
        while stack:
            v, depth = stack.pop()
            if v in level:
                raise PartitionError("marked subgraph is not a forest (Claim 15)")
            level[v] = depth
            height = max(height, depth)
            for child in marked_children[v]:
                stack.append((child, depth + 1))
        tree_heights[root] = height
    if len(level) != len(touched):
        raise PartitionError("marked subgraph contains a cycle (Claim 15)")

    # Per-tree parity decision; trees are identified by their root.
    tree_root: Dict[Any, Any] = {}
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            tree_root[v] = root
            stack.extend(marked_children[v])

    parity_weight: Dict[Any, List[int]] = {root: [0, 0] for root in roots}
    for child, parent in marked:
        parity_weight[tree_root[parent]][level[child] % 2] += weight[(child, parent)]

    contract: List[Tuple[Any, Any]] = []
    contracted_weight = 0
    for child, parent in marked:
        w0, w1 = parity_weight[tree_root[parent]]
        chosen_parity = 0 if w0 >= w1 else 1
        if level[child] % 2 == chosen_parity:
            contract.append((child, parent))
            contracted_weight += weight[(child, parent)]

    _assert_stars(contract)
    return ReferenceMarking(
        marked_edges=sorted(marked, key=repr),
        contract_edges=sorted(contract, key=repr),
        tree_heights=tree_heights,
        marked_weight=sum(weight[e] for e in marked),
        contracted_weight=contracted_weight,
    )


def _assert_stars(contract: List[Tuple[Any, Any]]) -> None:
    """Contracted edges must form stars: children merge into centers."""
    children = {c for c, _p in contract}
    centers = {p for _c, p in contract}
    overlap = children & centers
    if overlap:
        raise PartitionError(
            f"contraction edges do not form stars; chained nodes: {overlap!r}"
        )


# -- forest decomposition ------------------------------------------------------


@dataclass
class ForestDecompositionResult:
    """Outcome of the emulated deactivation process on one G_i.

    Attributes:
        success: True when every auxiliary node deactivated in time.
        rejecting_parts: part ids still active after the budget.
        inactive_round: deactivation super-round per part id.
        out_edges: acyclic orientation with out-degree <= 3*alpha.
        super_rounds: budget of super-rounds charged.
    """

    success: bool
    rejecting_parts: Tuple[Any, ...]
    inactive_round: Dict[Any, Optional[int]]
    out_edges: Dict[Any, List[Any]]
    super_rounds: int


def forest_decomposition_emulated(
    aux: AuxiliaryGraph,
    alpha: int,
    budget: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    charge_full_budget: bool = True,
) -> ForestDecompositionResult:
    """Run the deactivation process on *aux*; orient its edges.

    The budget defaults to the certified ``O(log n)`` bound for the
    *underlying* node count (nodes know n, not the number of parts).
    """
    if budget is None:
        budget = barenboim_elkin_round_budget(aux.partition.graph.number_of_nodes())
    threshold = 3 * alpha

    active = set(aux.nodes())
    active_degree = {pid: aux.degree(pid) for pid in aux.nodes()}
    inactive_round: Dict[Any, Optional[int]] = {pid: None for pid in aux.nodes()}
    executed = 0
    for super_round in range(1, budget + 1):
        if not active:
            break
        executed = super_round
        deactivating = [pid for pid in active if active_degree[pid] <= threshold]
        if not deactivating:
            executed = budget
            break
        for pid in deactivating:
            inactive_round[pid] = super_round
        active.difference_update(deactivating)
        for pid in deactivating:
            for nbr in aux.neighbors(pid):
                if nbr in active:
                    active_degree[nbr] -= 1

    rejecting = tuple(sorted(active, key=id_key))
    out_edges = _orient(aux, inactive_round)

    if ledger is not None:
        model = cost_model or TreeCostModel()
        height = aux.partition.max_height()
        per_super_round = model.super_round(height, alpha)
        charged_rounds = budget if charge_full_budget else executed
        ledger.charge(
            charged_rounds * per_super_round,
            "stage1.forest_decomposition",
            f"{charged_rounds} super-rounds x {per_super_round} rounds "
            f"(height {height}, alpha {alpha})",
        )

    return ForestDecompositionResult(
        success=not rejecting,
        rejecting_parts=rejecting,
        inactive_round=inactive_round,
        out_edges=out_edges,
        super_rounds=budget if charge_full_budget else executed,
    )


def _orient(
    aux: AuxiliaryGraph, inactive_round: Dict[Any, Optional[int]]
) -> Dict[Any, List[Any]]:
    """Orient every auxiliary edge by deactivation time (ties: id order).

    Edges incident to never-deactivated nodes point toward them; edges
    between two active nodes are dropped.
    """
    out: Dict[Any, List[Any]] = {pid: [] for pid in aux.nodes()}
    for edge in aux.edges():
        pa, pb = edge.parts
        ra, rb = inactive_round[pa], inactive_round[pb]
        if ra is None and rb is None:
            continue
        if rb is None:
            out[pa].append(pb)
        elif ra is None:
            out[pb].append(pa)
        elif ra < rb or (ra == rb and id_key(pa) < id_key(pb)):
            out[pa].append(pb)
        else:
            out[pb].append(pa)
    return out


# -- deterministic Stage I ----------------------------------------------------


def select_heaviest_out_edges(
    aux: AuxiliaryGraph, out_edges: Dict[Any, List[Any]]
) -> Tuple[Dict[Any, Optional[Any]], Dict[Tuple[Any, Any], int]]:
    """Sub-step 1: each part selects its heaviest out-edge (ties: id order)."""
    selected: Dict[Any, Optional[Any]] = {}
    weights: Dict[Tuple[Any, Any], int] = {}
    for pid in aux.nodes():
        best: Optional[Any] = None
        best_weight = -1
        for nbr in out_edges.get(pid, ()):
            w = aux.weight(pid, nbr)
            if w > best_weight or (
                w == best_weight and (best is None or id_key(nbr) < id_key(best))
            ):
                best, best_weight = nbr, w
        selected[pid] = best
        if best is not None:
            weights[(pid, best)] = best_weight
    return selected, weights


def merge_parts(
    partition: Partition,
    aux: AuxiliaryGraph,
    contract_edges: List[Tuple[Any, Any]],
) -> Partition:
    """Sub-step 4: contract star edges, gluing spanning trees via connectors.

    The merged part keeps the center's root.
    """
    star_children: Dict[Any, List[Any]] = {}
    absorbed = set()
    for child, center in contract_edges:
        star_children.setdefault(center, []).append(child)
        if child in absorbed:
            raise PartitionError(f"part {child!r} contracted twice")
        absorbed.add(child)
    overlap = absorbed & set(star_children)
    if overlap:
        raise PartitionError(f"contraction is not star-shaped at {overlap!r}")

    new_parts = []
    for pid, part in partition.parts.items():
        if pid in absorbed:
            continue
        children = star_children.get(pid, ())
        if not children:
            new_parts.append(part)
            continue
        nodes = set(part.nodes)
        tree_edges = list(part.tree_edges())
        for child_pid in children:
            child = partition.parts[child_pid]
            nodes.update(child.nodes)
            tree_edges.extend(child.tree_edges())
            tree_edges.append(aux.connector(child_pid, pid))
        new_parts.append(build_part(part.root, nodes, tree_edges))
    return Partition(partition.graph, new_parts)


def _phase_stats(
    phase, before, after, cut, new_cut, height, fd_rounds, cv_rounds, marking
):
    return PhaseStats(
        phase=phase,
        parts_before=before.size,
        parts_after=after.size,
        cut_before=cut,
        cut_after=new_cut,
        max_height_before=height,
        max_height_after=after.max_height(),
        fd_super_rounds=fd_rounds,
        cv_super_rounds=cv_rounds,
        max_marked_tree_height=max(marking.tree_heights.values(), default=0),
        marked_weight=marking.marked_weight,
        contracted_weight=marking.contracted_weight,
    )


def reference_partition_stage1(
    graph: nx.Graph,
    epsilon: float,
    alpha: int = 3,
    target_cut: Optional[float] = None,
    max_phases: Optional[int] = None,
    early_stop: bool = True,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    charge_full_budget: bool = True,
) -> Stage1Result:
    """The dict Stage I phase loop; same signature as ``partition_stage1``."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    m = graph.number_of_edges()
    if target_cut is None:
        target_cut = epsilon * m / 2
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()
    cap = theoretical_phase_cap(m, target_cut, alpha)
    if max_phases is None:
        max_phases = cap

    partition = Partition.singletons(graph)
    phases: List[PhaseStats] = []
    cut = m
    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        aux = AuxiliaryGraph(partition)
        height = partition.max_height()
        fd = forest_decomposition_emulated(
            aux,
            alpha,
            ledger=ledger,
            cost_model=model,
            charge_full_budget=charge_full_budget,
        )
        if not fd.success:
            return Stage1Result(
                partition=partition,
                success=False,
                rejecting_parts=fd.rejecting_parts,
                phases=phases,
                ledger=ledger,
                target_cut=target_cut,
                theoretical_phase_cap=cap,
            )
        out_edge, weights = select_heaviest_out_edges(aux, fd.out_edges)
        colors, cv_rounds = cole_vishkin_emulated(
            out_edge, ledger=ledger, cost_model=model, height=height
        )
        marking = mark_and_choose(out_edge, weights, colors)
        _charge_merging_overhead(ledger, model, height, marking)
        new_partition = merge_parts(partition, aux, marking.contract_edges)
        new_cut = new_partition.cut_size()
        phases.append(
            _phase_stats(
                phase_index, partition, new_partition, cut, new_cut, height,
                fd.super_rounds, cv_rounds, marking,
            )
        )
        if new_cut >= cut and cut > 0:
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        partition, cut = new_partition, new_cut

    return Stage1Result(
        partition=partition,
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
    )


# -- Theorem 4 randomized partition ------------------------------------------


def weighted_edge_selection(
    aux: AuxiliaryGraph,
    trials: int,
    rng: random.Random,
) -> Tuple[Dict[Any, Optional[Any]], Dict[Tuple[Any, Any], int]]:
    """Each part draws incident edges ~ weight, keeps the heaviest of s draws.

    When both endpoints select the same auxiliary edge it is oriented
    out of the smaller id, keeping out-degree <= 1.
    """
    drawn: Dict[Any, Optional[Any]] = {}
    for pid in sorted(aux.nodes(), key=id_key):
        nbrs = aux.neighbors(pid)
        if not nbrs:
            drawn[pid] = None
            continue
        targets = sorted(nbrs, key=id_key)
        weights = [nbrs[t] for t in targets]
        best: Optional[Any] = None
        best_weight = -1
        for _ in range(trials):
            choice = rng.choices(targets, weights=weights, k=1)[0]
            w = nbrs[choice]
            if w > best_weight or (
                w == best_weight and (best is None or id_key(choice) < id_key(best))
            ):
                best, best_weight = choice, w
        drawn[pid] = best

    out_edge: Dict[Any, Optional[Any]] = dict(drawn)
    for pid, target in drawn.items():
        if target is None:
            continue
        if drawn.get(target) == pid and id_key(target) < id_key(pid):
            out_edge[pid] = None
    weights_out: Dict[Tuple[Any, Any], int] = {}
    for pid, target in out_edge.items():
        if target is not None:
            weights_out[(pid, target)] = aux.weight(pid, target)
    return out_edge, weights_out


def _color_pseudoforest(
    out_edge,
    coloring: str,
    coloring_rounds: Optional[int],
    cap: int,
    delta: float,
    rng: random.Random,
    ledger: RoundLedger,
    model: TreeCostModel,
    height: int,
):
    """Sub-step 2a: CV or randomized coloring of F_i."""
    if coloring == "cole-vishkin":
        return cole_vishkin_emulated(
            out_edge,
            ledger=ledger,
            cost_model=model,
            height=height,
            category="randomized.coloring",
        )
    if coloring == "randomized":
        budget = coloring_rounds
        if budget is None:
            budget = int(math.ceil(math.log2(max(2.0, (cap or 1) / delta)))) + 2
        colors, _abstaining = randomized_coloring_emulated(
            out_edge,
            rounds=budget,
            rng=rng,
            ledger=ledger,
            cost_model=model,
            height=height,
        )
        return colors, budget
    raise ValueError(f"unknown coloring {coloring!r}")


def reference_partition_randomized(
    graph: nx.Graph,
    epsilon: float,
    delta: float = 0.1,
    alpha: int = 3,
    target_cut: Optional[float] = None,
    trials: Optional[int] = None,
    max_phases: Optional[int] = None,
    early_stop: bool = True,
    seed: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    coloring: str = "cole-vishkin",
    coloring_rounds: Optional[int] = None,
) -> RandomizedPartitionResult:
    """The dict Theorem 4 phase loop; same signature as ``partition_randomized``."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = graph.number_of_edges()
    if target_cut is None:
        target_cut = epsilon * graph.number_of_nodes()
    cap = theoretical_phase_cap(m, target_cut, alpha, slowdown=64)
    if max_phases is None:
        max_phases = cap
    if trials is None:
        trials = default_trials(delta, cap or 1)
    rng = random.Random(seed)
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()

    partition = Partition.singletons(graph)
    phases: List[PhaseStats] = []
    cut = m
    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        aux = AuxiliaryGraph(partition)
        height = partition.max_height()
        out_edge, weights = weighted_edge_selection(aux, trials, rng)
        ledger.charge(
            trials * (model.convergecast(height) + 1) + 1,
            "randomized.selection",
            f"{trials} weighted draws over trees of height {height}",
        )
        colors, cv_rounds = _color_pseudoforest(
            out_edge, coloring, coloring_rounds, cap, delta, rng, ledger,
            model, height,
        )
        marking = mark_and_choose(out_edge, weights, colors)
        _charge_merging_overhead(ledger, model, height, marking)
        if not marking.contract_edges:
            phases.append(
                PhaseStats(
                    phase=phase_index,
                    parts_before=partition.size,
                    parts_after=partition.size,
                    cut_before=cut,
                    cut_after=cut,
                    max_height_before=height,
                    max_height_after=height,
                    fd_super_rounds=0,
                    cv_super_rounds=cv_rounds,
                    max_marked_tree_height=0,
                    marked_weight=marking.marked_weight,
                    contracted_weight=0,
                )
            )
            continue
        new_partition = merge_parts(partition, aux, marking.contract_edges)
        new_cut = new_partition.cut_size()
        phases.append(
            _phase_stats(
                phase_index, partition, new_partition, cut, new_cut, height,
                0, cv_rounds, marking,
            )
        )
        if new_cut >= cut:
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        partition, cut = new_partition, new_cut

    return RandomizedPartitionResult(
        partition=partition,
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
        trials=trials,
        delta=delta,
    )


@contextmanager
def reference_stage1():
    """Run the planarity tester inside the block on the reference Stage I.

    Stage II reads the reference partition through :func:`dense_of`;
    yields the list of dict partitions built, one per tester run.
    """
    built: List[Partition] = []

    def stage1(graph, *args, **kwargs):
        result = reference_partition_stage1(graph, *args, **kwargs)
        built.append(result.partition)
        result.partition = dense_of(result.partition)
        return result

    with mock.patch.object(planarity, "partition_stage1", stage1):
        yield built


# -- Corollary 16/17 consumers -------------------------------------------------


def _reference_partition(graph, epsilon, alpha, method, delta, seed, target):
    if method == "deterministic":
        return reference_partition_stage1(
            graph, epsilon=epsilon, alpha=alpha, target_cut=target
        )
    if method == "randomized":
        return reference_partition_randomized(
            graph,
            epsilon=epsilon,
            delta=delta,
            alpha=alpha,
            target_cut=target,
            seed=seed,
        )
    raise ValueError(f"unknown method {method!r}")


def reference_build_spanner(
    graph: nx.Graph,
    epsilon: float = 0.1,
    method: str = "deterministic",
    delta: float = 0.1,
    alpha: int = 3,
    seed: Optional[int] = None,
) -> SimpleNamespace:
    """The Corollary 17 spanner walked off ``Part`` objects.

    Carries the fields of :class:`~repro.applications.spanner.SpannerResult`,
    with ``spanner`` a networkx graph.
    """
    result = _reference_partition(
        graph, epsilon, alpha, method, delta, seed,
        target=epsilon * graph.number_of_nodes(),
    )
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    tree_edges = 0
    for part in result.partition.parts.values():
        for child, parent in part.tree_edges():
            spanner.add_edge(child, parent)
            tree_edges += 1
    connector_edges = 0
    for edge in AuxiliaryGraph(result.partition).edges():
        u, v = edge.connector
        if not spanner.has_edge(u, v):
            spanner.add_edge(u, v)
            connector_edges += 1
    return SimpleNamespace(
        partition_result=result,
        tree_edges=tree_edges,
        connector_edges=connector_edges,
        guaranteed_stretch=4 * result.partition.max_height() + 1,
        spanner=spanner,
        size=spanner.number_of_edges(),
        rounds=result.rounds + 1,
    )


def reference_measure_stretch(
    graph: nx.Graph,
    spanner: nx.Graph,
    sample_nodes: int = 16,
    seed: Optional[int] = None,
) -> float:
    """The per-source networkx BFS fold over the same sampled sources."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    sources = rng.sample(nodes, sample_nodes) if sample_nodes < len(nodes) else nodes
    worst = 1.0
    for source in sources:
        d_g = nx.single_source_shortest_path_length(graph, source)
        d_s = nx.single_source_shortest_path_length(spanner, source)
        for v, dg in d_g.items():
            if dg == 0:
                continue
            ds = d_s.get(v)
            if ds is None:
                raise GraphInputError("spanner does not span the graph")
            worst = max(worst, ds / dg)
    return worst


def part_verdict(sub: nx.Graph, root: Any, prop: str) -> Tuple[bool, int]:
    """The per-part check of *prop* on the networkx view *sub*: ``(ok, rounds)``.

    Rounds are a BFS from *root* plus one (depth, parent) exchange,
    ``max depth + 2``; planarity and outerplanarity add a convergecast
    of the part's ``n_j`` edge words to the root.  Bipartiteness rejects
    an edge whose ends share a BFS depth (an odd cycle); outerplanarity
    is planarity with one universal apex node added.
    """
    depths = labels_by_id(sub, root).depths
    rounds = max(depths.values(), default=0) + 2
    if prop == "cycle-free":
        return sub.number_of_edges() == sub.number_of_nodes() - 1, rounds
    if prop == "bipartite":
        return all(depths[u] != depths[v] for u, v in sub.edges()), rounds
    rounds += sub.number_of_nodes()
    if prop == "outerplanar":
        apex = object()  # a fresh node id
        sub = nx.Graph(sub)
        sub.add_edges_from([(apex, v) for v in sub])
    return check_planarity(sub).is_planar, rounds


def verify_parts(
    graph: nx.Graph, stage1: Stage1Result, prop: str
) -> Tuple[List[Any], int]:
    """:func:`part_verdict` in every part; returns (rejecting pids, max rounds)."""
    rejecting: List[Any] = []
    max_rounds = 0
    for pid, part in stage1.partition.parts.items():
        ok, rounds = part_verdict(graph.subgraph(part.nodes), part.root, prop)
        max_rounds = max(max_rounds, rounds)
        if not ok:
            rejecting.append(pid)
    return rejecting, max_rounds


def reference_application(
    graph: nx.Graph,
    prop: str,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> ApplicationTestResult:
    """The Corollary 16 tester of *prop* (``cycle-free``, ``bipartite``,
    ``planar`` or ``outerplanar``) over the reference partition."""
    stage1 = _reference_partition(
        graph, epsilon, alpha, method, delta, seed,
        target=epsilon * graph.number_of_edges() / 2,
    )
    rejecting, verify_rounds = verify_parts(graph, stage1, prop)
    return ApplicationTestResult(
        accepted=not rejecting,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        partition_result=stage1,
        partition_rounds=stage1.rounds,
        verification_rounds=verify_rounds,
        property_name=prop,
    )
