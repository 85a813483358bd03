"""Stage II per-part verification as a genuine CONGEST protocol.

The emulated Stage II (:mod:`repro.testers.stage2`) computes corner
positions, samples non-tree edges and checks interlacements centrally,
charging rounds through the ledger.  This module implements the same
pipeline as real message passing, validating that the emulation's outputs
and cost formulas correspond to an executable protocol:

1. **BFS** (:mod:`repro.congest.programs.bfs`) builds ``T_B``.
2. **Euler offsets** -- every node knows its clockwise rotation (the
   output of the embedding subroutine) and its tree children; a
   convergecast accumulates per-subtree corner counts and a broadcast
   hands each node the entry offset of its tour segment, from which it
   computes the global Euler-tour position of each of its non-tree
   half-edges *locally*.  Two tree passes, one O(log n)-bit integer per
   message.
3. **Interval formation** -- one exchange round: each non-tree half-edge
   sends its position to the opposite endpoint.
4. **Sampling + verdict** -- each edge owner (the deeper endpoint,
   ties by id: the paper's assignment rule) samples its edges with
   probability ``min(1, s/m_nt)``; sampled intervals stream up the tree
   (one interval per edge per round -- pipelining), the root streams the
   full list down, and every owner checks its intervals against the
   sample for strict interlacement (Definition 7, corner form).

A node outputs ``("reject", witness)`` or ``("accept",)``; the protocol
is one-sided exactly like the emulated version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from ..network import CongestNetwork
from ..node import Inbox, NodeContext, NodeProgram, Outbox
from .bfs import bfs_tree

MSG_COUNT = 10  # subtree (corner count, non-tree count) convergecast
MSG_OFFSET = 11  # (tour-entry offset, global non-tree total) broadcast
MSG_POS = 12  # position exchange across a non-tree edge
MSG_TOTAL = 14  # root's end-of-stream marker for the downward sample feed
MSG_SAMPLE_UP = 15  # sampled interval flowing up
MSG_SAMPLE_DOWN = 16  # sampled interval flowing down
MSG_SAMPLE_END = 17  # per-subtree end marker flowing up


def _interlace(a: int, b: int, c: int, d: int) -> bool:
    if a > c:
        a, b, c, d = c, d, a, b
    return a < c < b < d


class Stage2VerificationProgram(NodeProgram):
    """Distributed Stage II over one part.

    Config keys: ``parents`` (BFS tree), ``depths``, ``rotation``
    (``{node: clockwise neighbor list}``), ``root``, ``sample_target``,
    ``sample_seed``.  Node ids must be sortable (ints recommended).
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        config = ctx.config
        self._root = config["root"]
        self._parents: Dict[Any, Optional[Any]] = config["parents"]
        self._depths: Dict[Any, int] = config["depths"]
        self._rotation: List[Any] = list(config["rotation"][ctx.node])
        self._sample_target: int = config["sample_target"]
        me = ctx.node
        self._parent = self._parents.get(me)
        self._children = [
            w for w in ctx.neighbors if self._parents.get(w) == me
        ]
        self._tree_neighbors = set(self._children)
        if self._parent is not None:
            self._tree_neighbors.add(self._parent)
        self._non_tree = [w for w in ctx.neighbors if w not in self._tree_neighbors]
        # Gap structure: children in rotation order starting after the
        # parent edge; gap[i] lists the non-tree half-edges scanned after
        # descending into child i (gap[0] = before the first child).
        self._gaps, self._ordered_children = self._local_gaps()
        self._own_corner_count = sum(len(g) for g in self._gaps)
        # convergecast state
        self._child_counts: Dict[Any, int] = {}
        self._child_nt: Dict[Any, int] = {}
        self._sent_counts = False
        self._offset: Optional[int] = None
        self._positions: Dict[Any, int] = {}  # neighbor -> my half-edge position
        self._their_positions: Dict[Any, int] = {}
        self._sent_positions = False
        self._total_non_tree: Optional[int] = None
        self._sampled_mine: Optional[List[Tuple[int, int]]] = None
        self._up_queue: List[Tuple[int, int]] = []
        # END markers may arrive before this node's own sampling phase
        # begins, so they are tracked independently of phase state.
        self._ends_received: set = set()
        self._down_queue: List[tuple] = []
        self._sample_list: List[Tuple[int, int]] = []
        self._stream_done = False
        self._verdict: Optional[tuple] = None

    # -- local rotation analysis ------------------------------------------------

    def _local_gaps(self):
        rot = self._rotation
        if not rot:
            return [[]], []
        if self._parent is not None:
            start = rot.index(self._parent)
            ordered = rot[start + 1 :] + rot[:start]
        else:
            # the root's tour starts at its first tree edge; the gap
            # before it is scanned last, which the cyclic order below
            # already encodes if we start the scan AT that edge.
            first_tree = next(
                (i for i, w in enumerate(rot) if w in self._tree_pred(rot)),
                0,
            )
            ordered = rot[first_tree:] + rot[:first_tree]
            # drop the leading tree edge into position 0 of the scan
        gaps: List[List[Any]] = [[]]
        children_order: List[Any] = []
        for w in ordered:
            if w in self._tree_pred(rot) and w != self._parent:
                children_order.append(w)
                gaps.append([])
            elif w == self._parent:
                continue
            else:
                gaps[-1].append(w)
        return gaps, children_order

    def _tree_pred(self, rot):
        return self._tree_neighbors

    # -- subtree totals ------------------------------------------------------------

    def _subtree_count(self) -> int:
        return self._own_corner_count + sum(self._child_counts.values())

    def _subtree_nt(self) -> int:
        return self._owned_edge_count() + sum(self._child_nt.values())

    def _owned_edges(self) -> List[Any]:
        """Non-tree edges assigned to me: deeper endpoint, ties by id."""
        me = self.ctx.node
        mine = []
        for w in self._non_tree:
            dw, dm = self._depths[w], self._depths[me]
            if dm > dw or (dm == dw and repr(me) < repr(w)):
                mine.append(w)
        return mine

    def _owned_edge_count(self) -> int:
        return len(self._owned_edges())

    # -- offset distribution ---------------------------------------------------------

    def _assign_positions(self) -> Dict[Any, int]:
        """Compute child offsets and my half-edge positions from my offset."""
        child_offsets: Dict[Any, int] = {}
        cursor = self._offset
        # ordered children interleaved with gaps: gap[0], child[0]'s
        # subtree, gap[1], child[1]'s subtree, ...
        for x in self._gaps[0]:
            self._positions[x] = cursor
            cursor += 1
        for index, child in enumerate(self._ordered_children):
            child_offsets[child] = cursor
            cursor += self._child_counts[child]
            for x in self._gaps[index + 1]:
                self._positions[x] = cursor
                cursor += 1
        return child_offsets

    # -- main loop ---------------------------------------------------------

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        """Event-driven phase machine: counts, offsets, sampling, verdict."""
        out: Dict[Any, Any] = {}
        for sender, msg in inbox.items():
            tag = msg[0]
            if tag == MSG_COUNT:
                self._child_counts[sender] = msg[1]
                self._child_nt[sender] = msg[2]
            elif tag == MSG_OFFSET:
                self._offset = msg[1]
                self._total_non_tree = msg[2]
            elif tag == MSG_POS:
                self._their_positions[sender] = msg[1]
            elif tag == MSG_SAMPLE_UP:
                self._up_queue.append((msg[1], msg[2]))
            elif tag == MSG_SAMPLE_END:
                self._ends_received.add(sender)
            elif tag == MSG_SAMPLE_DOWN:
                self._sample_list.append((msg[1], msg[2]))
                self._down_queue.append(msg)
            elif tag == MSG_TOTAL:
                self._stream_done = True
                self._down_queue.append(msg)

        me = self.ctx.node

        # Phase A: corner-count convergecast (leaves fire immediately).
        if not self._sent_counts and len(self._child_counts) == len(self._children):
            self._sent_counts = True
            if self._parent is not None:
                out[self._parent] = (
                    MSG_COUNT,
                    self._subtree_count(),
                    self._subtree_nt(),
                )
            else:
                self._offset = 0
                self._total_non_tree = self._subtree_nt()

        # Phase B: offset broadcast + local position assignment.
        if self._offset is not None and not self._sent_positions:
            self._sent_positions = True
            child_offsets = self._assign_positions()
            for child, offset in child_offsets.items():
                out[child] = (MSG_OFFSET, offset, self._total_non_tree)
            for x, pos in self._positions.items():
                out[x] = (MSG_POS, pos)
            # Prepare sampling once positions are known (done next phase
            # when the opposite endpoints' positions arrive).

        # Phase C: sample own edges once both endpoints' positions known.
        if (
            self._sampled_mine is None
            and self._sent_positions
            and all(x in self._their_positions for x in self._non_tree)
        ):
            self._sampled_mine = []
            total = max(1, self._total_non_tree or 0)
            probability = min(1.0, self._sample_target / total)
            for x in self._owned_edges():
                a = self._positions[x]
                b = self._their_positions[x]
                if self.ctx.rng.random() < probability:
                    self._sampled_mine.append((min(a, b), max(a, b)))
            self._up_queue.extend(self._sampled_mine)

        # Phase D: stream sampled intervals up (one per round), then END.
        all_children_ended = set(self._children) <= self._ends_received
        if self._sampled_mine is not None and self._parent is not None:
            if self._up_queue:
                interval = self._up_queue.pop(0)
                out[self._parent] = (MSG_SAMPLE_UP, interval[0], interval[1])
            elif all_children_ended and not self._sent_counts_end():
                self._mark_end_sent()
                out[self._parent] = (MSG_SAMPLE_END,)

        # Root: once all children finished and queue drained, start the
        # downward stream.
        if (
            self._parent is None
            and self._sampled_mine is not None
            and all_children_ended
        ):
            if self._up_queue:
                interval = self._up_queue.pop(0)
                self._sample_list.append(interval)
                self._down_queue.append((MSG_SAMPLE_DOWN, interval[0], interval[1]))
            elif not self._stream_done:
                self._stream_done = True
                self._down_queue.append((MSG_TOTAL,))

        # Phase E: forward the downward stream (one message per round).
        if self._down_queue:
            msg = self._down_queue.pop(0)
            for child in self._children:
                out[child] = msg

        # Phase F: verdict once the stream has ended and queues drained.
        if (
            self._verdict is None
            and self._stream_done
            and not self._down_queue
            and self._sampled_mine is not None
        ):
            self._verdict = self._decide()
            self.halt(self._verdict)
        return out

    _end_sent = False

    def _sent_counts_end(self) -> bool:
        return self._end_sent

    def _mark_end_sent(self) -> None:
        self._end_sent = True

    def _decide(self) -> tuple:
        my_intervals = [
            (
                min(self._positions[x], self._their_positions[x]),
                max(self._positions[x], self._their_positions[x]),
            )
            for x in self._owned_edges()
        ]
        for a, b in my_intervals:
            for c, d in self._sample_list:
                if (a, b) != (c, d) and _interlace(a, b, c, d):
                    return ("reject", (a, b), (c, d))
        return ("accept",)


@dataclass
class SimulatedStage2Result:
    """Outcome of :func:`run_stage2_verification_simulated`."""

    accepted: bool
    rejecting_nodes: Tuple[Any, ...]
    positions: Dict[Tuple[Any, Any], int]
    sample_size: int
    bfs_rounds: int
    verification_rounds: int

    @property
    def rounds(self) -> int:
        """Total protocol rounds across both executions."""
        return self.bfs_rounds + self.verification_rounds


def run_stage2_verification_simulated(
    graph: nx.Graph,
    root: Any,
    rotation: Dict[Any, List[Any]],
    n_total: Optional[int] = None,
    epsilon: float = 0.1,
    sample_constant: float = 2.0,
    seed: Optional[int] = None,
    bandwidth_bits: Optional[int] = None,
) -> SimulatedStage2Result:
    """Run the distributed Stage II pipeline on a connected part.

    *rotation* is the clockwise neighbor order per node (e.g. from
    :func:`repro.planarity.check_planarity`'s embedding ``to_dict()``, or
    the identity fallback for non-planar parts).
    """
    parents, depths, bfs_rounds = bfs_tree(graph, root, bandwidth_bits, seed=seed)
    parents_full: Dict[Any, Optional[Any]] = {root: None, **parents}
    n = graph.number_of_nodes()
    n_total = n_total if n_total is not None else n
    sample_target = max(
        1, int(math.ceil(sample_constant * math.log2(max(n_total, 2)) / epsilon))
    )
    # The BFS phase above already compiled this graph's topology; the
    # memo hands the verification network the same CompiledTopology.
    network = CongestNetwork(graph, bandwidth_bits=bandwidth_bits, seed=seed)
    m_nt = graph.number_of_edges() - (n - 1)
    limit = 8 * n + 20 * (sample_target + m_nt) + 50
    result = network.run(
        Stage2VerificationProgram,
        max_rounds=limit,
        config={
            "root": root,
            "parents": parents_full,
            "depths": depths,
            "rotation": rotation,
            "sample_target": sample_target,
            "sample_seed": seed,
        },
        strict_bandwidth=True,
        raise_on_limit=True,
    )
    rejecting = tuple(
        sorted(
            (v for v, out in result.outputs.items() if out and out[0] == "reject"),
            key=repr,
        )
    )
    # Collect the globally assigned positions for cross-validation.
    positions: Dict[Tuple[Any, Any], int] = {}
    for v, program in result.programs.items():
        for x, pos in program._positions.items():
            positions[(v, x)] = pos
    return SimulatedStage2Result(
        accepted=not rejecting,
        rejecting_nodes=rejecting,
        positions=positions,
        sample_size=sample_target,
        bfs_rounds=bfs_rounds,
        verification_rounds=result.rounds,
    )
