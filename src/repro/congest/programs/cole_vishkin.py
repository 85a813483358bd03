"""Cole-Vishkin 3-coloring of rooted (pseudo)forests as a CONGEST protocol.

Used in Sub-step 2a of the merging step (paper Section 2.1.2).  Each node
knows its parent in the (pseudo)forest; colors start as node identifiers,
shrink to {0..5} via iterated CV bit tricks in ``O(log* n)`` rounds, and
are then reduced to {0,1,2} by three shift-down + eliminate phases.

The protocol is correct on directed pseudoforests (every node has at most
one out-edge / parent), which covers both Stage I's forests and the
randomized variant's pseudoforests (paper Section 4, Claim 15).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..batch import BatchKernel, register_batch_kernel
from ..network import CongestNetwork
from .tags import MSG_CV
from ..node import Inbox, NodeContext, NodeProgram, Outbox
from ..xp import int_bit_length


def cv_step_value(own: int, parent: int) -> int:
    """One Cole-Vishkin step: encode lowest differing bit position + value."""
    if own == parent:
        raise ValueError("CV step requires own color != parent color")
    diff = own ^ parent
    i = (diff & -diff).bit_length() - 1  # index of lowest set bit
    return 2 * i + ((own >> i) & 1)


def cv_schedule(max_initial_color: int) -> List[str]:
    """Deterministic phase schedule shared by all nodes.

    Returns a list of phases; ``'cv'`` entries reduce the palette until all
    colors are < 6, then shift/eliminate pairs reduce 6 -> 3.
    """
    phases: List[str] = []
    m = max(max_initial_color, 1)
    while m > 5:
        # After one CV step values are at most 2*bit_length(m) - 1.
        m = 2 * m.bit_length() - 1
        phases.append("cv")
    phases.append("cv")  # safety margin: one extra step is harmless
    for c in (5, 4, 3):
        phases.append("shift")
        phases.append(f"elim{c}")
    return phases


class ColeVishkinProgram(NodeProgram):
    """3-color a pseudoforest given via ``config['parents']``.

    ``config['parents']`` maps node id to parent id (or None for roots);
    every node reads only its own entry, its neighbors learn about
    child/parent relations through the round-0 announcement, preserving
    the local character of the protocol.  Node ids must be non-negative
    integers (they seed the initial coloring).  Output: final color.
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        if not isinstance(ctx.node, int) or ctx.node < 0:
            raise ValueError("ColeVishkinProgram requires non-negative int node ids")
        self._parent: Optional[int] = ctx.config["parents"].get(ctx.node)
        self._phases: List[str] = list(ctx.config["schedule"])
        self._color: int = ctx.node
        self._children: set = set()
        self._neighbor_colors: Dict[Any, int] = {}

    def _payload(self) -> tuple:
        return (MSG_CV, self._color, self._parent if self._parent is not None else -1)

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        """Apply the scheduled CV/shift/eliminate phase; broadcast color."""
        for sender, msg in inbox.items():
            if msg[0] == MSG_CV:
                self._neighbor_colors[sender] = msg[1]
                if round_index == 1 and msg[2] == self.ctx.node:
                    self._children.add(sender)
        if round_index == 0:
            return self.broadcast(self._payload())
        phase_index = round_index - 1
        if phase_index >= len(self._phases):
            self.halt(self._color)
            return self.silence()
        self._apply_phase(self._phases[phase_index])
        return self.broadcast(self._payload())

    def _apply_phase(self, phase: str) -> None:
        if phase == "cv":
            if self._parent is None:
                # Roots pretend the parent differs in bit 0.
                self._color = cv_step_value(self._color, self._color ^ 1)
            else:
                self._color = cv_step_value(
                    self._color, self._neighbor_colors[self._parent]
                )
        elif phase == "shift":
            if self._parent is None:
                old = self._color
                self._color = 0 if old != 0 else 1
            else:
                self._color = self._neighbor_colors[self._parent]
        elif phase.startswith("elim"):
            target = int(phase[4:])
            if self._color == target:
                forbidden = set()
                if self._parent is not None:
                    forbidden.add(self._neighbor_colors[self._parent])
                for child in self._children:
                    forbidden.add(self._neighbor_colors[child])
                self._color = min(c for c in (0, 1, 2) if c not in forbidden)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown CV phase {phase!r}")


def min_neighbor_parents(graph: nx.Graph) -> Dict[int, Optional[int]]:
    """The canonical pseudoforest for standalone CV runs on a graph.

    Each node's parent is its minimum smaller-id neighbor (roots where
    none exists) -- deterministic, local, acyclic (parents strictly
    decrease), and every parent edge is a graph edge.  ``simulate
    --programs cv`` jobs and the batched kernel derive the same forest
    independently, so scalar and batched runs color identical inputs.
    """
    return {
        v: min((w for w in graph.adj[v] if w < v), default=None)
        for v in graph.nodes()
    }


class ColeVishkinBatchKernel(BatchKernel):
    """Array-state :class:`ColeVishkinProgram` over the canonical forest.

    Every node broadcasts its color each round and updates
    synchronously, so the parent color a node reads from its inbox at
    round ``r`` is exactly the lockstep ``colors`` tensor before phase
    ``r - 1`` is applied -- the kernel therefore gathers parent colors
    (and scatters child colors into the eliminate phases' forbidden
    sets) from state instead of decoding lanes, while sending with the
    scalar's mask and payload sizes so the accounting stays
    bit-identical.  Schedules are ragged (each trial's
    :func:`cv_schedule` depends on its maximum id); rounds dispatch the
    <= 5 distinct phase labels as masked row groups.  The phase
    arithmetic mirrors ``repro.partition.dense.cole_vishkin_dense``.
    """

    lanes = 0  # pure state kernel: see class docstring
    strict = True

    def __init__(self, batch, params):  # noqa: D107
        super().__init__(batch, params)
        B, N1 = batch.B, batch.n_pad + 1
        colors = np.zeros((B, N1), dtype=np.int64)
        parent_col = np.tile(np.arange(N1, dtype=np.int64), (B, 1))
        parent_bits = np.zeros((B, N1), dtype=np.int64)
        is_root = np.zeros((B, N1), dtype=bool)
        self.sched: List[List[str]] = []
        for b, topology in enumerate(batch.topologies):
            n = topology.n
            ids = np.asarray(topology.nodes, dtype=np.int64)
            arrays = topology.batch_arrays()
            smaller = arrays.indices < arrays.row_owner
            pmin = np.full(n, n, dtype=np.int64)
            np.minimum.at(pmin, arrays.row_owner[smaller], arrays.indices[smaller])
            root = pmin >= n
            colors[b, :n] = ids
            parent_col[b, :n] = np.where(root, np.arange(n), pmin)
            # bit_size(parent id) for the static payload slot: ids are
            # non-negative, roots announce -1 (two bits).
            parent_ids = np.where(root, 0, ids[np.minimum(pmin, n - 1)])
            parent_bits[b, :n] = np.where(
                root,
                2,
                np.frexp(parent_ids.astype(np.float64))[1] + 1,
            )
            is_root[b, :n] = root
            self.sched.append(cv_schedule(int(ids[-1]) if n else 1))
        self.sched_len = np.array([len(s) for s in self.sched], dtype=np.int64)
        self.colors = colors
        self.parent_col = parent_col
        self.parent_bits = parent_bits
        self.is_root = is_root
        self.nonroot = batch.node_mask & ~self.is_root
        # bit_size((MSG_CV, color, parent)): tuple frame 2 + tag 4+2 +
        # two framed slots (color varies per round, parent is static).
        self.const_bits = 12

    def max_rounds(self):
        return self.sched_len + 3

    def _payload_bits(self):
        color_bits = int_bit_length(np.maximum(self.colors, 0)) + 1
        return self.const_bits + color_bits + self.parent_bits

    def _parent_colors(self):
        return np.take_along_axis(self.colors, self.parent_col, axis=1)

    def _apply_phase(self, label: str, rows) -> None:
        part = rows[:, None] & self.batch.node_mask
        colors = self.colors
        pc = self._parent_colors()
        if label == "cv":
            effective = np.where(self.is_root, colors ^ 1, pc)
            diff = np.where(part, colors ^ effective, 1)
            low = diff & -diff
            index = np.log2(low.astype(np.float64)).astype(np.int64)
            stepped = 2 * index + ((colors >> index) & 1)
            self.colors = np.where(part, stepped, colors)
        elif label == "shift":
            root_next = np.where(colors != 0, 0, 1)
            shifted = np.where(self.is_root, root_next, pc)
            self.colors = np.where(part, shifted, colors)
        else:  # elim{target}
            target = int(label[4:])
            B, N1 = self.batch.B, self.batch.n_pad + 1
            one = np.int64(1)
            sel = part & self.nonroot
            flat = np.zeros(B * N1, dtype=np.int64)
            col_index = (
                np.arange(B, dtype=np.int64)[:, None] * N1 + self.parent_col
            )
            np.bitwise_or.at(
                flat, col_index[sel], one << np.where(sel, colors, 0)[sel]
            )
            forbidden = flat.reshape(B, N1) | np.where(
                sel, one << np.where(sel, pc, 0), 0
            )
            choice = np.where(
                forbidden & 1 == 0, 0, np.where(forbidden & 2 == 0, 1, 2)
            )
            self.colors = np.where(part & (colors == target), choice, colors)

    def step(self, round_index, live, plane):
        batch = self.batch
        if round_index == 0:
            send = live[:, None] & batch.node_mask
            return send, (), self._payload_bits()
        finishing = live & (round_index > self.sched_len)
        if bool(finishing.any()):
            halt_now = finishing[:, None] & batch.node_mask & ~self.halted
            self.halted = self.halted | halt_now
        acting = live & (round_index <= self.sched_len)
        groups: Dict[str, List[int]] = {}
        for b in np.nonzero(acting)[0]:
            groups.setdefault(self.sched[b][round_index - 1], []).append(b)
        for label, members in sorted(groups.items()):
            rows = np.zeros(batch.B, dtype=bool)
            rows[members] = True
            self._apply_phase(label, rows)
        send = acting[:, None] & batch.node_mask
        return send, (), self._payload_bits()

    def outputs(self, trial):
        topology = self.batch.topologies[trial]
        halted = self.halted[trial]
        colors = self.colors[trial]
        return {
            node: int(colors[v]) if halted[v] else None
            for v, node in enumerate(topology.nodes)
        }


register_batch_kernel("cv", ColeVishkinBatchKernel)


def cole_vishkin_coloring(
    graph: nx.Graph,
    parents: Dict[int, Optional[int]],
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    topology=None,
) -> Tuple[Dict[int, int], int]:
    """Run the CV protocol; return (colors, rounds).

    *graph* must contain every (child, parent) pair of *parents* as an
    edge; extra edges are permitted (they carry status messages that the
    protocol simply ignores).
    """
    for child, parent in parents.items():
        if parent is not None and not graph.has_edge(child, parent):
            raise ValueError(f"parent edge ({child}, {parent}) missing from graph")
    max_id = max((v for v in graph.nodes()), default=1)
    schedule = cv_schedule(max_id)
    network = CongestNetwork(
        graph, bandwidth_bits=bandwidth_bits, seed=seed, topology=topology
    )
    result = network.run(
        ColeVishkinProgram,
        max_rounds=len(schedule) + 3,
        config={"parents": parents, "schedule": schedule},
        strict_bandwidth=True,
    )
    return dict(result.outputs), result.rounds
