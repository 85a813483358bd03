"""Graph-batched simulator: run B trials as one array program.

The dense plane (PR 3) vectorized one simulation's *storage*; this
module vectorizes *across trials*: the CSR edge-slot buffers of ``B``
same-shape (or padded) topologies are stacked into ``(B, slots)``
tensors (:class:`BatchTopology` + the
:class:`~repro.congest.plane_batched.BatchedMessagePlane`) and the
bundled vectorizable protocols step every trial of a sweep cell in
lockstep through per-program array kernels.

Layout
------

Trials are padded to a common shape.  With ``n_pad = max(n_b)`` and
``slots_pad = max(2 * m_b)``:

* node tensors have shape ``(B, n_pad + 1)``; column ``n_pad`` is a
  **dummy node** (degree 0, halted from round 0) that padding slots
  point at, so gathers from ragged batches never need masking;
* slot tensors have shape ``(B, slots_pad + 1)``; the one extra pad
  column keeps every trial's dummy segment start strictly inside the
  flattened array, which makes ``ufunc.reduceat`` receive reductions
  safe even for the widest trial in the batch.

Receive reductions run over the flattened ``(B * slots_alloc,)`` slot
tensors with per-``(trial, node)`` segment starts (``ufunc.reduceat``);
rows of padding nodes and degree-0 nodes are post-masked to the
reduction identity.  Every tensor is a plain numpy array.  Ragged
fleets are first split by :func:`pad_groups` so that no group pads its
smallest member by more than :data:`DEFAULT_PAD_WASTE` in slots.

Equivalence contract
--------------------

Per trial, a batched run is **bit-identical to the scalar dense
plane**: outputs, rounds, halting, message/bit totals,
``max_message_bits`` and over-budget counts all match, because the
kernels replicate the scalar pure-broadcast accounting exactly (degree-0 senders are skipped *before* sizing; every sized
payload updates ``max_message_bits``; over-budget broadcasts charge
``degree`` messages).  The differential suite in
``tests/test_congest_batched.py`` certifies this across every bundled
generator and program, including ragged batches and mid-batch halting.

Active-set masking: a halted trial (or node) simply drops out of the
``live`` masks -- the tensors never resize, so the engine's per-round
cost is shape-constant while the scalar scheduler's shrinks.  The
batch wins by replacing per-node Python dispatch with a handful of
array ops per round.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from .network import SimulationResult
from .topology import CompiledTopology, compile_topology

BIG = 1 << 60
"""Reduction identity for minima (larger than any distance or round)."""

DEFAULT_PAD_WASTE = 4.0
"""The :func:`pad_groups` slot-padding bound: a group never allocates
more than this factor times the slot count of its smallest member."""


class BatchTopology:
    """B compiled topologies stacked into padded batch tensors.

    Attributes:
        topologies: the stacked :class:`CompiledTopology` objects.
        B: batch size.
        n_pad: widest trial's node count; node tensors have
            ``n_pad + 1`` columns (the extra one is the dummy node).
        slots_alloc: slot-tensor width (``max(2 m_b) + 1``).
        sender: ``(B, slots_alloc)`` int64 -- dense index of the node
            whose broadcast lands in each slot; padding points at the
            dummy node.
        degrees: ``(B, n_pad + 1)`` int64 dense degree table (0 on
            padding and the dummy).
        node_mask: ``(B, n_pad + 1)`` bool -- True on real nodes.
        n / bandwidth: per-trial node counts and bandwidth budgets as
            ``(B,)`` int64 arrays.
    """

    def __init__(self, topologies: Sequence):
        compiled = [
            t if isinstance(t, CompiledTopology) else compile_topology(t)
            for t in topologies
        ]
        if not compiled:
            raise ValueError("BatchTopology needs at least one topology")
        B = len(compiled)
        n = np.array([t.n for t in compiled], dtype=np.int64)
        slot_counts = np.array([2 * t.m for t in compiled], dtype=np.int64)
        n_pad = int(n.max())
        N1 = n_pad + 1
        S = int(slot_counts.max()) + 1  # +1 pad column: see module doc

        sender = np.full((B, S), n_pad, dtype=np.int64)
        degrees = np.zeros((B, N1), dtype=np.int64)
        node_mask = np.zeros((B, N1), dtype=bool)
        seg_starts = np.empty(B * N1, dtype=np.int64)
        for b, topology in enumerate(compiled):
            arrays = topology.batch_arrays()
            k = len(arrays.indices)
            sender[b, :k] = arrays.indices
            degrees[b, : topology.n] = arrays.degrees
            node_mask[b, : topology.n] = True
            row = seg_starts[b * N1 : (b + 1) * N1]
            row[: topology.n] = arrays.indptr[:-1]
            row[topology.n :] = k
            row += b * S

        self.topologies = compiled
        self.B = B
        self.n_pad = n_pad
        self.slots_alloc = S
        self.n = n
        self.bandwidth = np.array(
            [t.bandwidth_bits for t in compiled], dtype=np.int64
        )
        self.sender = sender
        self.degrees = degrees
        self.node_mask = node_mask
        self.seg_starts = seg_starts
        self.empty_rows = degrees == 0

    def node_zeros(self, dtype=np.int64):
        """A fresh ``(B, n_pad + 1)`` node tensor of zeros."""
        return np.zeros((self.B, self.n_pad + 1), dtype=dtype)

    def node_full(self, fill, dtype=np.int64):
        """A fresh ``(B, n_pad + 1)`` node tensor filled with *fill*."""
        return np.full((self.B, self.n_pad + 1), fill, dtype=dtype)

    # -- receive-side segment reductions --------------------------------------

    def reduce_min(self, slot_values, identity=BIG):
        """Per-node minimum over each receiver's row slice.

        *slot_values* must already carry *identity* in non-live slots
        (callers mask with ``where(arrived, value, identity)``), so
        padding regions reduce harmlessly; degree-0 rows (including the
        dummy node and ragged padding) are post-masked to *identity*.
        """
        out = np.minimum.reduceat(slot_values.reshape(-1), self.seg_starts)
        return np.where(self.empty_rows, identity, out.reshape(self.B, -1))

    def reduce_sum(self, slot_values):
        """Per-node sum over each receiver's row slice (identity 0)."""
        out = np.add.reduceat(slot_values.reshape(-1), self.seg_starts)
        return np.where(self.empty_rows, 0, out.reshape(self.B, -1))


def pad_groups(
    topologies: Sequence[CompiledTopology],
    limit: int,
    waste: float = DEFAULT_PAD_WASTE,
) -> List[List[int]]:
    """Group trial indices into batches with bounded padding waste.

    Sorts trials by ``(n, 2m)`` and cuts a new group whenever adding
    the next trial would exceed *limit* members or pad the group's
    smallest member by more than a factor of *waste* in slots.  Returns
    index lists into *topologies* (every index appears exactly once),
    so callers can batch heterogeneous sweep cells without drowning a
    sparse trial in a dense trial's padding.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if waste < 1.0:
        raise ValueError(f"pad waste bound must be >= 1, got {waste}")
    order = sorted(
        range(len(topologies)),
        key=lambda i: (topologies[i].n, topologies[i].m),
    )
    groups: List[List[int]] = []
    group: List[int] = []
    floor_slots = 0
    for i in order:
        slots = max(1, 2 * topologies[i].m)
        if not group:
            group = [i]
            floor_slots = slots
            continue
        if len(group) >= limit or slots > waste * floor_slots:
            groups.append(group)
            group = [i]
            floor_slots = slots
            continue
        group.append(i)
    if group:
        groups.append(group)
    return groups


class BatchAccounting:
    """Per-trial accounting over one batched run.

    Replicates :meth:`MessageAccounting._broadcast_dense
    <repro.congest.instrumentation.MessageAccounting>` arithmetic exactly:
    a degree-0 sender is skipped before sizing (it never touches
    ``max_message_bits``), every sized payload updates the running
    maximum, and an over-budget broadcast charges ``degree`` messages
    (or raises under ``strict``, naming the first offending sender in
    dense order).
    """

    def __init__(self, batch: BatchTopology, strict: bool):
        self.batch = batch
        self.strict = strict
        self.messages = np.zeros(batch.B, dtype=np.int64)
        self.bits = np.zeros(batch.B, dtype=np.int64)
        self.max_bits = np.zeros(batch.B, dtype=np.int64)
        self.over = np.zeros(batch.B, dtype=np.int64)

    def account(self, send_mask, payload_bits) -> None:
        batch = self.batch
        degrees = batch.degrees
        send_degrees = np.where(send_mask, degrees, 0)
        self.messages += send_degrees.sum(axis=1)
        self.bits += (send_degrees * payload_bits).sum(axis=1)
        sized = send_mask & (degrees > 0)
        if not bool(sized.any()):
            return
        round_max = np.where(sized, payload_bits, 0).max(axis=1)
        self.max_bits = np.maximum(self.max_bits, round_max)
        over = sized & (payload_bits > batch.bandwidth[:, None])
        if bool(over.any()):
            if self.strict:
                self._raise_first(over, payload_bits)
            self.over += np.where(over, degrees, 0).sum(axis=1)

    def _raise_first(self, over, payload_bits) -> None:
        from ..errors import BandwidthExceededError

        b, v = (int(x) for x in np.argwhere(over)[0])
        topology = self.batch.topologies[b]
        node = topology.nodes[v]
        raise BandwidthExceededError(
            node,
            topology.neighbors[node][0],
            int(payload_bits[b, v]),
            int(self.batch.bandwidth[b]),
        )


class BatchKernel:
    """Array-state step function for one program over a batch.

    Subclasses (registered via :func:`register_batch_kernel`, one per
    vectorizable program) own:

    * ``lanes`` -- payload lanes their messages occupy;
    * ``strict`` -- whether the scalar entry point runs with
      ``strict_bandwidth=True`` (bfs/flood/forest do, the storm does
      not);
    * :meth:`max_rounds` -- the per-trial round limits the scalar entry
      points use (``n + 2``, ``budget + 3``, ``storm_rounds + 2``);
    * :meth:`step` -- one lockstep round: read last round's arrivals
      from the plane, mutate node state, and return
      ``(send_mask, lane_values, payload_bits)`` node tensors;
    * :meth:`outputs` -- assemble one trial's ``node id -> output``
      dict (runs once, after the loop).
    """

    lanes = 0
    strict = True

    def __init__(self, batch: BatchTopology, params: Dict[str, Any]):
        self.batch = batch
        self.params = params
        # Padding columns and the dummy node start (and stay) halted;
        # kernels flip real nodes as their programs halt.
        self.halted = ~batch.node_mask

    def max_rounds(self):
        """Per-trial round limits as a ``(B,)`` int64 array."""
        raise NotImplementedError

    def all_halted(self):
        """Per-trial ``(B,)`` bool: every program halted."""
        return self.halted.all(axis=1)

    def step(self, round_index: int, live, plane) -> Tuple[Any, Sequence, Any]:
        """Advance one round for the trials selected by *live*."""
        raise NotImplementedError

    def outputs(self, trial: int) -> Dict[Any, Any]:
        """Assemble trial *trial*'s ``node id -> output`` mapping."""
        raise NotImplementedError


BATCH_KERNELS: Dict[str, Type[BatchKernel]] = {}
"""Registry mapping program name -> kernel class."""


def register_batch_kernel(name: str, cls: Type[BatchKernel]) -> None:
    """Register *cls* as program *name*'s batch kernel (overwrites)."""
    BATCH_KERNELS[name] = cls


def batch_kernels() -> Tuple[str, ...]:
    """Programs with a registered batch kernel, sorted."""
    from . import programs  # noqa: F401 -- importing registers kernels

    return tuple(sorted(BATCH_KERNELS))


def run_batched(
    program: str,
    topologies: Sequence,
    params: Optional[Dict[str, Any]] = None,
) -> List[SimulationResult]:
    """Run *program* over every topology in one batched simulation.

    Accepts graphs or :class:`CompiledTopology` objects (or a prebuilt
    :class:`BatchTopology`); returns one scalar-shaped
    :class:`~repro.congest.network.SimulationResult` per trial, in
    input order, each bit-identical to a scalar dense-plane run.
    *params* carries the program knobs the scalar entry points take,
    resolved (``alpha`` for the forest decomposition, ``storm_rounds``
    for the storm; kernels restate no default); roots default to each
    trial's minimum node id exactly like ``simulate_program`` jobs.
    """
    from . import programs  # noqa: F401 -- importing registers kernels

    try:
        kernel_cls = BATCH_KERNELS[program]
    except KeyError:
        raise ValueError(
            f"no batch kernel for program {program!r}; "
            f"registered: {batch_kernels()}"
        ) from None
    if isinstance(topologies, BatchTopology):
        batch = topologies
    else:
        batch = BatchTopology(topologies)
    kernel = kernel_cls(batch, dict(params or {}))

    from .plane_batched import BatchedMessagePlane

    plane = BatchedMessagePlane(batch, kernel.lanes)
    accounting = BatchAccounting(batch, strict=kernel.strict)
    max_rounds = kernel.max_rounds()
    rounds = np.zeros(batch.B, dtype=np.int64)
    limit = int(max_rounds.max())
    for round_index in range(limit):
        live = ~kernel.all_halted() & (round_index < max_rounds)
        if not bool(live.any()):
            break
        rounds += live
        send_mask, lane_values, payload_bits = kernel.step(
            round_index, live, plane
        )
        send_mask = send_mask & batch.node_mask
        accounting.account(send_mask, payload_bits)
        plane.send(send_mask, lane_values)
        plane.swap()

    halted = kernel.all_halted()
    results: List[SimulationResult] = []
    for b in range(batch.B):
        results.append(
            SimulationResult(
                rounds=int(rounds[b]),
                outputs=kernel.outputs(b),
                halted=bool(halted[b]),
                total_messages=int(accounting.messages[b]),
                total_bits=int(accounting.bits[b]),
                max_message_bits=int(accounting.max_bits[b]),
                bandwidth_bits=int(batch.bandwidth[b]),
                over_budget_messages=int(accounting.over[b]),
            )
        )
    return results
