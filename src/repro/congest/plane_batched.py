"""Batched message plane: ``(B, slots)`` tensors over stacked CSR edge slots.

The scalar :class:`~repro.congest.plane.DenseMessagePlane` moves one
trial's payloads through flat per-round edge-slot buffers.  This module
stacks the slot buffers of ``B`` trials into ``(B, slots)`` tensors so
one array program steps every trial of a sweep cell in lockstep.

Two structural facts make the vectorization cheap:

* **Broadcast send is a gather, not a scatter.**  Slot ``s`` in a
  receiver's CSR row names the *sender* (``indices[s]`` is the dense
  index of the neighbor whose half-edge lands there), so delivering
  every broadcast of a round is one
  ``take_along_axis(node_values, sender, axis=1)`` over the stacked
  sender table -- no mirror-slot scatter, no write conflicts.
* **Stamps collapse to a boolean.**  The scalar plane stamps slots with
  round tokens to avoid clearing; here the gather rebuilds the whole
  ``arrived`` plane from this round's send mask, so "stamp == token"
  becomes the gathered send bit and retired payloads vanish for free.

Payloads travel as parallel integer *lanes* (one ``(B, slots)`` tensor
per scalar field of the program's message tuple -- a distance, a tag, a
round number).  Programs that broadcast structured tuples in the scalar
plane read/write lanes here; the per-program kernels in
:mod:`repro.congest.batch` own the mapping.

The plane is double-buffered exactly like the scalar one: kernels read
``cur_*`` (last round's arrivals), the engine writes ``next_*`` from
this round's sends, and :meth:`swap` promotes them at end of round.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class BatchedMessagePlane:
    """Double-buffered ``(B, slots)`` arrival/lane tensors for one batch run.

    Args:
        batch: the :class:`~repro.congest.batch.BatchTopology` whose
            stacked sender table addresses the gathers.
        lanes: number of integer payload lanes the program's kernel
            uses (0 for receive-count-only protocols like the storm).
    """

    __slots__ = (
        "batch",
        "lanes",
        "cur_arrived",
        "next_arrived",
        "cur_lanes",
        "next_lanes",
        "swaps",
    )

    def __init__(self, batch, lanes: int):
        shape = (batch.B, batch.slots_alloc)
        self.batch = batch
        self.lanes = lanes
        self.cur_arrived = np.zeros(shape, dtype=bool)
        self.next_arrived = np.zeros(shape, dtype=bool)
        self.cur_lanes = [np.zeros(shape, dtype=np.int64) for _ in range(lanes)]
        self.next_lanes = [np.zeros(shape, dtype=np.int64) for _ in range(lanes)]
        # Rounds this plane has been swapped through (diagnostics parity
        # with the scalar plane's counter).
        self.swaps = 0

    def send(self, send_mask, lane_values: Sequence) -> None:
        """File one round of pure broadcasts into the next-round buffers.

        *send_mask* is a ``(B, n_pad + 1)`` boolean node tensor (True
        where that trial's node broadcasts this round); *lane_values*
        holds one ``(B, n_pad + 1)`` node tensor per payload lane.  The
        gather through the stacked sender table turns them into slot
        tensors: padding slots point at the dummy node column, which
        never sends, so ragged batches need no masking here.
        """
        sender = self.batch.sender
        self.next_arrived = np.take_along_axis(send_mask, sender, axis=1)
        for lane, values in enumerate(lane_values):
            self.next_lanes[lane] = np.take_along_axis(values, sender, axis=1)

    def swap(self) -> None:
        """Promote next-round buffers to current (end of one round)."""
        self.cur_arrived, self.next_arrived = (
            self.next_arrived,
            self.cur_arrived,
        )
        self.cur_lanes, self.next_lanes = self.next_lanes, self.cur_lanes
        self.swaps += 1
