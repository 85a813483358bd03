"""Dense-index message plane: flat per-round buffers over CSR edge slots.

The seed simulator moved payloads through ``dict[node][neighbor]``
inboxes rebuilt every round.  The dense plane replaces that with two
flat buffers of length ``2m`` (one slot per directed edge, addressed by
the :class:`~repro.congest.topology.PlaneArrays` lookup tables) that are
double-buffered across rounds:

* a *send* files the payload into the mirror slot of the sender's CSR
  row entry -- three list stores, no dict allocation;
* a *receive* scans the receiver's own contiguous row slice for slots
  stamped with the previous round's token.

Stamp tokens (the 1-based index of the round that wrote a slot) make
clearing unnecessary: a slot is live exactly when its stamp equals the
token under which the reader scans, so silent rounds and retired
payloads cost nothing.  Per-node ``mark`` stamps let the scheduler skip
the row scan entirely for nodes that received nothing.

The plane is representation only -- validation and accounting stay with
the :class:`~repro.congest.instrumentation.MessageAccounting`.  Programs
read their mail through a :class:`SlotInbox`, a read-only mapping view
over the row slice, so no per-round inbox dict is ever built.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional

from .topology import CompiledTopology

class DenseMessagePlane:
    """Double-buffered flat payload/stamp arrays for one simulation run."""

    __slots__ = (
        "topology",
        "indptr",
        "csr_ids",
        "mirror",
        "row_owner",
        "send_slot",
        "broadcast_slots",
        "broadcast_targets",
        "cur_data",
        "next_data",
        "cur_stamp",
        "next_stamp",
        "cur_mark",
        "next_mark",
        "cur_count",
        "next_count",
        "swaps",
    )

    def __init__(self, topology: CompiledTopology):
        arrays = topology.plane_arrays()
        slots = len(topology.indices)
        self.topology = topology
        self.indptr = topology.indptr
        self.csr_ids = arrays.csr_ids
        self.mirror = arrays.mirror
        self.row_owner = arrays.row_owner
        self.send_slot = arrays.send_slot
        self.broadcast_slots = arrays.broadcast_slots
        self.broadcast_targets = arrays.broadcast_targets
        # Stamps start below every real token (reads use token =
        # round_index >= 0, writes token = round_index + 1 >= 1) so the
        # fresh buffers read as empty in round 0.
        self.cur_data = [None] * slots
        self.next_data = [None] * slots
        self.cur_stamp = [-1] * slots
        self.next_stamp = [-1] * slots
        self.cur_mark = [-1] * topology.n
        self.next_mark = [-1] * topology.n
        self.cur_count = [0] * topology.n
        self.next_count = [0] * topology.n
        # Rounds this plane has been swapped through -- a free progress
        # counter for diagnostics and the telemetry round hook's tests.
        self.swaps = 0

    def swap(self) -> None:
        """Promote next-round buffers to current (end of one round)."""
        self.cur_data, self.next_data = self.next_data, self.cur_data
        self.cur_stamp, self.next_stamp = self.next_stamp, self.cur_stamp
        self.cur_mark, self.next_mark = self.next_mark, self.cur_mark
        self.cur_count, self.next_count = self.next_count, self.cur_count
        self.swaps += 1

    # -- receive side ---------------------------------------------------------

    def inbox_view(self, idx: int, token: int) -> Optional["SlotInbox"]:
        """A zero-copy mapping view of node *idx*'s inbox, or ``None``."""
        if self.cur_mark[idx] != token:
            return None
        return SlotInbox(self, idx, token)


class SlotInbox(Mapping):
    """Read-only mapping view over one receiver's stamped row slice.

    Presents a ``sender id -> payload`` mapping, iterating senders in
    CSR row order (``id_key`` order, the order senders are stepped in),
    without allocating or filling a dict; a lookup is one ``send_slot``
    dict hit plus a ``mirror`` read, and iteration scans the contiguous
    row slice.

    The view is valid for the round it was handed to ``step()``: the
    buffers it reads are double-buffered and swap at the end of the
    round, so a program that *retains* its inbox across rounds reads
    stale (typically empty) state.  None of the bundled programs do;
    a program that needs the messages later should copy them
    (``dict(inbox.items())``).
    """

    __slots__ = ("_plane", "_idx", "_token", "_lo", "_hi")

    def __init__(self, plane: DenseMessagePlane, idx: int, token: int):
        self._plane = plane
        self._idx = idx
        self._token = token
        self._lo = plane.indptr[idx]
        self._hi = plane.indptr[idx + 1]

    def _slot_of(self, sender: Any) -> Optional[int]:
        # send_slot[idx] maps a target id to the slot in the target's row
        # owned by idx; its mirror is the slot in idx's own row owned by
        # the target -- where that neighbor's message to idx lands.
        plane = self._plane
        slot = plane.send_slot[self._idx].get(sender)
        return None if slot is None else plane.mirror[slot]

    def __getitem__(self, sender: Any) -> Any:
        slot = self._slot_of(sender)
        plane = self._plane
        if slot is None or plane.cur_stamp[slot] != self._token:
            raise KeyError(sender)
        return plane.cur_data[slot]

    def __contains__(self, sender: Any) -> bool:
        slot = self._slot_of(sender)
        return slot is not None and self._plane.cur_stamp[slot] == self._token

    def __iter__(self) -> Iterator[Any]:
        plane = self._plane
        stamp = plane.cur_stamp
        ids = plane.csr_ids
        token = self._token
        for slot in range(self._lo, self._hi):
            if stamp[slot] == token:
                yield ids[slot]

    def items(self):
        plane = self._plane
        lo, hi = self._lo, self._hi
        if plane.cur_count[self._idx] == hi - lo:
            # Full row (every neighbor sent -- the broadcast-heavy common
            # case): no stamp checks needed.
            return list(zip(plane.csr_ids[lo:hi], plane.cur_data[lo:hi]))
        stamp = plane.cur_stamp
        data = plane.cur_data
        ids = plane.csr_ids
        token = self._token
        return [
            (ids[slot], data[slot])
            for slot in range(lo, hi)
            if stamp[slot] == token
        ]

    def values(self):
        plane = self._plane
        lo, hi = self._lo, self._hi
        if plane.cur_count[self._idx] == hi - lo:
            return plane.cur_data[lo:hi]
        stamp = plane.cur_stamp
        data = plane.cur_data
        token = self._token
        return [
            data[slot]
            for slot in range(lo, hi)
            if stamp[slot] == token
        ]

    def __len__(self) -> int:
        # Receive counts are maintained at delivery time, so sizing an
        # inbox never scans the row.
        return self._plane.cur_count[self._idx]

    def __bool__(self) -> bool:
        # A view only exists when the receiver's mark was stamped, which
        # implies at least one live slot.
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotInbox({dict(self.items())!r})"
