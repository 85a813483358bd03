"""Validation and bit accounting for the simulator's delivery loop.

:meth:`CongestNetwork.run` files every outbox through one
:class:`MessageAccounting`, which does three things per message:

* *validation* -- the dense plane's slot lookup rejects every target
  that is not a neighbor of the sender;
* *accounting* -- the exact :func:`bit_size` of every payload, charged
  against the per-edge per-round budget (raising
  :class:`~repro.errors.BandwidthExceededError` under
  ``strict_bandwidth``, counting over-budget messages otherwise);
* *delivery* -- the payload lands in the receiver's mirror slot.

A pure broadcast (``{BROADCAST: payload}``, the common case for the
bundled protocols) is sized once and charged arithmetically: ``degree``
messages and ``degree * bits`` bits in O(1) accounting work, with one
delivery write per neighbor.  Per-round message/bit counts are not
kept here; a ``round_hook`` reads the running totals once per round.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..errors import BandwidthExceededError, ProtocolError
from .message import bit_size
from .node import BROADCAST


class MessageAccounting:
    """Validation + exact bit accounting for one simulation run.

    Built fresh per :meth:`CongestNetwork.run`; the network calls
    :meth:`deliver_dense` once per non-empty outbox.  The counters
    ``total_messages``, ``total_bits``, ``max_message_bits`` and
    ``over_budget`` are running totals over every (post-broadcast
    expansion) message.
    """

    def __init__(self, topology, bandwidth_bits: int, strict_bandwidth: bool):
        self._neighbors = topology.neighbors
        self._bandwidth = bandwidth_bits
        self._strict = strict_bandwidth
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        self.over_budget = 0

    def _expand_broadcast(self, node: Any, outbox: Mapping[Any, Any]) -> Dict[Any, Any]:
        """Expand the BROADCAST sentinel; direct entries override it."""
        expanded: Dict[Any, Any] = dict.fromkeys(
            self._neighbors[node], outbox[BROADCAST]
        )
        for target, payload in outbox.items():
            if target != BROADCAST:
                expanded[target] = payload
        return expanded

    def deliver_dense(self, idx, node, outbox, plane, token) -> None:
        """Validate, account, and file one node's outbox into edge slots.

        *idx* is the sender's dense index, *plane* the run's
        :class:`~repro.congest.plane.DenseMessagePlane`, and *token* the
        stamp under which next-round readers will scan.
        """
        if BROADCAST in outbox:
            if len(outbox) == 1:
                self._broadcast_dense(idx, node, outbox[BROADCAST], plane, token)
                return
            outbox = self._expand_broadcast(node, outbox)
        slots = plane.send_slot[idx]
        owner = plane.row_owner
        data = plane.next_data
        stamp = plane.next_stamp
        mark = plane.next_mark
        count = plane.next_count
        bandwidth = self._bandwidth
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

    def _broadcast_dense(self, idx, node, payload, plane, token) -> None:
        row_slots = plane.broadcast_slots[idx]
        degree = len(row_slots)
        if degree == 0:
            return
        bits = bit_size(payload)
        self.total_messages += degree
        self.total_bits += bits * degree
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        if bits > self._bandwidth:
            if self._strict:
                raise BandwidthExceededError(
                    node, self._neighbors[node][0], bits, self._bandwidth
                )
            self.over_budget += degree
        data = plane.next_data
        stamp = plane.next_stamp
        mark = plane.next_mark
        count = plane.next_count
        for slot, receiver in zip(row_slots, plane.broadcast_targets[idx]):
            data[slot] = payload
            stamp[slot] = token
            if mark[receiver] == token:
                count[receiver] += 1
            else:
                mark[receiver] = token
                count[receiver] = 1
