"""Pluggable instrumentation profiles for the delivery loop.

:meth:`CongestNetwork.run` used to interleave three concerns inside its
inner loop: *delivery* (moving payloads into next-round inboxes),
*validation* (neighbor and protocol checks), and *accounting* (bit-size
estimation, bandwidth budgeting, message counters).  This module
extracts validation + accounting behind an :class:`InstrumentationProfile`
so callers can trade diagnostic depth for throughput without touching
the scheduler:

* :class:`FaithfulProfile` (``"faithful"``, the default) keeps today's
  exact semantics: every message is validated against the sender's
  neighbor set, every payload runs the full :func:`bit_size` recursion,
  and per-round message/bit statistics are recorded.
* :class:`FastProfile` (``"fast"``) validates each node's explicit
  targets only on that node's first outbox (pure broadcasts are
  neighbor-correct by construction), memoizes :func:`bit_size` for
  repeated payloads, charges pure broadcasts once per payload instead
  of once per edge, and keeps counters only (no per-round stats).

Both profiles deliver the same messages in the same order, so program
outputs, round counts, and halting behavior are identical; the bundled
protocols also produce identical bit/message totals because
:func:`bit_size` is deterministic.  (Caveat: the fast profile's memo is
keyed by ``(type, payload)``, so exotic payloads whose *elements* compare
equal across types -- ``(1,)`` versus ``(True,)`` -- can share a memo
entry and skew the fast profile's bit totals; none of the bundled
programs emit such payloads.)

Profile selection, in precedence order:

1. the ``profile=`` argument to :meth:`CongestNetwork.run` (a name, a
   profile class, or a pre-built instance);
2. the ``REPRO_SIM_PROFILE`` environment variable (which process-pool
   workers inherit, so ``repro-planarity sweep --profile fast`` reaches
   every backend);
3. the ``"faithful"`` default.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Mapping, Tuple, Type, Union

from ..errors import BandwidthExceededError, ProtocolError
from .message import bit_size
from .node import BROADCAST

PROFILE_ENV_VAR = "REPRO_SIM_PROFILE"

Inboxes = Dict[Any, Dict[Any, Any]]


class InstrumentationProfile:
    """Validation + accounting strategy for one simulation run.

    A profile instance is single-use: :meth:`bind` attaches it to a
    topology and resets its counters, then the network calls
    :meth:`begin_round` once per round and :meth:`deliver_dense` once
    per non-empty outbox.  Subclasses implement :meth:`deliver_dense`
    and its dict-plane twin :meth:`deliver`, which the differential
    reference loop (:mod:`repro.congest._differential`) calls.  Both
    must expand the :data:`~repro.congest.node.BROADCAST` sentinel and
    account for every (post-expansion) message; :meth:`deliver` writes
    payloads into ``inboxes`` keyed ``target -> sender -> payload``
    (creating target dicts lazily -- silent nodes never allocate an
    inbox).
    """

    name = "abstract"

    #: Whether the dense plane should materialize real inbox dicts for
    #: this profile (bit-identical to the seed) or hand programs a
    #: zero-copy :class:`~repro.congest.plane.SlotInbox` view.
    materialize_inboxes = True

    def bind(self, topology, bandwidth_bits: int, strict_bandwidth: bool) -> None:
        """Attach to *topology* and reset all counters for a fresh run."""
        self._neighbors = topology.neighbors
        self._neighbor_sets = topology.neighbor_sets
        self._bandwidth = bandwidth_bits
        self._strict = strict_bandwidth
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        self.over_budget = 0

    def begin_round(self, round_index: int) -> None:
        """Hook invoked at the start of every executed round."""

    def deliver(self, node: Any, outbox: Mapping[Any, Any], inboxes: Inboxes) -> None:
        """Validate, account, and deliver one node's outbox (dict plane)."""
        raise NotImplementedError

    def deliver_dense(
        self, idx: int, node: Any, outbox: Mapping[Any, Any], plane, token: int
    ) -> None:
        """Validate, account, and file one node's outbox into edge slots.

        *idx* is the sender's dense index, *plane* the run's
        :class:`~repro.congest.plane.DenseMessagePlane`, and *token* the
        stamp under which next-round readers will scan.
        """
        raise NotImplementedError

    def round_stats(self) -> Tuple[Tuple[int, int], ...]:
        """Per-round ``(messages, bits)`` tuples; empty unless recorded."""
        return ()

    # -- shared helpers -------------------------------------------------------

    def _expand_broadcast(self, node: Any, outbox: Mapping[Any, Any]) -> Dict[Any, Any]:
        """Expand the BROADCAST sentinel; direct entries override it."""
        expanded: Dict[Any, Any] = dict.fromkeys(
            self._neighbors[node], outbox[BROADCAST]
        )
        for target, payload in outbox.items():
            if target != BROADCAST:
                expanded[target] = payload
        return expanded


class FaithfulProfile(InstrumentationProfile):
    """Full validation and accounting on every message (the default).

    Exactly the historical semantics of ``CongestNetwork.run``: strict
    neighbor validation per message, the complete :func:`bit_size`
    recursion per payload, bandwidth budgeting, and a per-round
    ``(messages, bits)`` ledger exposed via :meth:`round_stats`.
    """

    name = "faithful"

    def bind(self, topology, bandwidth_bits: int, strict_bandwidth: bool) -> None:
        super().bind(topology, bandwidth_bits, strict_bandwidth)
        self._rounds: list = []

    def begin_round(self, round_index: int) -> None:
        self._rounds.append([0, 0])

    def round_stats(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((msgs, bits) for msgs, bits in self._rounds)

    def deliver(self, node: Any, outbox: Mapping[Any, Any], inboxes: Inboxes) -> None:
        if BROADCAST in outbox:
            outbox = self._expand_broadcast(node, outbox)
        neighbor_set = self._neighbor_sets[node]
        bandwidth = self._bandwidth
        this_round = self._rounds[-1]
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
        this_round = self._rounds[-1]
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


class FastProfile(InstrumentationProfile):
    """Throughput-oriented accounting: memoized sizes, elided validation.

    * ``bit_size`` results are memoized per ``(type, payload)``, so a
      payload repeated across rounds (or across a broadcast's edges)
      is sized once.
    * A pure broadcast outbox (``{BROADCAST: payload}`` -- the common
      case for the bundled protocols) is charged arithmetically:
      ``degree`` messages and ``degree * bits`` bits in O(1) accounting
      work, with one delivery write per neighbor.
    * Explicit targets are validated only on each node's first explicit
      outbox; after that first check the profile trusts the program.
      (Bandwidth budgeting stays exact -- ``strict_bandwidth`` raises
      identically to the faithful profile.)
    """

    name = "fast"
    materialize_inboxes = False

    def bind(self, topology, bandwidth_bits: int, strict_bandwidth: bool) -> None:
        super().bind(topology, bandwidth_bits, strict_bandwidth)
        self._bit_memo: Dict[Any, int] = {}
        self._validated: set = set()

    def _bits(self, payload: Any) -> int:
        memo = self._bit_memo
        try:
            return memo[(type(payload), payload)]
        except KeyError:
            bits = bit_size(payload)
            memo[(type(payload), payload)] = bits
        except TypeError:  # unhashable payload (dict/list/set)
            bits = bit_size(payload)
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        return bits

    def deliver(self, node: Any, outbox: Mapping[Any, Any], inboxes: Inboxes) -> None:
        if BROADCAST in outbox:
            if len(outbox) == 1:
                self._deliver_pure_broadcast(node, outbox[BROADCAST], inboxes)
                return
            outbox = self._expand_broadcast(node, outbox)
        if node not in self._validated:
            neighbor_set = self._neighbor_sets[node]
            for target in outbox:
                if target not in neighbor_set:
                    raise ProtocolError(
                        f"node {node!r} attempted to message non-neighbor "
                        f"{target!r}"
                    )
            self._validated.add(node)
        bandwidth = self._bandwidth
        for target, payload in outbox.items():
            bits = self._bits(payload)
            self.total_messages += 1
            self.total_bits += bits
            if bits > bandwidth:
                if self._strict:
                    raise BandwidthExceededError(node, target, bits, bandwidth)
                self.over_budget += 1
            box = inboxes.get(target)
            if box is None:
                box = inboxes[target] = {}
            box[node] = payload

    def _deliver_pure_broadcast(
        self, node: Any, payload: Any, inboxes: Inboxes
    ) -> None:
        neighbors = self._neighbors[node]
        degree = len(neighbors)
        if degree == 0:
            return
        bits = self._bits(payload)
        self.total_messages += degree
        self.total_bits += bits * degree
        if bits > self._bandwidth:
            if self._strict:
                raise BandwidthExceededError(
                    node, neighbors[0], bits, self._bandwidth
                )
            self.over_budget += degree
        for target in neighbors:
            box = inboxes.get(target)
            if box is None:
                box = inboxes[target] = {}
            box[node] = payload

    # -- dense plane ----------------------------------------------------------

    def deliver_dense(self, idx, node, outbox, plane, token):
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
                # The slot lookup doubles as the neighbor check, so the
                # dense plane validates every explicit target for free
                # (the dict plane only checked each node's first outbox).
                raise ProtocolError(
                    f"node {node!r} attempted to message non-neighbor "
                    f"{target!r}"
                )
            bits = self._bits(payload)
            self.total_messages += 1
            self.total_bits += bits
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

    def _broadcast_dense(self, idx, node, payload, plane, token):
        row_slots = plane.broadcast_slots[idx]
        degree = len(row_slots)
        if degree == 0:
            return
        bits = self._bits(payload)
        self.total_messages += degree
        self.total_bits += bits * degree
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


PROFILES: Dict[str, Type[InstrumentationProfile]] = {
    FaithfulProfile.name: FaithfulProfile,
    FastProfile.name: FastProfile,
}
"""Registry behind ``CongestNetwork.run(profile=...)`` name lookup."""


def register_profile(name: str, cls: Type[InstrumentationProfile]) -> None:
    """Register a custom profile class under *name* (overwrites)."""
    PROFILES[name] = cls


def resolve_profile(
    profile: Union[
        None, str, InstrumentationProfile, Type[InstrumentationProfile]
    ] = None,
) -> InstrumentationProfile:
    """Resolve *profile* to a fresh (or caller-provided) instance.

    ``None`` falls back to the ``REPRO_SIM_PROFILE`` environment
    variable, then to ``"faithful"``.
    """
    if profile is None:
        profile = os.environ.get(PROFILE_ENV_VAR) or "faithful"
    if isinstance(profile, InstrumentationProfile):
        return profile
    if isinstance(profile, type) and issubclass(profile, InstrumentationProfile):
        return profile()
    try:
        return PROFILES[profile]()
    except KeyError:
        raise ValueError(
            f"unknown instrumentation profile {profile!r}; "
            f"registered: {sorted(PROFILES)}"
        ) from None
