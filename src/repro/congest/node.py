"""Node-program abstractions for the CONGEST simulator.

A :class:`NodeProgram` is the per-node algorithm: the network instantiates
one program per node and drives them in synchronous rounds.  In round ``r``
every program's :meth:`NodeProgram.step` is called with the messages that
were addressed to it in round ``r - 1`` and returns the messages it wants
delivered in round ``r`` (an "outbox": a mapping from neighbor id to
message payload).

Programs signal completion by calling :meth:`NodeProgram.halt`.  A halted
program stops being stepped but still *receives* nothing (synchronous
model: messages to halted nodes are counted but dropped).  The simulation
ends when every program has halted or the round limit is reached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

NodeId = Any
Outbox = Dict[NodeId, Any]
Inbox = Mapping[NodeId, Any]

BROADCAST = "__broadcast__"
"""Sentinel key: an outbox entry ``{BROADCAST: msg}`` sends *msg* to every
neighbor.  This mirrors the local-broadcast flavour of CONGEST and keeps
program code concise; bandwidth is charged per edge as usual."""


@dataclass
class NodeContext:
    """Static, per-node information handed to a program at construction.

    Attributes:
        node: this node's identifier.
        neighbors: identifiers of adjacent nodes, in ``id_key`` order.
        n: number of nodes in the network (CONGEST nodes know ``n``,
           or at least a polynomial upper bound; the paper assumes ids in
           ``[n]`` so knowing ``n`` up to a constant power is standard).
        rng: per-node deterministic random generator (seeded from the
             network seed and the node id).
        config: arbitrary read-only algorithm parameters shared by all
             nodes (e.g. the distance parameter epsilon).
    """

    node: NodeId
    neighbors: Tuple[NodeId, ...]
    n: int
    rng: random.Random
    config: Mapping[str, Any] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        """Number of incident edges."""
        return len(self.neighbors)


class NodeProgram:
    """Base class for per-node CONGEST algorithms.

    Subclasses override :meth:`step`.  The default implementation of the
    lifecycle helpers stores an ``output`` value and a ``halted`` flag that
    the network collects into the simulation result.
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        self.ctx = ctx
        self.output: Any = None
        self._halted = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def halted(self) -> bool:
        """True once the program has called :meth:`halt`."""
        return self._halted

    def halt(self, output: Any = None) -> None:
        """Stop participating in future rounds, optionally recording output."""
        if output is not None:
            self.output = output
        self._halted = True

    # -- behaviour ---------------------------------------------------------

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        """Compute one synchronous round.

        Args:
            round_index: 0-based round number.  In round 0 the inbox is
                always empty (no messages have been sent yet).
            inbox: messages addressed to this node in the previous round,
                keyed by sender.

        Returns:
            The outbox: a mapping from neighbor id (or :data:`BROADCAST`)
            to the message payload, or ``None`` for "send nothing".
        """
        raise NotImplementedError

    # -- conveniences for subclasses ----------------------------------------

    def broadcast(self, message: Any) -> Outbox:
        """Return an outbox that sends *message* to every neighbor."""
        return {BROADCAST: message}

    def silence(self) -> Outbox:
        """Return an empty outbox (send nothing this round)."""
        return {}
