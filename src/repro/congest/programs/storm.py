"""Broadcast storm: a synthetic workload that saturates the delivery loop.

Every node broadcasts a CONGEST-sized payload (a tag, its own id, and a
round counter folded into a small window so payloads repeat) for a fixed
number of rounds, then halts.  On a dense graph this makes the
simulator's delivery loop -- validation, bit accounting, slot writes --
the overwhelming cost, which is exactly what the E15 throughput
benchmark times: the program's own ``step`` work is negligible, so
wall-clock differences are attributable to the delivery path.

Per-round message/bit counts come from a ``round_hook``, which sees the
running totals once per executed round::

    rows = []
    CongestNetwork(graph).run(
        BroadcastStormProgram, max_rounds=12, config={"storm_rounds": 10},
        round_hook=lambda r, active, acct: rows.append(
            (r, acct.total_messages, acct.total_bits)),
    )
    # per-round counts are the deltas between consecutive rows
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..batch import BatchKernel, register_batch_kernel
from ..message import bit_size
from .tags import MSG_STORM
from ..node import Inbox, NodeContext, NodeProgram, Outbox

PAYLOAD_WINDOW = 4
"""Distinct payloads each node cycles through."""


class BroadcastStormProgram(NodeProgram):
    """Broadcast every round for ``config['storm_rounds']`` rounds.

    Output per node: the number of messages it received in total (a
    deterministic digest of the delivery schedule, so differential
    tests can compare delivery paths on it).
    """

    def __init__(self, ctx: NodeContext):  # noqa: D107
        super().__init__(ctx)
        self._rounds = int(ctx.config["storm_rounds"])
        self._received = 0

    def step(self, round_index: int, inbox: Inbox) -> Optional[Outbox]:
        self._received += len(inbox)
        if round_index >= self._rounds:
            self.halt(self._received)
            return self.silence()
        return self.broadcast(
            (MSG_STORM, self.ctx.node, round_index % PAYLOAD_WINDOW)
        )


class StormBatchKernel(BatchKernel):
    """Array-state :class:`BroadcastStormProgram`: receive-count only.

    No payload lanes -- the only observable state is how many messages
    arrived, which the boolean plane already carries.  Payload sizes
    depend on the sender's id, so the per-node base cost vector is
    computed once via the scalar :func:`bit_size` (memoized per
    topology object: the pinned-graph benchmark batches B copies of one
    topology) and the round counter's contribution is a scalar per
    round.  Non-strict, matching the scalar entry point.
    """

    lanes = 0
    strict = False

    def __init__(self, batch, params):  # noqa: D107
        super().__init__(batch, params)
        self.storm_rounds = int(params.get("storm_rounds", 8))
        self.received = batch.node_zeros()
        base = np.zeros((batch.B, batch.n_pad + 1), dtype=np.int64)
        memo = {}
        for b, topology in enumerate(batch.topologies):
            row = memo.get(id(topology))
            if row is None:
                row = memo[id(topology)] = np.array(
                    [
                        bit_size((MSG_STORM, node, 0))
                        for node in topology.nodes
                    ],
                    dtype=np.int64,
                )
            base[b, : topology.n] = row
        self.base_bits = base

    def max_rounds(self):
        return np.full(self.batch.B, self.storm_rounds + 2, dtype=np.int64)

    def step(self, round_index, live, plane):
        listening = live[:, None] & ~self.halted
        counts = self.batch.reduce_sum(plane.cur_arrived.astype(np.int64))
        self.received = self.received + np.where(listening, counts, 0)
        halt_now = listening & (round_index >= self.storm_rounds)
        self.halted = self.halted | halt_now
        send = listening & ~halt_now
        window = (round_index % PAYLOAD_WINDOW).bit_length()
        return send, (), self.base_bits + window

    def outputs(self, trial):
        topology = self.batch.topologies[trial]
        halted = self.halted[trial]
        received = self.received[trial]
        return {
            node: int(received[v]) if halted[v] else None
            for v, node in enumerate(topology.nodes)
        }


register_batch_kernel("storm", StormBatchKernel)
