"""Differential-testing fixtures: the legacy dict-plane delivery loop.

The seed's per-node dict-inbox scheduler is no longer a production
path -- ``CongestNetwork.run`` always uses the dense plane, and the
batched tensor plane is the only other dispatch target -- but it
remains the semantic reference the differential suites compare both
against.  Nothing in the package imports this module; tests reach
:func:`run_dict_plane` by patching it in for
``CongestNetwork._run_dense_plane``.

Kept verbatim from the seed implementation (modulo living in a module
function): per-node dict inboxes rebuilt every round, an active list
that shrinks as programs halt, lazy inbox allocation.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..errors import ProtocolError

_EMPTY_INBOX: Mapping[Any, Any] = {}


def run_dict_plane(programs, prof, max_rounds, round_hook=None):
    """The seed delivery loop: per-node dict inboxes rebuilt per round.

    Same contract as ``CongestNetwork._run_dense_plane``: returns
    ``(rounds_executed, active)`` where *active* is the (possibly
    empty) list of still-running programs at exit.
    """
    # Active set: only unhalted programs are stepped; the list shrinks
    # as programs halt (replacing the old twice-per-round
    # all(p.halted) scans over every program).
    active = [item for item in programs.items() if not item[1].halted]
    inboxes: Dict[Any, Dict[Any, Any]] = {}
    rounds_executed = 0

    deliver = prof.deliver
    for round_index in range(max_rounds):
        if not active:
            break
        rounds_executed += 1
        prof.begin_round(round_index)
        next_inboxes: Dict[Any, Dict[Any, Any]] = {}
        get_inbox = inboxes.get
        for node, program in active:
            outbox = program.step(round_index, get_inbox(node, _EMPTY_INBOX))
            if outbox is None:
                continue
            if not isinstance(outbox, Mapping):
                raise ProtocolError(
                    f"node {node!r} returned a non-mapping outbox: {outbox!r}"
                )
            if outbox:
                deliver(node, outbox, next_inboxes)
        inboxes = next_inboxes
        if round_hook is not None:
            round_hook(round_index, len(active), prof)
        active = [item for item in active if not item[1].halted]
    return rounds_executed, active
