"""Synchronous CONGEST network simulator.

:class:`CongestNetwork` executes a :class:`~repro.congest.node.NodeProgram`
per node of an undirected simple graph in synchronous rounds, delivering
messages along edges and enforcing the CONGEST bandwidth constraint
(``O(log n)`` bits per edge per round).

The simulator is a two-tier core:

* a :class:`~repro.congest.topology.CompiledTopology` holds the
  pre-derived adjacency structure (dense indices, CSR arrays, neighbor
  tuples/sets, degree table, default bandwidth budget) -- compiled once
  per graph and shared by every network/run over it;
* a :class:`~repro.congest.instrumentation.MessageAccounting` owns the
  delivery loop's validation and exact bit accounting, and files each
  outbox into a :class:`~repro.congest.plane.DenseMessagePlane`.

The scheduler itself uses an *active set*: only unhalted programs are
stepped, and the set shrinks as programs halt, so late rounds of a
protocol in which most nodes finished early cost O(active) rather than
O(n).  Inboxes are allocated lazily on first delivery -- silent rounds
allocate nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional

import networkx as nx

from ..errors import GraphInputError, ProtocolError, SimulationLimitError
from .instrumentation import MessageAccounting
from .node import NodeContext, NodeProgram
from .plane import DenseMessagePlane
from .topology import CompiledTopology, compile_topology
from ..runtime.seeding import derive_seed

ProgramFactory = Callable[[NodeContext], NodeProgram]

_EMPTY_INBOX: Mapping[Any, Any] = MappingProxyType({})


@dataclass
class SimulationResult:
    """Outcome of a :meth:`CongestNetwork.run` call.

    Attributes:
        rounds: number of executed rounds (a round in which every program
            was already halted is not counted).
        outputs: mapping from node id to the program's ``output``.
        halted: True when every program halted before the round limit.
        total_messages: number of point-to-point messages delivered.
        total_bits: estimated total bits transmitted.
        max_message_bits: largest single message observed.
        bandwidth_bits: per-edge per-round budget used for accounting.
        over_budget_messages: messages that exceeded the budget (only
            non-zero when ``strict_bandwidth`` was False).
    """

    rounds: int
    outputs: Dict[Any, Any]
    halted: bool
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    bandwidth_bits: int = 0
    over_budget_messages: int = 0
    programs: Dict[Any, NodeProgram] = field(default_factory=dict, repr=False)


class CongestNetwork:
    """A synchronous message-passing network over an undirected graph."""

    def __init__(
        self,
        graph: Optional[nx.Graph] = None,
        bandwidth_bits: Optional[int] = None,
        seed: Optional[int] = None,
        topology: Optional[CompiledTopology] = None,
    ):
        """Build a network over *graph* (or a pre-compiled *topology*).

        Args:
            graph: a simple undirected :class:`networkx.Graph` with
                hashable node ids, ordered by
                :func:`~repro.graphs.utils.id_key`.  Its adjacency is
                compiled via
                :func:`~repro.congest.topology.compile_topology`, so
                repeated networks over the same graph object share one
                :class:`CompiledTopology`.
            bandwidth_bits: per-edge per-round budget; defaults to the
                topology's precomputed
                :func:`repro.congest.message.default_bandwidth_bits`.
            seed: master seed from which per-node RNGs are derived.
            topology: an already-compiled topology to use directly
                (skips compilation and graph validation entirely).  When
                both *graph* and *topology* are given they must refer to
                the same graph object.
        """
        if topology is None:
            if graph is None:
                raise GraphInputError(
                    "CongestNetwork requires a graph or a compiled topology"
                )
            topology = compile_topology(graph)
        elif graph is not None and topology.graph is not graph:
            raise GraphInputError(
                "topology was compiled for a different graph object"
            )
        self.topology = topology
        # The topology holds its graph weakly; the network keeps it alive.
        self.graph = graph if graph is not None else topology.graph
        self.n = topology.n
        self.bandwidth_bits = (
            bandwidth_bits if bandwidth_bits is not None else topology.bandwidth_bits
        )
        self.seed = seed
        self._neighbors = topology.neighbors
        self._neighbor_sets = topology.neighbor_sets

    # -- helpers -------------------------------------------------------------

    def _node_rng(self, node: Any) -> random.Random:
        """Deterministic per-node RNG derived from the master seed."""
        return random.Random(derive_seed(self.seed, repr(node)))

    def make_programs(
        self,
        factory: ProgramFactory,
        config: Optional[Mapping[str, Any]] = None,
    ) -> Dict[Any, NodeProgram]:
        """Instantiate one program per node."""
        config = dict(config or {})
        programs: Dict[Any, NodeProgram] = {}
        for node in self.topology.nodes:
            ctx = NodeContext(
                node=node,
                neighbors=self._neighbors[node],
                n=self.n,
                rng=self._node_rng(node),
                config=config,
            )
            programs[node] = factory(ctx)
        return programs

    # -- execution -------------------------------------------------------------

    def run(
        self,
        factory: ProgramFactory,
        max_rounds: int,
        config: Optional[Mapping[str, Any]] = None,
        strict_bandwidth: bool = False,
        raise_on_limit: bool = False,
        round_hook: Optional[Callable[[int, int, MessageAccounting], None]] = None,
    ) -> SimulationResult:
        """Run the protocol until all programs halt or *max_rounds* elapse.

        Args:
            factory: builds a program from a :class:`NodeContext`.
            max_rounds: hard round limit.
            config: shared read-only parameters passed to every program.
            strict_bandwidth: raise :class:`BandwidthExceededError` instead
                of merely counting over-budget messages.
            raise_on_limit: raise :class:`SimulationLimitError` when the
                round limit is reached with unhalted programs.
            round_hook: optional per-round observer, called **once per
                executed round** (never per message) after the round's
                deliveries as ``hook(round_index, active_count,
                accounting)`` -- *active_count* is the number of
                programs stepped this round and *accounting* exposes the
                running ``total_messages`` / ``total_bits`` counters, so
                a hook can compute per-round deltas.  ``None`` (the
                default) costs one branch per round; hooks must not
                mutate the network or the accounting.
        """
        accounting = MessageAccounting(
            self.topology, self.bandwidth_bits, strict_bandwidth
        )
        programs = self.make_programs(factory, config)
        rounds_executed, active = self._run_dense_plane(
            programs, accounting, max_rounds, round_hook
        )

        halted = not active
        if not halted and raise_on_limit:
            raise SimulationLimitError(
                f"{len(active)} programs still "
                f"running after {max_rounds} rounds"
            )
        return SimulationResult(
            rounds=rounds_executed,
            outputs={v: p.output for v, p in programs.items()},
            halted=halted,
            total_messages=accounting.total_messages,
            total_bits=accounting.total_bits,
            max_message_bits=accounting.max_message_bits,
            bandwidth_bits=self.bandwidth_bits,
            over_budget_messages=accounting.over_budget,
            programs=programs,
        )

    def _run_dense_plane(self, programs, accounting, max_rounds, round_hook=None):
        """Dense delivery loop: flat edge-slot buffers, CSR row scans.

        Payloads move through a
        :class:`~repro.congest.plane.DenseMessagePlane`; the accounting
        files each outbox into mirror slots and receivers read their own
        contiguous row slice through a
        :class:`~repro.congest.plane.SlotInbox` view.  Round tokens are
        1-based so the fresh stamp buffers read as empty in round 0.
        """
        index = self.topology.index
        active = [
            (index[node], node, program)
            for node, program in programs.items()
            if not program.halted
        ]
        plane = DenseMessagePlane(self.topology)
        rounds_executed = 0

        deliver = accounting.deliver_dense
        inbox_of = plane.inbox_view
        for round_index in range(max_rounds):
            if not active:
                break
            rounds_executed += 1
            token = round_index + 1
            for idx, node, program in active:
                inbox = inbox_of(idx, round_index)
                outbox = program.step(
                    round_index, _EMPTY_INBOX if inbox is None else inbox
                )
                if outbox is None:
                    continue
                if not isinstance(outbox, Mapping):
                    raise ProtocolError(
                        f"node {node!r} returned a non-mapping outbox: {outbox!r}"
                    )
                if outbox:
                    deliver(idx, node, outbox, plane, token)
            plane.swap()
            if round_hook is not None:
                round_hook(round_index, len(active), accounting)
            active = [item for item in active if not item[2].halted]
        return rounds_executed, active
