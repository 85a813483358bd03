"""Differential tests: the dense message plane must not change results.

The hard requirement of the dense-index data plane: routing payloads
through flat CSR edge-slot buffers instead of per-node dict inboxes may
change only wall-clock.  For every bundled program and a seeded sweep
of generated graphs, the dense plane must produce outputs, rounds,
halting behavior, message/bit totals and per-round stats identical to
the seed's dict plane, which is retained precisely as this suite's
reference and patched in through :func:`_reference_paths.dict_plane`.

Each program runs two dense legs against it: ``faithful`` (the dense
plane with the seed's accounting and real inbox dicts,
:func:`_reference_paths.faithful_profile`) and ``fast`` (the production
path, whose per-round counts are read through ``round_hook``).
"""

from __future__ import annotations

import networkx as nx
import pytest

from _reference_paths import dict_plane, faithful_profile, inbox_dict
from repro.congest import (
    BROADCAST,
    CongestNetwork,
    DenseMessagePlane,
    NodeProgram,
    SlotInbox,
    compile_topology,
)
from repro.congest.programs import (
    BFSTreeProgram,
    BroadcastStormProgram,
    FloodProgram,
    cole_vishkin_coloring,
    run_forest_decomposition_simulated,
)
from repro.congest.programs.forest_decomposition import (
    barenboim_elkin_round_budget,
)
from repro.errors import ProtocolError
from repro.graphs import make_planar

SEEDS = (0, 1, 2)
LEGS = ("faithful", "fast")

LABELLED_GRAPHS = {
    "int": lambda: nx.relabel_nodes(
        nx.gnp_random_graph(30, 0.3, seed=1), lambda v: 7 * v - 40
    ),
    "str": lambda: nx.relabel_nodes(
        nx.gnp_random_graph(30, 0.3, seed=2), lambda v: f"v{v}"
    ),
    "mixed": lambda: nx.Graph(
        [(0, 5), (0, "a"), (5, "a"), (5, 12), (12, "b"), ("b", (1, 2)), (0, 12)]
    ),
    "tuple": lambda: nx.grid_2d_graph(3, 12),
}


def _identical(dict_result, dense_result):
    assert dict_result.outputs == dense_result.outputs
    assert dict_result.rounds == dense_result.rounds
    assert dict_result.halted == dense_result.halted
    assert dict_result.total_messages == dense_result.total_messages
    assert dict_result.total_bits == dense_result.total_bits
    assert dict_result.max_message_bits == dense_result.max_message_bits
    assert dict_result.over_budget_messages == dense_result.over_budget_messages


def _round_deltas(run):
    """``(result, per-round (messages, bits))`` of ``run(round_hook)``."""
    totals = [(0, 0)]

    def hook(round_index, active, accounting):
        totals.append((accounting.total_messages, accounting.total_bits))

    result = run(hook)
    return result, tuple(
        (m - pm, b - pb) for (pm, pb), (m, b) in zip(totals, totals[1:])
    )


def _on_both_planes(run, leg):
    """Run *run* on the dict plane and on the dense plane's *leg*; assert
    identical results and per-round stats; return both results."""
    with dict_plane() as built:
        reference = run(None)
    expected = built[0].round_stats(reference.rounds)
    if leg == "faithful":
        with faithful_profile() as built:
            result = run(None)
        stats = built[0].round_stats(result.rounds)
    else:
        result, stats = _round_deltas(run)
    _identical(reference, result)
    assert stats == expected
    return reference, result


def _run_planes(graph, program, max_rounds, config, leg, seed=0):
    return _on_both_planes(
        lambda round_hook: CongestNetwork(graph, seed=seed).run(
            program,
            max_rounds=max_rounds,
            config=config,
            strict_bandwidth=True,
            round_hook=round_hook,
        ),
        leg,
    )


def _dict_vs_dense(run):
    """``[run() on the dict plane, run() on the production path]``."""
    with dict_plane():
        reference = run()
    return [reference, run()]


class TestDifferentialPrograms:
    """Seeded sweep: all bundled programs x both dense legs x dict plane."""

    @pytest.mark.parametrize("leg", LEGS)
    def test_bfs(self, leg):
        for seed in SEEDS:
            graph = make_planar("delaunay", 80, seed=seed)
            _run_planes(
                graph, BFSTreeProgram, graph.number_of_nodes() + 2,
                {"root": 0}, leg, seed=seed,
            )

    @pytest.mark.parametrize("leg", LEGS)
    def test_flood(self, leg):
        for seed in SEEDS:
            graph = make_planar("grid", 64, seed=seed)
            _run_planes(
                graph, FloodProgram, graph.number_of_nodes() + 2,
                {"root": 0}, leg, seed=seed,
            )

    @pytest.mark.parametrize("leg", LEGS)
    def test_forest_decomposition(self, leg):
        from repro.congest.programs import BarenboimElkinProgram

        for seed in SEEDS:
            graph = make_planar("apollonian", 60, seed=seed)
            budget = barenboim_elkin_round_budget(graph.number_of_nodes())
            _run_planes(
                graph, BarenboimElkinProgram, budget + 3,
                {"alpha": 3, "budget": budget}, leg, seed=seed,
            )

    @pytest.mark.parametrize("leg", LEGS)
    def test_storm(self, leg):
        for seed in SEEDS:
            graph = nx.gnp_random_graph(48, 0.3, seed=seed)
            _on_both_planes(
                lambda round_hook: CongestNetwork(graph, seed=seed).run(
                    BroadcastStormProgram,
                    max_rounds=8,
                    config={"storm_rounds": 6},
                    round_hook=round_hook,
                ),
                leg,
            )

    def test_stage2_verification(self):
        from repro.congest.programs import run_stage2_verification_simulated
        from repro.planarity import check_planarity

        graph = make_planar("delaunay", 60, seed=3)
        rotation = check_planarity(graph).embedding.to_dict()
        for seed in SEEDS:
            a, b = _dict_vs_dense(
                lambda: run_stage2_verification_simulated(
                    graph, 0, rotation, epsilon=0.2, seed=seed
                )
            )
            assert a.accepted == b.accepted
            assert a.rejecting_nodes == b.rejecting_nodes
            assert a.positions == b.positions
            assert a.rounds == b.rounds

    def test_entry_points_under_dict_plane(self):
        """Program entry points agree with the dict-plane reference."""
        graph = make_planar("tri-grid", 60, seed=0)
        path = nx.path_graph(9)
        parents = {i: i + 1 if i < 8 else None for i in range(9)}
        per_plane = _dict_vs_dense(
            lambda: (
                CongestNetwork(graph).run(
                    FloodProgram,
                    max_rounds=graph.number_of_nodes() + 2,
                    config={"root": 0},
                    strict_bandwidth=True,
                ),
                cole_vishkin_coloring(path, parents),
                run_forest_decomposition_simulated(graph, alpha=3),
            )
        )
        (f_flood, f_cv, f_fd), (d_flood, d_cv, d_fd) = per_plane
        assert (f_flood.outputs, f_flood.rounds) == (d_flood.outputs, d_flood.rounds)
        assert f_cv == d_cv
        assert f_fd.inactive_round == d_fd.inactive_round
        assert f_fd.out_neighbors == d_fd.out_neighbors


class TestDensePlaneMechanics:
    def test_slot_inbox_is_a_mapping(self):
        graph = nx.path_graph(4)
        topology = compile_topology(graph)
        plane = DenseMessagePlane(topology)

        class Announce(NodeProgram):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return {BROADCAST: ("hello", self.ctx.node)}
                self.seen = dict(inbox.items())
                self.length = len(inbox)
                self.halt()
                return None

        network = CongestNetwork(graph)
        result = network.run(Announce, max_rounds=3)
        middle = result.programs[1]
        assert middle.length == 2
        assert middle.seen == {0: ("hello", 0), 2: ("hello", 2)}

    def test_slot_inbox_lookup_and_iteration(self):
        graph = nx.star_graph(4)  # center 0, leaves 1..4
        topology = compile_topology(graph)
        plane = DenseMessagePlane(topology)
        token = 1
        # File a message from leaf 3 to the center by hand.
        slot = topology.plane_arrays().send_slot[3][0]
        plane.next_data[slot] = "payload"
        plane.next_stamp[slot] = token
        plane.next_mark[0] = token
        plane.next_count[0] = 1
        plane.swap()
        inbox = plane.inbox_view(0, token)
        assert isinstance(inbox, SlotInbox)
        assert len(inbox) == 1
        assert inbox[3] == "payload"
        assert 3 in inbox and 1 not in inbox
        assert list(inbox) == [3]
        assert inbox.items() == [(3, "payload")]
        assert inbox.values() == ["payload"]
        with pytest.raises(KeyError):
            inbox[2]

    @pytest.mark.parametrize("labels", sorted(LABELLED_GRAPHS))
    @pytest.mark.parametrize("rows", ("full", "partial"))
    def test_slot_inbox_matches_dict_inbox(self, labels, rows):
        """Every read of a :class:`SlotInbox` agrees with the real inbox
        dict, whatever the labels' Python ordering says."""
        graph = LABELLED_GRAPHS[labels]()
        topology = compile_topology(graph)
        plane = DenseMessagePlane(topology)
        send_slot = topology.plane_arrays().send_slot
        token = 1
        for idx, sender in enumerate(topology.nodes):
            targets = topology.neighbors[sender]
            if rows == "partial":
                targets = targets[idx % 2::2]
            for target in targets:
                slot = send_slot[idx][target]
                receiver = topology.index[target]
                plane.next_data[slot] = (sender, target)
                plane.next_stamp[slot] = token
                if plane.next_mark[receiver] == token:
                    plane.next_count[receiver] += 1
                else:
                    plane.next_mark[receiver] = token
                    plane.next_count[receiver] = 1
        plane.swap()
        missing = object()
        checked = 0
        for idx, node in enumerate(topology.nodes):
            expected = inbox_dict(plane, idx, token)
            inbox = plane.inbox_view(idx, token)
            if expected is None:
                assert inbox is None
                continue
            checked += 1
            assert len(inbox) == len(expected)
            assert list(inbox.keys()) == list(expected.keys())
            assert list(inbox.items()) == list(expected.items())
            assert list(inbox.values()) == list(expected.values())
            for sender in topology.neighbors[node] + (node, "absent"):
                assert (sender in inbox) == (sender in expected)
                assert inbox.get(sender, missing) == expected.get(sender, missing)
                if sender in expected:
                    assert inbox[sender] == expected[sender]
                else:
                    with pytest.raises(KeyError):
                        inbox[sender]
        assert checked

    def test_dense_fast_profile_validates_every_explicit_target(self):
        class BadSender(NodeProgram):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return {self.ctx.node: "self"}  # not a neighbor
                self.halt()
                return None

        graph = nx.path_graph(3)
        with pytest.raises(ProtocolError, match="non-neighbor"):
            CongestNetwork(graph).run(BadSender, max_rounds=2)

    def test_plane_arrays_are_consistent(self):
        graph = make_planar("grid", 36, seed=0)
        topology = compile_topology(graph)
        arrays = topology.plane_arrays()
        indptr, indices = topology.indptr, topology.indices
        for u in range(topology.n):
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                mirror = arrays.mirror[j]
                # The mirror slot lies in v's row and points back at u.
                assert indptr[v] <= mirror < indptr[v + 1]
                assert indices[mirror] == u
                assert arrays.row_owner[mirror] == v
                assert arrays.csr_ids[mirror] == topology.nodes[u]
                assert (
                    arrays.send_slot[u][topology.nodes[v]] == mirror
                )
