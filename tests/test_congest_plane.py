"""Differential tests: the dense message plane must not change results.

The hard requirement of the dense-index data plane: routing payloads
through flat CSR edge-slot buffers instead of per-node dict inboxes may
change only wall-clock.  For every bundled program, both instrumentation
profiles, and a seeded sweep of generated graphs, the dense plane must
produce outputs, rounds, halting behavior, message/bit totals, and
(under the faithful profile) per-round stats identical to the seed's
dict plane, which is retained precisely as this suite's reference and
patched in through :func:`_reference_paths.dict_plane`.
"""

from __future__ import annotations

import networkx as nx
import pytest

from _reference_paths import dict_plane
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
    flood_eccentricity,
    run_bipartite_check_simulated,
    run_cycle_check_simulated,
    run_forest_decomposition_simulated,
)
from repro.congest.programs.forest_decomposition import (
    barenboim_elkin_round_budget,
)
from repro.errors import ProtocolError
from repro.graphs import make_planar

SEEDS = (0, 1, 2)
PROFILES = ("faithful", "fast")


def _identical(dict_result, dense_result, faithful=False):
    assert dict_result.outputs == dense_result.outputs
    assert dict_result.rounds == dense_result.rounds
    assert dict_result.halted == dense_result.halted
    assert dict_result.total_messages == dense_result.total_messages
    assert dict_result.total_bits == dense_result.total_bits
    assert dict_result.max_message_bits == dense_result.max_message_bits
    assert dict_result.over_budget_messages == dense_result.over_budget_messages
    if faithful:
        assert dict_result.round_stats == dense_result.round_stats


def _on_both_planes(run):
    """``[run() on the dict plane, run() on the dense plane]``."""
    with dict_plane():
        reference = run()
    return [reference, run()]


def _run_planes(graph, program, max_rounds, config, profile, seed=0):
    return _on_both_planes(
        lambda: CongestNetwork(graph, seed=seed).run(
            program,
            max_rounds=max_rounds,
            config=config,
            strict_bandwidth=True,
            profile=profile,
        )
    )


class TestDifferentialPrograms:
    """Seeded sweep: all bundled programs x both profiles x both planes."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_bfs(self, profile):
        for seed in SEEDS:
            graph = make_planar("delaunay", 80, seed=seed)
            a, b = _run_planes(
                graph, BFSTreeProgram, graph.number_of_nodes() + 2,
                {"root": 0}, profile, seed=seed,
            )
            _identical(a, b, faithful=profile == "faithful")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_flood(self, profile):
        for seed in SEEDS:
            graph = make_planar("grid", 64, seed=seed)
            a, b = _run_planes(
                graph, FloodProgram, graph.number_of_nodes() + 2,
                {"root": 0}, profile, seed=seed,
            )
            _identical(a, b, faithful=profile == "faithful")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_forest_decomposition(self, profile):
        from repro.congest.programs import BarenboimElkinProgram

        for seed in SEEDS:
            graph = make_planar("apollonian", 60, seed=seed)
            budget = barenboim_elkin_round_budget(graph.number_of_nodes())
            a, b = _run_planes(
                graph, BarenboimElkinProgram, budget + 3,
                {"alpha": 3, "budget": budget}, profile, seed=seed,
            )
            _identical(a, b, faithful=profile == "faithful")

    @pytest.mark.parametrize("profile", PROFILES)
    def test_storm(self, profile):
        for seed in SEEDS:
            graph = nx.gnp_random_graph(48, 0.3, seed=seed)
            results = _on_both_planes(
                lambda: CongestNetwork(graph, seed=seed).run(
                    BroadcastStormProgram,
                    max_rounds=8,
                    config={"storm_rounds": 6},
                    profile=profile,
                )
            )
            _identical(*results, faithful=profile == "faithful")

    def test_stage2_verification(self):
        from repro.congest.programs import run_stage2_verification_simulated
        from repro.planarity import check_planarity

        graph = make_planar("delaunay", 60, seed=3)
        rotation = check_planarity(graph).embedding.to_dict()
        for seed in SEEDS:
            a, b = _on_both_planes(
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
        per_plane = _on_both_planes(
            lambda: (
                flood_eccentricity(graph, 0),
                cole_vishkin_coloring(path, parents),
                run_cycle_check_simulated(graph, 0),
                run_bipartite_check_simulated(graph, 0),
                run_forest_decomposition_simulated(graph, alpha=3),
            )
        )
        (f_ecc, f_cv, f_cyc, f_bip, f_fd), (d_ecc, d_cv, d_cyc, d_bip, d_fd) = (
            per_plane
        )
        assert f_ecc == d_ecc
        assert f_cv == d_cv
        assert (f_cyc.accepted, f_cyc.rejecting_nodes) == (
            d_cyc.accepted,
            d_cyc.rejecting_nodes,
        )
        assert (f_bip.accepted, f_bip.rejecting_nodes) == (
            d_bip.accepted,
            d_bip.rejecting_nodes,
        )
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

    def test_dense_fast_profile_validates_every_explicit_target(self):
        class BadSender(NodeProgram):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return {self.ctx.node: "self"}  # not a neighbor
                self.halt()
                return None

        graph = nx.path_graph(3)
        with pytest.raises(ProtocolError, match="non-neighbor"):
            CongestNetwork(graph).run(BadSender, max_rounds=2, profile="fast")

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
