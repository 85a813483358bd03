"""Tests for the genuinely distributed Stage II verification protocol.

The strongest cross-layer validation in the suite: the message-passing
protocol must assign exactly the same Euler-tour corner positions as the
emulated walk, accept every planar part, and reject non-planar parts via
sampled interlacements -- all within the CONGEST bandwidth budget.
"""

from __future__ import annotations

import networkx as nx
import pytest

from _reference_paths import labels_by_id
from repro.congest.programs import run_stage2_verification_simulated
from repro.graphs import make_far, make_planar
from repro.planarity import check_planarity, identity_rotation


def run_distributed(graph, rotation, epsilon=0.2, seed=0):
    return run_stage2_verification_simulated(
        graph, 0, rotation.to_dict(), epsilon=epsilon, seed=seed
    )


class TestPositionsMatchEmulated:
    @pytest.mark.parametrize(
        "family", ["grid", "tri-grid", "apollonian", "delaunay", "outerplanar"]
    )
    def test_positions_identical(self, family):
        graph = make_planar(family, 90, seed=2)
        emb = check_planarity(graph).embedding
        result = run_distributed(graph, emb)
        assert result.positions == labels_by_id(graph, 0, emb).positions

    def test_positions_with_fallback_rotation(self, k33):
        rot = identity_rotation(k33)
        result = run_distributed(k33, rot, seed=1)
        assert result.positions == labels_by_id(k33, 0, rot).positions

    def test_tree_part_has_no_positions(self):
        tree = nx.random_labeled_tree(40, seed=1)
        emb = check_planarity(tree).embedding
        result = run_distributed(tree, emb)
        assert result.positions == {}
        assert result.accepted


class TestVerdicts:
    def test_planar_parts_always_accept(self):
        for family in ("grid", "delaunay", "apollonian"):
            for seed in range(3):
                graph = make_planar(family, 80, seed=seed)
                emb = check_planarity(graph).embedding
                result = run_distributed(graph, emb, seed=seed)
                assert result.accepted, (family, seed)

    def test_k33_rejected(self, k33):
        rot = identity_rotation(k33)
        rejections = sum(
            not run_distributed(k33, rot, epsilon=0.3, seed=s).accepted
            for s in range(5)
        )
        assert rejections == 5

    def test_far_part_rejected(self):
        graph, certified = make_far("planted-k5", 100, seed=1)
        rot = identity_rotation(graph)
        result = run_distributed(graph, rot, epsilon=certified * 0.9, seed=0)
        assert not result.accepted
        assert result.rejecting_nodes

    def test_rejection_witness_is_real_interlacement(self, k33):
        rot = identity_rotation(k33)
        result = run_distributed(k33, rot, epsilon=0.3, seed=2)
        assert not result.accepted
        # verdict tuples carry the interlacing interval pair
        assert result.rejecting_nodes


class TestProtocolShape:
    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = run_stage2_verification_simulated(graph, 0, {0: []})
        assert result.accepted
        assert result.positions == {}

    def test_two_nodes(self):
        graph = nx.path_graph(2)
        emb = check_planarity(graph).embedding
        result = run_distributed(graph, emb)
        assert result.accepted

    def test_rounds_reported(self):
        graph = make_planar("grid", 60, seed=0)
        emb = check_planarity(graph).embedding
        result = run_distributed(graph, emb)
        assert result.rounds == result.bfs_rounds + result.verification_rounds
        assert result.verification_rounds > 0

    def test_rounds_scale_with_samples_and_depth(self):
        # deeper parts and more samples -> more pipelined rounds
        small_eps = run_distributed(
            make_planar("grid", 100, seed=0),
            check_planarity(make_planar("grid", 100, seed=0)).embedding,
            epsilon=0.05,
        )
        large_eps = run_distributed(
            make_planar("grid", 100, seed=0),
            check_planarity(make_planar("grid", 100, seed=0)).embedding,
            epsilon=0.5,
        )
        assert small_eps.sample_size > large_eps.sample_size
        assert small_eps.verification_rounds >= large_eps.verification_rounds

    def test_bandwidth_respected(self):
        # strict_bandwidth=True inside the runner: reaching here without
        # BandwidthExceededError is the assertion; double-check verdicts.
        graph = make_planar("delaunay", 120, seed=3)
        emb = check_planarity(graph).embedding
        assert run_distributed(graph, emb).accepted

    def test_one_sided_never_false_alarms_bulk(self):
        alarms = 0
        for seed in range(8):
            graph = make_planar("outerplanar", 60, seed=seed)
            emb = check_planarity(graph).embedding
            alarms += not run_distributed(graph, emb, seed=seed).accepted
        assert alarms == 0
