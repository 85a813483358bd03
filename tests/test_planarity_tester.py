"""End-to-end tests for the Theorem 1 planarity tester."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import make_far, make_planar
from repro.testers import PlanarityTestConfig
from repro.testers import test_planarity as run_planarity
from repro.testers.stage2 import sample_size, Stage2Config


class TestOneSidedError:
    """Planar graphs must be accepted with probability 1 (Claim 3 + the
    corner-criterion Claim 10)."""

    @pytest.mark.parametrize(
        "family", ["grid", "tri-grid", "apollonian", "delaunay", "outerplanar", "tree"]
    )
    def test_planar_always_accepted(self, family):
        for seed in range(4):
            graph = make_planar(family, 150, seed=seed)
            result = run_planarity(graph, epsilon=0.15, seed=seed)
            assert result.accepted, (family, seed, result.rejected_stage)
            assert result.rejected_stage is None
            assert not result.rejecting_parts

    def test_planar_accepted_across_epsilons(self):
        graph = make_planar("delaunay", 200, seed=1)
        for eps in (0.5, 0.2, 0.08):
            assert run_planarity(graph, epsilon=eps, seed=0).accepted

    def test_small_planar_graphs(self):
        for builder in (
            lambda: nx.path_graph(2),
            lambda: nx.cycle_graph(3),
            nx.dodecahedral_graph,
            lambda: nx.wheel_graph(10),
        ):
            graph = nx.convert_node_labels_to_integers(builder())
            assert run_planarity(graph, epsilon=0.3, seed=0).accepted

    def test_disconnected_planar(self):
        graph = nx.union(
            nx.cycle_graph(10),
            nx.relabel_nodes(nx.cycle_graph(10), {i: i + 20 for i in range(10)}),
        )
        assert run_planarity(graph, epsilon=0.3, seed=0).accepted


class TestDetection:
    def test_far_families_rejected(self, far_zoo):
        for name, graph, certified in far_zoo:
            eps = min(0.3, max(0.05, certified * 0.9))
            rejected = sum(
                not run_planarity(graph, epsilon=eps, seed=seed).accepted
                for seed in range(5)
            )
            assert rejected == 5, (name, rejected)

    def test_stage1_rejection_reports_evidence(self):
        graph, _ = make_far("gnp", 150, seed=1)
        result = run_planarity(graph, epsilon=0.2, seed=0)
        assert not result.accepted
        assert result.rejected_stage == "stage1"
        assert result.rejecting_parts

    def test_stage2_rejection_on_planted_minors(self):
        graph, certified = make_far("planted-k5", 200, seed=2)
        result = run_planarity(graph, epsilon=min(0.2, certified), seed=0)
        assert not result.accepted
        assert result.rejected_stage == "stage2"
        reasons = {v.reason for v in result.part_verdicts if not v.accepted}
        assert reasons <= {"violation", "density"}

    def test_k5_rejected_via_density_or_violation(self, k5):
        # K5 passes Stage I (arboricity 3); a single part of 5 nodes with
        # 10 > 3*5-6 = 9 edges fails the density check.
        result = run_planarity(k5, epsilon=0.3, seed=0)
        assert not result.accepted
        assert result.rejected_stage == "stage2"

    def test_nonplanar_but_not_far_may_accept(self):
        # one planted K5 in a large planar graph: distance ~1 edge; the
        # tester is allowed to accept -- just verify it does not crash and
        # reports coherent structure.
        graph, _ = make_far("planted-k5", 400, seed=3)
        result = run_planarity(graph, epsilon=0.5, seed=0)
        assert result.rounds > 0
        assert result.stage1.partition.size >= 1


class TestConfiguration:
    def test_exact_violation_analysis(self):
        graph, certified = make_far("planted-k5", 150, seed=4)
        config = PlanarityTestConfig(epsilon=0.1, collect_exact_violations=True)
        result = run_planarity(graph, seed=0, config=config)
        reasons = {v.reason for v in result.part_verdicts if not v.accepted}
        if "violation" in reasons:
            assert result.total_violating_exact is not None
            assert result.total_violating_exact > 0
        # parts that were analyzed carry a non-negative count
        for verdict in result.part_verdicts:
            if verdict.violating_exact is not None:
                assert verdict.violating_exact >= 0

    def test_reject_on_embedding_failure_mode(self, k33):
        config = PlanarityTestConfig(epsilon=0.3, reject_on_embedding_failure=True)
        result = run_planarity(k33, seed=0, config=config)
        assert not result.accepted

    def test_rounds_split(self):
        graph = make_planar("grid", 150, seed=0)
        result = run_planarity(graph, epsilon=0.2, seed=0)
        assert result.rounds == result.stage1_rounds + result.stage2_rounds
        assert result.stage1_rounds > 0
        assert result.stage2_rounds > 0

    def test_seed_determinism(self):
        graph, _ = make_far("planted-k33", 150, seed=6)
        r1 = run_planarity(graph, epsilon=0.1, seed=7)
        r2 = run_planarity(graph, epsilon=0.1, seed=7)
        assert r1.accepted == r2.accepted
        assert r1.rounds == r2.rounds

    def test_empty_graph_rejected_input(self):
        with pytest.raises(ValueError):
            run_planarity(nx.Graph())

    def test_multigraph_rejected_input(self):
        from repro.errors import GraphInputError

        with pytest.raises(GraphInputError):
            run_planarity(nx.MultiGraph([(0, 1), (0, 1)]))

    def test_sample_size_scales(self):
        config = Stage2Config(epsilon=0.1)
        assert sample_size(1 << 20, config) > sample_size(1 << 8, config)
        tighter = Stage2Config(epsilon=0.01)
        assert sample_size(1000, tighter) > sample_size(1000, config)


class TestRoundComplexity:
    def test_rounds_grow_mildly_in_n(self):
        """O(log n) growth: doubling n should not double rounds."""
        rounds = []
        for n in (128, 256, 512):
            graph = make_planar("grid", n, seed=0)
            result = run_planarity(graph, epsilon=0.3, seed=0)
            assert result.accepted
            rounds.append(result.rounds)
        assert rounds[2] < 2.0 * rounds[0]

    def test_stage2_parallel_cost_is_max(self):
        graph = make_planar("delaunay", 200, seed=2)
        result = run_planarity(graph, epsilon=0.2, seed=0)
        assert result.stage2_rounds == max(v.rounds for v in result.part_verdicts)
