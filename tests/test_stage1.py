"""Tests for Stage I (deterministic partition) and the Theorem 4 variant."""

from __future__ import annotations

from unittest import mock

import networkx as nx
import numpy as np
import pytest

from _stage1_reference import node_sets, to_partition
from repro.errors import PartitionError
from repro.graphs import make_far, make_planar
from repro.partition import (
    MarkingResult,
    partition_randomized,
    partition_stage1,
    theoretical_phase_cap,
)
from repro.partition.weighted_selection import partition_by_method


class TestStage1OnPlanar:
    def test_target_reached(self, planar_zoo):
        for name, graph in planar_zoo:
            result = partition_stage1(graph, epsilon=0.25)
            assert result.success, name
            assert result.partition.cut_size() <= result.target_cut, name

    def test_partition_valid(self, planar_zoo):
        for name, graph in planar_zoo:
            result = partition_stage1(graph, epsilon=0.25)
            to_partition(result.partition, graph).validate()

    def test_never_rejects_planar(self, planar_zoo):
        for name, graph in planar_zoo:
            for eps in (0.5, 0.2):
                result = partition_stage1(graph, epsilon=eps)
                assert result.success, (name, eps)

    def test_claim4_height_bound(self, planar_zoo):
        """Claim 4: part diameter (hence tree height) <= 4^i after phase i."""
        for name, graph in planar_zoo:
            result = partition_stage1(graph, epsilon=0.2)
            for stats in result.phases:
                assert stats.max_height_after <= 4**stats.phase, (name, stats)

    def test_claim1_decay_bound(self, planar_zoo):
        """Per-phase decay at most 1 - 1/(36 alpha) (conservative bound)."""
        for name, graph in planar_zoo:
            result = partition_stage1(graph, epsilon=0.2)
            for stats in result.phases:
                assert stats.decay <= 1 - 1 / (36 * 3) + 1e-9, (name, stats.phase)

    def test_deterministic(self):
        graph = make_planar("delaunay", 200, seed=4)
        r1 = partition_stage1(graph, epsilon=0.2)
        r2 = partition_stage1(graph, epsilon=0.2)
        assert node_sets(r1.partition) == node_sets(r2.partition)
        assert r1.rounds == r2.rounds

    def test_rounds_positive_and_ledgered(self, small_grid):
        result = partition_stage1(small_grid, epsilon=0.3)
        assert result.rounds == result.ledger.total > 0
        assert any(c.startswith("stage1.") for c in result.ledger.by_category())

    def test_smaller_epsilon_needs_more_phases(self):
        graph = make_planar("delaunay", 300, seed=5)
        loose = partition_stage1(graph, epsilon=0.5)
        tight = partition_stage1(graph, epsilon=0.05)
        assert len(tight.phases) >= len(loose.phases)
        assert tight.partition.size <= loose.partition.size

    def test_target_cut_override(self, small_grid):
        n = small_grid.number_of_nodes()
        result = partition_stage1(small_grid, epsilon=0.3, target_cut=0.3 * n)
        assert result.partition.cut_size() <= 0.3 * n

    def test_invalid_epsilon(self, small_grid):
        with pytest.raises(ValueError):
            partition_stage1(small_grid, epsilon=0)
        with pytest.raises(ValueError):
            partition_stage1(small_grid, epsilon=1.5)

    def test_single_node_graph(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = partition_stage1(graph, epsilon=0.5)
        assert result.success
        assert result.partition.size == 1

    def test_disconnected_graph(self):
        graph = nx.union(
            nx.cycle_graph(8),
            nx.relabel_nodes(nx.cycle_graph(8), {i: i + 10 for i in range(8)}),
        )
        result = partition_stage1(graph, epsilon=0.5)
        assert result.success
        to_partition(result.partition, graph).validate()
        # parts never span components
        for nodes in node_sets(result.partition).values():
            assert len({v // 10 for v in nodes}) == 1


class TestStage1OnFar:
    def test_far_either_rejects_or_meets_target(self, far_zoo):
        for name, graph, _f in far_zoo:
            result = partition_stage1(graph, epsilon=0.2)
            if result.success:
                assert result.partition.cut_size() <= result.target_cut, name
            else:
                assert result.rejecting_parts, name

    def test_dense_gnp_rejected(self):
        graph, _ = make_far("gnp", 200, seed=0)
        result = partition_stage1(graph, epsilon=0.2)
        assert not result.success

    def test_k5_not_rejected(self, k5):
        # arboricity(K5) = 3: Stage I cannot obtain evidence
        result = partition_stage1(k5, epsilon=0.5)
        assert result.success


class TestPhaseCap:
    def test_cap_zero_when_target_met(self):
        assert theoretical_phase_cap(10, 10, 3) == 0
        assert theoretical_phase_cap(0, 1, 3) == 0

    def test_cap_grows_with_smaller_target(self):
        assert theoretical_phase_cap(1000, 10, 3) > theoretical_phase_cap(1000, 100, 3)

    def test_cap_sufficient(self):
        m, target, alpha = 1000, 50, 3
        cap = theoretical_phase_cap(m, target, alpha)
        assert m * (1 - 1 / (36 * alpha)) ** cap <= target + 1e-6


class TestRandomizedPartition:
    def test_meets_target_typically(self):
        graph = make_planar("delaunay", 300, seed=8)
        hits = 0
        for seed in range(5):
            result = partition_randomized(graph, epsilon=0.2, delta=0.1, seed=seed)
            to_partition(result.partition, graph).validate()
            if result.met_target:
                hits += 1
        assert hits >= 4  # delta = 0.1: expect ~all to succeed

    def test_rounds_do_not_scale_with_log_n(self):
        # the randomized variant charges no O(log n) forest-decomposition
        # budget: its ledger has no such category
        graph = make_planar("grid", 200, seed=0)
        result = partition_randomized(graph, epsilon=0.3, seed=1)
        assert "stage1.forest_decomposition" not in result.ledger.by_category()
        assert "randomized.selection" in result.ledger.by_category()

    def test_trials_scale_with_delta(self):
        graph = make_planar("grid", 100, seed=0)
        loose = partition_randomized(graph, epsilon=0.3, delta=0.5, seed=1)
        tight = partition_randomized(graph, epsilon=0.3, delta=0.001, seed=1)
        assert tight.trials > loose.trials

    def test_invalid_parameters(self, small_grid):
        with pytest.raises(ValueError):
            partition_randomized(small_grid, epsilon=0)
        with pytest.raises(ValueError):
            partition_randomized(small_grid, epsilon=0.2, delta=0)
        with pytest.raises(ValueError):
            partition_randomized(small_grid, epsilon=0.2, delta=1)

    def test_seed_determinism(self):
        graph = make_planar("delaunay", 150, seed=2)
        a = partition_randomized(graph, epsilon=0.2, seed=42)
        b = partition_randomized(graph, epsilon=0.2, seed=42)
        assert node_sets(a.partition) == node_sets(b.partition)

    def test_claim14_decay(self):
        """Claim 14 decay bound 1 - 1/(64 alpha), with delta slack."""
        graph = make_planar("apollonian", 250, seed=3)
        result = partition_randomized(graph, epsilon=0.1, delta=0.05, seed=0)
        bad_phases = sum(
            1 for st in result.phases if st.decay > 1 - 1 / (64 * 3) + 1e-9
        )
        # allow at most one unlucky phase at this confidence
        assert bad_phases <= 1


def _contract_nothing(parent, weight, colors):
    nothing = np.zeros(0, dtype=np.int64)
    return MarkingResult([], nothing, nothing, {}, 0, 0)


class TestNoProgressGuard:
    """A phase that contracts nothing: Stage I raises, while Theorem 4
    retries it (Remark 1's abstentions can empty a phase)."""

    @pytest.fixture(autouse=True)
    def stalled(self):
        with mock.patch(
            "repro.partition.dense.mark_and_choose_dense", _contract_nothing
        ):
            yield

    def test_stage1_raises(self):
        with pytest.raises(PartitionError, match="made no progress"):
            partition_stage1(make_planar("grid", 36, seed=0), epsilon=0.2)

    def test_randomized_runs_to_cap(self):
        graph = make_planar("grid", 36, seed=0)
        result = partition_randomized(graph, epsilon=0.2, seed=0, coloring="randomized")
        assert len(result.phases) == result.theoretical_phase_cap > 0
        assert result.final_cut == graph.number_of_edges()
        assert not result.met_target


class TestMethodSwitch:
    def test_methods(self, small_grid):
        target = 0.2 * small_grid.number_of_nodes()
        det = partition_by_method(small_grid, 0.2, target_cut=target)
        expected = partition_stage1(small_grid, 0.2, target_cut=target)
        assert det.phases == expected.phases
        rand = partition_by_method(
            small_grid, 0.2, method="randomized", target_cut=target, seed=3
        )
        assert rand.phases == partition_randomized(small_grid, 0.2, seed=3).phases

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError, match="unknown method"):
            partition_by_method(small_grid, 0.2, method="greedy")
