"""Tests for Corollary 16 testers and the Corollary 17 spanner."""

from __future__ import annotations

import networkx as nx
import pytest

from _stage1_reference import label_cases, relabeled
from repro.applications import build_spanner, measure_stretch
from repro.graphs import (
    cycle_freeness_farness,
    grid_graph,
    make_planar,
    random_tree,
    triangulated_grid,
)
from repro.testers import test_bipartiteness as run_bipartiteness
from repro.testers import test_cycle_freeness as run_cycle_freeness


class TestCycleFreeness:
    def test_trees_accepted(self):
        for seed in range(3):
            tree = random_tree(150, seed=seed)
            result = run_cycle_freeness(tree, epsilon=0.2)
            assert result.accepted

    def test_triangulated_grid_rejected(self):
        graph = triangulated_grid(12, 12)
        assert cycle_freeness_farness(graph) > 0.5
        result = run_cycle_freeness(graph, epsilon=0.4)
        assert not result.accepted
        assert result.rejecting_parts

    def test_grid_rejected(self):
        # a grid is ~1/2-far from cycle-free
        graph = grid_graph(12, 12)
        result = run_cycle_freeness(graph, epsilon=0.3)
        assert not result.accepted

    def test_single_cycle_close_instance(self):
        # one cycle among many tree edges: 1/m-far only; testers may accept
        graph = nx.cycle_graph(3)
        tree = nx.random_labeled_tree(200, seed=1)
        graph = nx.union(graph, nx.relabel_nodes(tree, {i: i + 10 for i in tree}))
        result = run_cycle_freeness(graph, epsilon=0.5)
        assert result.rounds > 0  # verdict unconstrained; must run cleanly

    def test_randomized_method(self):
        graph = triangulated_grid(10, 10)
        result = run_cycle_freeness(graph, epsilon=0.4, method="randomized", seed=1)
        assert not result.accepted

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError):
            run_cycle_freeness(small_grid, method="quantum")

    def test_invalid_epsilon(self, small_grid):
        with pytest.raises(ValueError):
            run_cycle_freeness(small_grid, epsilon=2.0)

    def test_rounds_structure(self):
        graph = triangulated_grid(8, 8)
        result = run_cycle_freeness(graph, epsilon=0.4)
        assert result.rounds == result.partition_rounds + result.verification_rounds


class TestBipartiteness:
    def test_bipartite_accepted(self):
        for dims in ((10, 11), (8, 15)):
            graph = grid_graph(*dims)
            result = run_bipartiteness(graph, epsilon=0.2)
            assert result.accepted, dims

    def test_trees_accepted(self):
        tree = random_tree(150, seed=2)
        assert run_bipartiteness(tree, epsilon=0.2).accepted

    def test_triangulated_grid_rejected(self):
        graph = triangulated_grid(12, 12)
        result = run_bipartiteness(graph, epsilon=0.2)
        assert not result.accepted

    def test_randomized_method(self):
        graph = triangulated_grid(10, 10)
        result = run_bipartiteness(graph, epsilon=0.2, method="randomized", seed=3)
        assert not result.accepted

    def test_one_sided_on_planar_bipartite(self):
        # deterministic method never errs on promise inputs
        for seed in range(3):
            graph = grid_graph(9, 9)
            assert run_bipartiteness(graph, epsilon=0.1, seed=seed).accepted


class TestPartVerdictsMatchNetworkx:
    """The vectorized per-part BFS check is exact: a part is rejected
    iff networkx finds the part itself is not a forest (cycle-freeness)
    or not bipartite (bipartiteness), on every label type."""

    @pytest.mark.parametrize(
        "family,relabeling",
        label_cases(["tree", "grid", "tri-grid", "delaunay"]),
    )
    @pytest.mark.parametrize(
        "tester,holds",
        [(run_cycle_freeness, nx.is_forest), (run_bipartiteness, nx.is_bipartite)],
        ids=["cycle-free", "bipartite"],
    )
    def test_rejecting_parts_are_violating_parts(
        self, family, relabeling, tester, holds
    ):
        graph = relabeled(make_planar(family, 120, seed=0), relabeling)
        result = tester(graph, epsilon=0.2)
        node_sets = result.partition_result.partition.node_sets()
        violating = {
            pid for pid, nodes in node_sets.items()
            if not holds(graph.subgraph(nodes))
        }
        assert set(result.rejecting_parts) == violating
        assert result.accepted == (not violating)


class TestSpanner:
    def test_size_bound(self):
        for family in ("grid", "delaunay", "apollonian"):
            graph = make_planar(family, 300, seed=1)
            n = graph.number_of_nodes()
            result = build_spanner(graph, epsilon=0.15)
            assert result.size <= (1 + 3 * 0.15) * n, family
            assert result.size >= n - 1

    def test_spans_and_connected(self):
        graph = make_planar("delaunay", 200, seed=2)
        result = build_spanner(graph, epsilon=0.2)
        assert set(result.spanner.nodes()) == set(graph.nodes())
        assert nx.is_connected(result.spanner)

    def test_spanner_is_subgraph(self):
        graph = make_planar("tri-grid", 150, seed=0)
        result = build_spanner(graph, epsilon=0.2)
        for u, v in result.spanner.edges():
            assert graph.has_edge(u, v)

    def test_stretch_within_guarantee(self):
        graph = make_planar("grid", 150, seed=0)
        result = build_spanner(graph, epsilon=0.2)
        stretch = measure_stretch(graph, result.spanner, sample_nodes=150, seed=0)
        assert stretch <= result.guaranteed_stretch

    def test_edge_accounting(self):
        graph = make_planar("delaunay", 150, seed=3)
        result = build_spanner(graph, epsilon=0.2)
        assert result.size <= result.tree_edges + result.connector_edges
        assert result.rounds > 0

    def test_randomized_method(self):
        graph = make_planar("delaunay", 200, seed=4)
        result = build_spanner(graph, epsilon=0.2, method="randomized", seed=5)
        assert nx.is_connected(result.spanner)
        n = graph.number_of_nodes()
        assert result.size <= (1 + 5 * 0.2) * n

    def test_tree_input_returns_tree(self):
        tree = random_tree(100, seed=5)
        result = build_spanner(tree, epsilon=0.2)
        assert result.size == 99
        assert measure_stretch(tree, result.spanner, sample_nodes=100) == 1.0

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError):
            build_spanner(small_grid, method="magic")

    def test_measure_stretch_detects_nonspanning(self):
        from repro.errors import GraphInputError

        graph = nx.path_graph(4)
        broken = nx.Graph()
        broken.add_nodes_from(graph.nodes())
        with pytest.raises(GraphInputError):
            measure_stretch(graph, broken, sample_nodes=4)
