"""Tests for the farness certification machinery."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import (
    bipartiteness_farness_bounds,
    cycle_freeness_distance,
    cycle_freeness_farness,
    planarity_farness_lower_bound,
    planarity_skewness_lower_bound,
    triangulated_grid,
)


class TestPlanaritySkewness:
    def test_planar_graph_zero(self, small_grid):
        assert planarity_skewness_lower_bound(small_grid) == 0

    def test_k5_at_least_one(self, k5):
        assert planarity_skewness_lower_bound(k5) >= 1

    def test_k6_at_least_two(self):
        # K6: m=15, 3n-6=12 -> skewness >= 3 by Euler alone
        assert planarity_skewness_lower_bound(nx.complete_graph(6)) >= 3

    def test_girth_refinement_tightens(self):
        # K3,3: m=9, 3n-6=12 (no Euler bound), but girth 4 gives
        # budget 2(n-2)=8 -> skewness >= 1.
        k33 = nx.complete_bipartite_graph(3, 3)
        assert planarity_skewness_lower_bound(k33, use_girth=False) == 0
        assert planarity_skewness_lower_bound(k33, use_girth=True) >= 1

    def test_farness_fraction(self, k5):
        assert planarity_farness_lower_bound(k5) == pytest.approx(1 / 10)

    def test_empty_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        assert planarity_farness_lower_bound(graph) == 0.0

    def test_disconnected_sums_components(self, k5):
        graph = nx.union(k5, nx.relabel_nodes(k5, {i: i + 10 for i in range(5)}))
        assert planarity_skewness_lower_bound(graph) >= 2


class TestCycleFreeness:
    def test_tree_distance_zero(self):
        assert cycle_freeness_distance(nx.random_labeled_tree(20, seed=0)) == 0

    def test_cycle_distance_one(self):
        assert cycle_freeness_distance(nx.cycle_graph(9)) == 1

    def test_triangulated_grid_far(self):
        graph = triangulated_grid(8, 8)
        assert cycle_freeness_farness(graph) > 0.5

    def test_disconnected(self):
        graph = nx.union(
            nx.cycle_graph(3),
            nx.relabel_nodes(nx.cycle_graph(3), {i: i + 5 for i in range(3)}),
        )
        assert cycle_freeness_distance(graph) == 2

    def test_empty(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert cycle_freeness_farness(graph) == 0.0


class TestBipartiteness:
    def test_bipartite_bounds_zero(self, small_grid):
        lower, upper = bipartiteness_farness_bounds(small_grid, seed=0)
        assert lower == 0.0
        assert upper == 0.0

    def test_odd_cycle_bounds(self):
        lower, upper = bipartiteness_farness_bounds(nx.cycle_graph(9), seed=0)
        assert lower == pytest.approx(1 / 9)
        assert upper >= lower

    def test_triangulated_grid_far_from_bipartite(self):
        graph = triangulated_grid(8, 8)
        lower, upper = bipartiteness_farness_bounds(graph, seed=0)
        assert lower > 0.1
        assert upper >= lower

    def test_complete_graph(self):
        lower, upper = bipartiteness_farness_bounds(nx.complete_graph(6), seed=0)
        assert 0 < lower <= upper <= 1
