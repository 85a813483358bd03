"""Tests for graph utilities: girth, diameter, cycles, edge counts."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.errors import GraphInputError
from repro.graphs import (
    bfs_levels,
    diameter,
    eccentricity,
    find_short_cycle,
    girth,
    require_simple,
)
from repro.graphs.utils import edge_count, has_self_loops, iter_edges


class TestBFSLevels:
    def test_levels(self, small_grid):
        levels = bfs_levels(small_grid.adj, 0)
        assert levels == nx.single_source_shortest_path_length(small_grid, 0)


class TestDiameter:
    def test_path(self):
        assert diameter(nx.path_graph(10)) == 9

    def test_cycle(self):
        assert diameter(nx.cycle_graph(10)) == 5

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        assert diameter(graph) == 0

    def test_grid_matches_networkx(self, small_grid):
        assert diameter(small_grid) == nx.diameter(small_grid)

    def test_double_sweep_on_large(self):
        tree = nx.random_labeled_tree(2000, seed=0)
        # double sweep is exact on trees
        assert diameter(tree, exact_threshold=10) == nx.diameter(tree)

    def test_empty_rejected(self):
        with pytest.raises(GraphInputError):
            diameter(nx.Graph())

    def test_eccentricity(self, small_grid):
        assert eccentricity(small_grid, 0) == nx.eccentricity(small_grid, 0)

    def test_eccentricity_disconnected_rejected(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(GraphInputError):
            eccentricity(graph, 0)


class TestGirth:
    def test_forest_infinite(self):
        assert girth(nx.random_labeled_tree(30, seed=1)) == math.inf

    def test_triangle(self):
        assert girth(nx.complete_graph(4)) == 3

    def test_cycle_graph(self):
        for n in (4, 5, 9):
            assert girth(nx.cycle_graph(n)) == n

    def test_petersen(self):
        assert girth(nx.petersen_graph()) == 5

    def test_grid(self, small_grid):
        assert girth(small_grid) == 4

    def test_early_exit_bound(self):
        # with upper_bound, may stop at any cycle <= bound
        g = girth(nx.complete_graph(6), upper_bound=3)
        assert g == 3


class TestFindShortCycle:
    def test_no_cycle_in_tree(self):
        assert find_short_cycle(nx.random_labeled_tree(20, seed=0), 10) is None

    def test_finds_triangle(self):
        cycle = find_short_cycle(nx.complete_graph(5), 3)
        assert cycle is not None
        assert len(cycle) == 3

    def test_respects_max_length(self):
        assert find_short_cycle(nx.cycle_graph(10), 9) is None
        cycle = find_short_cycle(nx.cycle_graph(10), 10)
        assert cycle is not None and len(cycle) == 10

    def test_returned_cycle_is_real(self, small_tri_grid):
        cycle = find_short_cycle(small_tri_grid, 3)
        assert len(cycle) == 3
        for i in range(3):
            assert small_tri_grid.has_edge(cycle[i], cycle[(i + 1) % 3])

    def test_max_length_below_three(self):
        assert find_short_cycle(nx.complete_graph(4), 2) is None


class TestMisc:

    def test_require_simple(self):
        require_simple(nx.path_graph(3))
        with pytest.raises(GraphInputError):
            require_simple(nx.DiGraph([(0, 1)]))
        loop = nx.Graph()
        loop.add_edge(0, 0)
        with pytest.raises(GraphInputError):
            require_simple(loop)

    def test_require_simple_messages(self):
        with pytest.raises(GraphInputError, match="must be a simple undirected"):
            require_simple(nx.MultiGraph([(0, 1)]), "input")
        loop = nx.path_graph(4)
        loop.add_edge(3, 3)
        with pytest.raises(GraphInputError, match="input must not contain self-loops"):
            require_simple(loop, "input")

    def test_has_self_loops(self):
        graph = nx.path_graph(5)
        assert not has_self_loops(graph)
        assert not has_self_loops(nx.Graph())
        graph.add_edge(2, 2)
        assert has_self_loops(graph)
        assert not has_self_loops(graph.subgraph([0, 1, 3]))
        assert has_self_loops(graph.subgraph([1, 2]))

    def test_self_loop_on_last_node(self):
        graph = nx.path_graph(6)
        graph.add_edge(5, 5)
        for view in (graph, graph.subgraph([0, 4, 5]), graph.subgraph(graph)):
            assert has_self_loops(view)
            with pytest.raises(
                GraphInputError, match="input must not contain self-loops"
            ):
                require_simple(view, "input")
        assert not has_self_loops(graph.subgraph([0, 1, 4]))
        require_simple(graph.subgraph(range(5)), "input")

    def test_edge_count_and_iter_edges_match_networkx(self):
        """Same counts and edge order as ``number_of_edges()`` and
        ``edges()``, self-loops and subgraph views included, with no view
        left cached on the graph."""
        graph = nx.relabel_nodes(nx.petersen_graph(), lambda v: v if v % 3 else f"s{v}")
        graph.add_edge("s0", "s0")
        graph.add_edge(4, 4)
        subgraph = graph.subgraph(["s0", 1, 4, "s6"])
        for view in (graph, subgraph, nx.Graph(), nx.path_graph(3)):
            count, edges = edge_count(view), list(iter_edges(view))
            assert not {"degree", "edges"} & set(vars(view))
            assert count == view.number_of_edges()
            assert edges == list(view.edges())
