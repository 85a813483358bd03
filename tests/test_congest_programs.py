"""Tests for the distributed node programs (flood, BFS, BE, CV)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.network import CongestNetwork
from repro.congest.programs import (
    FloodProgram,
    bfs_tree,
    cole_vishkin_coloring,
    run_forest_decomposition_simulated,
)
from repro.congest.programs.cole_vishkin import cv_schedule, cv_step_value
from repro.congest.programs.forest_decomposition import (
    barenboim_elkin_round_budget,
)


class TestFlood:
    def test_matches_eccentricity(self, small_grid):
        result = CongestNetwork(small_grid).run(
            FloodProgram,
            max_rounds=small_grid.number_of_nodes() + 2,
            config={"root": 0},
            strict_bandwidth=True,
        )
        distances = nx.single_source_shortest_path_length(small_grid, 0)
        assert result.outputs == distances
        assert result.rounds == nx.eccentricity(small_grid, 0) + 2

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = CongestNetwork(graph).run(
            FloodProgram, max_rounds=3, config={"root": 0}, strict_bandwidth=True
        )
        assert result.outputs == {0: 0}


class TestBFS:
    def test_depths_match_networkx(self, small_tri_grid):
        _parents, depths, _rounds = bfs_tree(small_tri_grid, 0)
        assert depths == nx.single_source_shortest_path_length(small_tri_grid, 0)

    def test_parents_one_level_up(self, small_grid):
        parents, depths, _ = bfs_tree(small_grid, 0)
        for child, parent in parents.items():
            assert depths[child] == depths[parent] + 1
            assert small_grid.has_edge(child, parent)

    def test_parent_is_min_id_neighbor(self, small_grid):
        parents, depths, _ = bfs_tree(small_grid, 0)
        for child, parent in parents.items():
            candidates = [
                w
                for w in small_grid.neighbors(child)
                if depths[w] == depths[child] - 1
            ]
            assert parent == min(candidates)

    def test_rounds_close_to_eccentricity(self, small_grid):
        _p, _d, rounds = bfs_tree(small_grid, 0)
        assert rounds <= nx.eccentricity(small_grid, 0) + 3


class TestBarenboimElkin:
    def test_budget_grows_logarithmically(self):
        assert barenboim_elkin_round_budget(1) == 1
        assert barenboim_elkin_round_budget(2**16) < (
            2 * barenboim_elkin_round_budget(2**8)
        )

    def test_succeeds_on_planar(self, planar_zoo):
        for name, graph in planar_zoo:
            fd = run_forest_decomposition_simulated(graph, alpha=3)
            assert fd.success, name

    def test_orientation_covers_all_edges_once(self, small_tri_grid):
        fd = run_forest_decomposition_simulated(small_tri_grid, alpha=3)
        oriented = {(u, v) for u, outs in fd.out_neighbors.items() for v in outs}
        assert len(oriented) == small_tri_grid.number_of_edges()
        for u, v in small_tri_grid.edges():
            assert ((u, v) in oriented) != ((v, u) in oriented)

    def test_out_degree_bounded(self, small_apollonian):
        fd = run_forest_decomposition_simulated(small_apollonian, alpha=3)
        assert max(len(o) for o in fd.out_neighbors.values()) <= 9

    def test_orientation_acyclic(self, small_apollonian):
        fd = run_forest_decomposition_simulated(small_apollonian, alpha=3)
        dg = nx.DiGraph(
            (u, v) for u, outs in fd.out_neighbors.items() for v in outs
        )
        assert nx.is_directed_acyclic_graph(dg)

    def test_rejects_dense_graph(self):
        fd = run_forest_decomposition_simulated(nx.complete_graph(14), alpha=1)
        assert not fd.success
        assert len(fd.rejecting_nodes) == 14

    def test_k5_passes_alpha3(self, k5):
        # K5 has arboricity exactly 3: the check cannot reject it.
        fd = run_forest_decomposition_simulated(k5, alpha=3)
        assert fd.success


class TestColeVishkin:
    def test_cv_step_differs_from_parent(self):
        for own, parent in [(5, 9), (1, 2), (1023, 511)]:
            a = cv_step_value(own, parent)
            b = cv_step_value(parent, own)
            # values computed from the two endpoints of an edge differ
            assert isinstance(a, int)
            assert a != b or own == parent

    def test_cv_step_requires_difference(self):
        with pytest.raises(ValueError):
            cv_step_value(7, 7)

    def test_schedule_ends_with_eliminations(self):
        schedule = cv_schedule(10**6)
        assert schedule[-6:] == ["shift", "elim5", "shift", "elim4", "shift", "elim3"]

    def test_schedule_length_log_star(self):
        # log*-type growth: huge inputs only need a few more iterations
        small = len(cv_schedule(100))
        huge = len(cv_schedule(2**64))
        assert huge <= small + 3

    def test_path_forest(self):
        graph = nx.path_graph(64)
        parents = {i: i - 1 if i > 0 else None for i in graph.nodes()}
        colors, _ = cole_vishkin_coloring(graph, parents)
        assert set(colors.values()) <= {0, 1, 2}
        assert all(colors[u] != colors[v] for u, v in graph.edges())

    def test_directed_cycle(self):
        graph = nx.cycle_graph(33)
        parents = {i: (i + 1) % 33 for i in graph.nodes()}
        colors, _ = cole_vishkin_coloring(graph, parents)
        assert set(colors.values()) <= {0, 1, 2}
        assert all(colors[u] != colors[v] for u, v in graph.edges())

    def test_star_forest(self):
        graph = nx.star_graph(20)
        parents = {i: 0 for i in range(1, 21)}
        parents[0] = None
        colors, _ = cole_vishkin_coloring(graph, parents)
        assert all(colors[i] != colors[0] for i in range(1, 21))

    def test_missing_parent_edge_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            cole_vishkin_coloring(graph, {0: 2, 1: None, 2: None})

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 40), st.randoms(use_true_random=False))
    def test_random_pseudoforests(self, n, rnd):
        # Build a random functional graph (each node points somewhere else),
        # thin multi-edges by keeping one direction.
        parents = {}
        edges = set()
        for v in range(n):
            if rnd.random() < 0.15:
                parents[v] = None
                continue
            w = rnd.randrange(n - 1)
            w = w if w < v else w + 1
            if (w, v) in edges:  # edge exists in other direction already
                parents[v] = None
                continue
            parents[v] = w
            edges.add((v, w))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        colors, _ = cole_vishkin_coloring(graph, parents)
        assert set(colors.values()) <= {0, 1, 2}
        for v, w in edges:
            assert colors[v] != colors[w]

