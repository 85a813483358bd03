"""Tests for the graph generators and far-family certification."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphInputError
from repro.graphs import (
    FAR_FAMILIES,
    PLANAR_FAMILIES,
    delaunay_graph,
    grid_graph,
    make_far,
    make_planar,
    planted_kuratowski,
    random_apollonian,
    random_outerplanar,
    random_planar,
    random_tree,
    triangulated_grid,
)
from repro.planarity import is_planar


class TestPlanarFamilies:
    def test_all_families_planar_and_connected(self):
        for fam in PLANAR_FAMILIES:
            graph = make_planar(fam, 80, seed=1)
            assert nx.is_connected(graph), fam
            assert is_planar(graph), fam
            assert min(graph.nodes()) == 0, fam

    def test_unknown_family(self):
        with pytest.raises(GraphInputError):
            make_planar("nope", 10)

    def test_apollonian_is_maximal_planar(self):
        graph = random_apollonian(30, seed=2)
        n, m = graph.number_of_nodes(), graph.number_of_edges()
        assert m == 3 * n - 6

    def test_apollonian_determinism(self):
        assert nx.utils.graphs_equal(
            random_apollonian(25, seed=9), random_apollonian(25, seed=9)
        )

    def test_apollonian_small_n_rejected(self):
        with pytest.raises(GraphInputError):
            random_apollonian(2)

    def test_random_planar_edge_target(self):
        graph = random_planar(50, m=80, seed=0)
        assert graph.number_of_edges() == 80
        assert nx.is_connected(graph)
        assert is_planar(graph)

    def test_random_planar_bad_target(self):
        with pytest.raises(GraphInputError):
            random_planar(50, m=30)  # below n - 1
        with pytest.raises(GraphInputError):
            random_planar(50, m=500)  # above 3n - 6

    def test_triangulated_grid_edge_count(self):
        graph = triangulated_grid(4, 5)
        base = nx.grid_2d_graph(4, 5).number_of_edges()
        assert graph.number_of_edges() == base + 3 * 4

    def test_grid_validation(self):
        with pytest.raises(GraphInputError):
            grid_graph(0, 5)
        with pytest.raises(GraphInputError):
            triangulated_grid(1, 5)

    def test_delaunay_planar(self):
        graph = delaunay_graph(60, seed=4)
        assert is_planar(graph)
        assert nx.is_connected(graph)

    def test_outerplanar_is_outerplanar(self):
        # Outerplanar iff the graph plus a universal vertex is planar.
        graph = random_outerplanar(30, seed=5)
        assert is_planar(graph)
        augmented = nx.Graph(graph)
        hub = 1000
        augmented.add_edges_from((hub, v) for v in graph.nodes())
        assert is_planar(augmented)

    def test_outerplanar_maximal_edge_count(self):
        graph = random_outerplanar(30, seed=5, maximal=True)
        assert graph.number_of_edges() == 2 * 30 - 3

    def test_tree_sizes(self):
        for n in (1, 2, 3, 40):
            tree = random_tree(n, seed=0)
            assert tree.number_of_nodes() == n
            assert tree.number_of_edges() == max(0, n - 1)
            assert nx.is_forest(tree)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(10, 120), seed=st.integers(0, 100))
    def test_apollonian_always_planar(self, n, seed):
        assert is_planar(random_apollonian(n, seed=seed))


class TestFarFamilies:
    def test_all_families_certified(self):
        for fam in FAR_FAMILIES:
            graph, farness = make_far(fam, 120, seed=2)
            assert nx.is_connected(graph), fam
            assert farness > 0, fam
            assert not is_planar(graph), fam

    def test_unknown_family(self):
        with pytest.raises(GraphInputError):
            make_far("nope", 100)

    def test_planted_k5_contains_cliques(self):
        graph, farness = planted_kuratowski(100, count=3, minor="k5", seed=1)
        assert farness >= 3 / graph.number_of_edges()

    def test_planted_k33_certificate(self):
        graph, farness = planted_kuratowski(100, count=2, minor="k33", seed=1)
        assert farness >= 2 / graph.number_of_edges()

    def test_planted_invalid_minor(self):
        with pytest.raises(GraphInputError):
            planted_kuratowski(100, minor="k7")

    def test_planted_too_many(self):
        with pytest.raises(GraphInputError):
            planted_kuratowski(20, count=10, minor="k5")

    def test_certificates_below_true_farness(self, far_zoo):
        # the certificate is a *lower* bound: the graph really needs at
        # least certificate * m removals; sanity-check against the
        # constructive upper bound.
        for name, graph, certified in far_zoo:
            assert certified <= greedy_farness_upper_bound(graph) + 1e-9, name


def greedy_farness_upper_bound(graph, seed=0):
    """Farness-from-planarity upper bound: the share of edges that a
    maximal planar subgraph, grown greedily in seeded random edge order,
    leaves out (one LR run per offered edge, so small graphs only)."""
    edges = list(graph.edges())
    random.Random(seed).shuffle(edges)
    sub = nx.Graph()
    sub.add_nodes_from(graph)
    for u, v in edges:
        sub.add_edge(u, v)
        if not is_planar(sub):
            sub.remove_edge(u, v)
    return 1 - sub.number_of_edges() / len(edges)
