"""Tests for Corollary 16 testers and the Corollary 17 spanner."""

from __future__ import annotations

import networkx as nx
import pytest

from _stage1_reference import label_cases, node_sets, relabeled
from repro.applications import build_spanner, measure_stretch
from repro.graphs import (
    FAR_FAMILIES,
    cycle_freeness_farness,
    grid_graph,
    make_far,
    make_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)
from repro.testers import test_bipartiteness as run_bipartiteness
from repro.testers import test_cycle_freeness as run_cycle_freeness
from repro.testers import test_hereditary_property as run_hereditary


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


def is_outerplanar(graph):
    """Outerplanar iff planar with one universal apex node added."""
    apex = object()
    augmented = nx.Graph(graph)
    augmented.add_edges_from([(apex, v) for v in graph])
    return nx.check_planarity(augmented)[0]


NETWORKX_CHECKS = {
    "cycle-free": nx.is_forest,
    "bipartite": nx.is_bipartite,
    "planar": lambda graph: nx.check_planarity(graph)[0],
    "outerplanar": is_outerplanar,
}


class TestPartVerdictsMatchNetworkx:
    """The per-part checks are exact: a part is rejected iff networkx
    finds the part itself is not a forest, not bipartite, not planar or
    not outerplanar, on every label type and both partition methods."""

    @pytest.mark.parametrize(
        "family,relabeling",
        label_cases(["tree", "grid", "tri-grid", "delaunay", "planted-k5"]),
    )
    @pytest.mark.parametrize("method", ["deterministic", "randomized"])
    @pytest.mark.parametrize("prop", sorted(NETWORKX_CHECKS))
    def test_rejecting_parts_are_violating_parts(
        self, family, relabeling, method, prop
    ):
        if family in FAR_FAMILIES:
            graph, _farness = make_far(family, 120, seed=0)
        else:
            graph = make_planar(family, 120, seed=0)
        graph = relabeled(graph, relabeling)
        result = run_hereditary(graph, prop, epsilon=0.2, method=method, seed=0)
        holds = NETWORKX_CHECKS[prop]
        violating = {
            pid
            for pid, nodes in node_sets(result.partition_result.partition).items()
            if not holds(graph.subgraph(nodes))
        }
        assert set(result.rejecting_parts) == violating
        assert result.accepted == (not violating)
        assert result.property_name == prop


class TestHereditaryProperty:
    @pytest.mark.parametrize(
        "graph,prop,holds",
        [
            (random_tree(30, seed=0), "cycle-free", True),
            (nx.cycle_graph(6), "cycle-free", False),
            (nx.cycle_graph(6), "bipartite", True),
            (nx.cycle_graph(5), "bipartite", False),
            (nx.wheel_graph(8), "planar", True),
            (nx.complete_graph(5), "planar", False),
            (random_outerplanar(30, seed=1), "outerplanar", True),
            (nx.complete_graph(4), "outerplanar", False),  # planar, not outer
        ],
        ids=[
            "tree", "C6-cycle", "C6-bipartite", "C5", "wheel", "K5",
            "outerplanar", "K4",
        ],
    )
    def test_one_part_graphs(self, graph, prop, holds):
        """A cut target below one edge keeps a small connected graph in
        one part, so the verdict is the property itself."""
        result = run_hereditary(graph, prop, epsilon=0.01)
        assert result.partition_result.partition.size == 1
        assert result.accepted == holds
        assert len(result.rejecting_parts) == (0 if holds else 1)

    def test_outerplanar_accepted(self):
        graph = random_outerplanar(200, seed=1)
        for method in ("deterministic", "randomized"):
            result = run_hereditary(
                graph, "outerplanar", epsilon=0.3, method=method, seed=1
            )
            assert result.accepted, method

    def test_tri_grid_planar_not_outerplanar(self):
        graph = triangulated_grid(12, 12)
        assert run_hereditary(graph, "planar", epsilon=0.3).accepted
        result = run_hereditary(graph, "outerplanar", epsilon=0.3)
        assert not result.accepted
        assert result.rejecting_parts

    def test_rounds_accounting(self):
        """The LR properties charge each part's BFS depth + 2 plus its
        size; the BFS properties the depth + 2 alone."""
        graph = make_planar("delaunay", 150, seed=3)
        planar = run_hereditary(graph, "planar", epsilon=0.3)
        bipartite = run_hereditary(graph, "bipartite", epsilon=0.3)
        assert planar.rounds == planar.partition_rounds + planar.verification_rounds
        assert planar.verification_rounds > bipartite.verification_rounds > 0

    def test_unknown_property(self, small_grid):
        with pytest.raises(ValueError, match="unknown property"):
            run_hereditary(small_grid, "chromatic")

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError):
            run_hereditary(small_grid, "planar", method="psychic")

    def test_invalid_epsilon(self, small_grid):
        with pytest.raises(ValueError):
            run_hereditary(small_grid, "planar", epsilon=0)


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
