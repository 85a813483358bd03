"""Tests for the Theorem 2 lower-bound construction."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.errors import GraphInputError
from repro.graphs import (
    all_views_are_trees,
    girth,
    lower_bound_instance,
    view_is_tree,
)


class TestConstruction:
    def test_girth_at_least_target(self):
        inst = lower_bound_instance(300, seed=1)
        assert inst.girth >= inst.target_girth

    def test_far_from_planar(self):
        inst = lower_bound_instance(400, average_degree=8, seed=2)
        assert inst.farness_lower_bound > 0.3

    def test_custom_target_girth(self):
        inst = lower_bound_instance(200, target_girth=6, seed=3)
        assert inst.girth >= 6

    def test_surgery_counted(self):
        inst = lower_bound_instance(300, seed=4)
        assert inst.removed_edges > 0

    def test_small_n_rejected(self):
        with pytest.raises(GraphInputError):
            lower_bound_instance(4)

    def test_default_target_logarithmic(self):
        inst_small = lower_bound_instance(64, seed=0)
        inst_large = lower_bound_instance(1024, seed=0)
        assert inst_large.target_girth >= inst_small.target_girth

    def test_deterministic_given_seed(self):
        a = lower_bound_instance(200, seed=9)
        b = lower_bound_instance(200, seed=9)
        assert nx.utils.graphs_equal(a.graph, b.graph)


class TestIndistinguishability:
    def test_views_are_trees_within_radius(self):
        inst = lower_bound_instance(300, seed=5)
        radius = inst.indistinguishability_radius
        assert all_views_are_trees(inst.graph, radius)

    def test_radius_matches_girth(self):
        inst = lower_bound_instance(300, seed=6)
        if inst.girth != math.inf:
            g = int(inst.girth)
            assert inst.indistinguishability_radius == (g - 2) // 2
            # at radius floor(g/2), nodes on a shortest cycle see it whole
            assert not all_views_are_trees(inst.graph, g // 2)

    def test_radius_tight_for_odd_girth(self):
        # a single 5-cycle: radius 1 views are paths, radius 2 sees the cycle
        import networkx as nx
        from repro.graphs import view_is_tree

        cycle = nx.cycle_graph(5)
        assert all(view_is_tree(cycle, v, 1) for v in cycle)
        assert not view_is_tree(cycle, 0, 2)

    def test_view_is_tree_on_cycle(self):
        cycle = nx.cycle_graph(10)
        assert view_is_tree(cycle, 0, 3)  # ball of radius 3 is a path
        assert not view_is_tree(cycle, 0, 5)  # whole cycle visible

    def test_view_is_tree_consistent_with_girth(self):
        inst = lower_bound_instance(200, average_degree=6, seed=7)
        g = girth(inst.graph)
        if g != math.inf:
            r = int(math.ceil(g / 2)) - 1
            assert all(view_is_tree(inst.graph, v, r) for v in list(inst.graph)[:20])


def reference_girth_surgery(graph, target_girth, rng):
    """The original surgery: rescan from the first node after every cut."""
    from repro.graphs.utils import find_short_cycle

    removed = 0
    while True:
        cycle = find_short_cycle(graph, target_girth - 1)
        if cycle is None:
            return removed
        index = rng.randrange(len(cycle))
        graph.remove_edge(cycle[index], cycle[(index + 1) % len(cycle)])
        removed += 1


def reference_view_is_tree(graph, node, radius):
    """The original view check: one networkx subgraph per ball."""
    from repro.graphs.utils import bfs_levels

    depths = bfs_levels(graph.adj, node)
    sub = graph.subgraph(v for v, d in depths.items() if d <= radius)
    return sub.number_of_edges() == (
        sub.number_of_nodes() - nx.number_connected_components(sub)
    )


class TestAgainstReference:
    """The resumed surgery and the adjacency view check are pinned to the
    routines they replaced."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_surgery_removes_the_same_edges(self, n):
        import random

        from repro.graphs.lower_bound import _girth_surgery

        target = max(4, int(math.log2(n) / 2))
        for seed in (0, 1, 2):
            graphs, counts = [], []
            for surgery in (_girth_surgery, reference_girth_surgery):
                rng = random.Random(seed)
                graph = nx.gnp_random_graph(n, 8.0 / n, seed=rng.randrange(2**31))
                counts.append(surgery(graph, target, rng))
                graphs.append(graph)
            assert counts[0] == counts[1] > 0, (n, seed)
            assert sorted(graphs[0].edges()) == sorted(graphs[1].edges())

    def test_surgery_leaves_no_short_cycle(self):
        """At n=4096, seed 1 the resumed scan cuts a different edge set
        than a full rescan (a source can start to detect a cycle that
        misses it after a later cut), yet no short cycle survives."""
        import random

        from repro.graphs.lower_bound import _girth_surgery
        from repro.graphs.utils import find_short_cycle

        rng = random.Random(1)
        graph = nx.gnp_random_graph(4096, 8.0 / 4096, seed=rng.randrange(2**31))
        assert _girth_surgery(graph, 6, rng) > 0
        assert find_short_cycle(graph, 5) is None

    def test_view_check_matches_on_every_ball(self):
        inst = lower_bound_instance(200, average_degree=6, seed=7)
        graph = inst.graph
        graph.add_edges_from([(200, 201), (202, 202)])  # a stray edge, a loop
        radius = inst.indistinguishability_radius
        for r in (0, 1, radius, radius + 1, radius + 2):
            for v in graph:
                assert view_is_tree(graph, v, r) == reference_view_is_tree(
                    graph, v, r
                ), (v, r)
