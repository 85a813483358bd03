"""Tests for Stage II labels (BFS, ranks, Euler-tour corners) and the
violating-edge machinery."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_paths import labels_by_id, violating_mask_bruteforce
from repro.congest.programs import bfs_tree
from repro.errors import GraphInputError
from repro.planarity import check_planarity, identity_rotation
from repro.planarity.lr_planarity import LocalGraph
from repro.testers import (
    count_violating,
    deterministic_bfs_tree,
    edges_interlace,
    sample_and_detect,
    violating_mask,
)


class TestDeterministicBFS:
    def test_matches_distributed_protocol(self, small_tri_grid):
        """The emulated BFS must equal the simulated CONGEST BFS exactly."""
        sim_parents, sim_depths, _ = bfs_tree(small_tri_grid, 0)
        emu = labels_by_id(small_tri_grid, 0)
        assert emu.depths == sim_depths
        assert {v: p for v, p in emu.parents.items() if p is not None} == sim_parents

    def test_parent_ties_break_by_id_key(self):
        # Depth-1 candidates for 99: ints before strings, strings by repr
        # ("'n10'" < "'n9'"), whatever the adjacency order.
        graph = nx.Graph()
        for mid in ("n9", 10, "n10", 2):
            graph.add_edge("root", mid)
            graph.add_edge(mid, 99)
        for mid in ("n9", "n10"):
            graph.add_edge(mid, "leaf")
        local = LocalGraph.from_graph(graph)
        parent, depth = deterministic_bfs_tree(local, local.index["root"])
        nodes, index = local.nodes, local.index
        assert nodes[parent[index[99]]] == 2 and nodes[parent[index["leaf"]]] == "n10"
        assert dict(zip(nodes, depth)) == {
            "root": 0, "n9": 1, 10: 1, "n10": 1, 2: 1, 99: 2, "leaf": 2
        }

    def test_disconnected_rejected(self):
        local = LocalGraph.from_graph(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(GraphInputError):
            deterministic_bfs_tree(local, 0)


class TestEmbeddingRanks:
    def test_root_rank_zero(self, small_grid):
        emb = check_planarity(small_grid).embedding
        ranks = labels_by_id(small_grid, 0, emb).ranks
        assert ranks[0] == 0
        assert sorted(ranks.values()) == list(range(small_grid.number_of_nodes()))

    def test_parents_before_children(self, small_apollonian):
        emb = check_planarity(small_apollonian).embedding
        labels = labels_by_id(small_apollonian, 0, emb)
        for child, parent in labels.parents.items():
            if parent is not None:
                assert labels.ranks[parent] < labels.ranks[child]


class TestEulerTourPositions:
    def test_position_count(self, planar_zoo):
        for name, graph in planar_zoo:
            labels = labels_by_id(graph, 0, check_planarity(graph).embedding)
            positions, total = labels.positions, labels.total
            non_tree = graph.number_of_edges() - (graph.number_of_nodes() - 1)
            assert len(positions) == 2 * non_tree, name
            assert total == 2 * non_tree, name
            assert sorted(positions.values()) == list(range(total)), name

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        labels = labels_by_id(graph, 0, check_planarity(graph).embedding)
        assert labels.positions == {} and labels.total == 0

    def test_tree_has_no_positions(self):
        tree = nx.random_labeled_tree(30, seed=2)
        assert labels_by_id(tree, 0, check_planarity(tree).embedding).total == 0

    def test_works_with_identity_rotation(self, k5):
        assert labels_by_id(k5, 0, identity_rotation(k5)).total == 2 * (10 - 4)


class TestClaimTen:
    """The completeness side of Stage II.

    * Corner criterion: planar embedding => zero violating edges (the
      property our tester's one-sided error rests on).
    * Preorder criterion (the paper's literal Definition 7 labels): NOT
      complete -- the 3x3 grid is a counterexample, pinned here.
    """

    def test_corner_criterion_complete_on_planar(self, planar_zoo):
        for name, graph in planar_zoo:
            labels = labels_by_id(graph, 0, check_planarity(graph).embedding)
            assert count_violating(labels.corner, universe=labels.total) == 0, name

    def test_preorder_criterion_incomplete_on_3x3_grid(self):
        graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
        labels = labels_by_id(graph, 0, check_planarity(graph).embedding)
        # the paper-literal criterion flags violations on a planar graph
        assert count_violating(labels.preorder, universe=9) > 0

    def test_corner_criterion_fine_on_3x3_grid(self):
        graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 3))
        labels = labels_by_id(graph, 0, check_planarity(graph).embedding)
        assert count_violating(labels.corner, universe=labels.total) == 0

    def test_far_graphs_have_many_violations(self, far_zoo):
        """Corollary 9 (corner form): gamma-far => >= gamma*m violating."""
        for name, graph, certified in far_zoo:
            labels = labels_by_id(graph, 0, identity_rotation(graph))
            violating = count_violating(labels.corner, universe=labels.total)
            m = graph.number_of_edges()
            assert violating >= certified * m - 1e-9, (name, violating, certified * m)


class TestInterlacement:
    def test_basic_predicate(self):
        assert edges_interlace((1, 5), (3, 8))
        assert edges_interlace((3, 8), (1, 5))  # order-insensitive
        assert not edges_interlace((1, 5), (6, 8))  # disjoint
        assert not edges_interlace((1, 8), (3, 5))  # nested
        assert not edges_interlace((1, 5), (5, 8))  # shared endpoint

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 49), st.integers(0, 49)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=40,
        )
    )
    def test_fenwick_matches_bruteforce(self, raw):
        intervals = [(min(a, b), max(a, b)) for a, b in raw]
        fast = violating_mask(intervals, universe=50)
        slow = violating_mask_bruteforce(intervals)
        assert fast == slow

    def test_count_empty(self):
        assert count_violating([], universe=10) == 0


class TestSampling:
    def test_no_intervals(self):
        outcome = sample_and_detect([], 5, random.Random(0), universe=0)
        assert not outcome.detected
        assert outcome.sampled == 0

    def test_full_sampling_detects(self):
        intervals = [(0, 2), (1, 3)]  # interlacing pair
        outcome = sample_and_detect(intervals, 10, random.Random(0), universe=4)
        assert outcome.detected
        assert outcome.witness is not None

    def test_no_violation_no_detection(self):
        intervals = [(0, 1), (2, 3), (4, 9)]
        outcome = sample_and_detect(intervals, 10, random.Random(0), universe=10)
        assert not outcome.detected

    def test_sampling_probability_reasonable(self):
        intervals = [(i, i + 100) for i in range(0, 400, 2)]  # massively interlacing
        detected = sum(
            sample_and_detect(intervals, 5, random.Random(seed), universe=500).detected
            for seed in range(20)
        )
        assert detected == 20  # any sample hits (all edges are violating)

    def test_truncation_cap(self):
        intervals = [(2 * i, 2 * i + 1) for i in range(1000)]
        outcome = sample_and_detect(intervals, 1, random.Random(3), universe=2000)
        assert outcome.sampled <= 4  # cap = 4 * s

    def test_zero_target(self):
        outcome = sample_and_detect([(0, 2), (1, 3)], 0, random.Random(0), universe=4)
        assert not outcome.detected
