"""Tests for the MPX baseline partition and the baseline spanners."""

from __future__ import annotations

import networkx as nx
import pytest

from _stage1_reference import (
    AuxiliaryGraph,
    build_part,
    label_cases,
    node_sets,
    relabeled,
    to_partition,
)
from repro.baselines import (
    cluster_spanner,
    greedy_spanner,
    mpx_partition,
)
from repro.congest.topology import compile_topology
from repro.errors import GraphInputError
from repro.graphs import make_planar
from repro.graphs.generators import PLANAR_FAMILIES


class TestMPXPartition:
    def test_valid_partition(self):
        graph = make_planar("delaunay", 250, seed=1)
        result = mpx_partition(graph, beta=0.3, seed=2)
        to_partition(result.partition, graph).validate()

    @pytest.mark.parametrize("family, relabeling", label_cases(sorted(PLANAR_FAMILIES)))
    def test_forest_matches_build_part(self, family, relabeling):
        """Every cluster's roots, members, parents and height, as the
        dense forest gives them, are the ``build_part`` oracle's BFS of
        the cluster's Dijkstra tree."""
        graph = relabeled(make_planar(family, 120, seed=1), relabeling)
        state = mpx_partition(graph, beta=0.2, seed=4).partition
        ids = state.topology.nodes
        parent = state.parent.tolist()
        members = {}
        for idx, root in enumerate(state.part_of.tolist()):
            members.setdefault(root, []).append(idx)
        assert sorted(members) == list(state.heights)
        for root, group in members.items():
            tree = {ids[i]: ids[parent[i]] for i in group if parent[i] >= 0}
            part = build_part(ids[root], [ids[i] for i in group], tree.items())
            assert part.parents == tree
            assert part.height == state.heights[root]
            assert len(part) == state.sizes[root]

    def test_cut_expectation(self):
        # E[cut] <= beta * m; check across seeds with slack factor 2.
        graph = make_planar("grid", 400, seed=0)
        m = graph.number_of_edges()
        beta = 0.2
        cuts = [mpx_partition(graph, beta=beta, seed=s).cut_size for s in range(10)]
        assert sum(cuts) / len(cuts) <= 2 * beta * m

    def test_rounds_reported(self):
        graph = make_planar("grid", 200, seed=0)
        result = mpx_partition(graph, beta=0.3, seed=1)
        assert result.rounds >= result.partition.max_height()

    def test_smaller_beta_bigger_clusters(self):
        graph = make_planar("grid", 400, seed=0)
        fine = mpx_partition(graph, beta=0.9, seed=3)
        coarse = mpx_partition(graph, beta=0.05, seed=3)
        assert coarse.partition.size <= fine.partition.size

    def test_invalid_beta(self, small_grid):
        with pytest.raises(GraphInputError):
            mpx_partition(small_grid, beta=0)
        with pytest.raises(GraphInputError):
            mpx_partition(small_grid, beta=1.5)

    def test_empty_graph_feeds_stage2_nothing(self):
        """The empty graph has no parts: MPX's partition is ``None``,
        Stage II over it runs no part, and the E12 ablation record
        reports height 0."""
        from repro.runtime.audit import _run_mpx_ablation
        from repro.runtime.jobs import JobSpec
        from repro.testers.planarity import stage2_over_partition
        from repro.testers.stage2 import Stage2Config

        graph = nx.Graph()
        result = mpx_partition(graph, beta=0.3, seed=1)
        assert result.partition is None and result.cut_size == 0
        assert stage2_over_partition(
            graph, result.partition, Stage2Config(epsilon=0.1)
        ) == ([], [], 0)
        spec = JobSpec.make("mpx_ablation", family="grid", n=4, epsilon=0.1)
        record = _run_mpx_ablation(spec, graph)
        assert record["accepted"] and record["max_height"] == 0
        assert record["stage2_rounds"] == 0

    def test_deterministic(self):
        graph = make_planar("delaunay", 150, seed=2)
        a = mpx_partition(graph, beta=0.3, seed=9)
        b = mpx_partition(graph, beta=0.3, seed=9)
        assert node_sets(a.partition) == node_sets(b.partition)


class TestBaselineSpanners:
    def test_cluster_spanner_spans(self):
        graph = make_planar("delaunay", 200, seed=3)
        spanner, result = cluster_spanner(graph, beta=0.3, seed=1)
        assert nx.is_connected(spanner)
        assert set(spanner.nodes()) == set(graph.nodes())

    @pytest.mark.parametrize("family, relabeling", label_cases(sorted(PLANAR_FAMILIES)))
    def test_cluster_spanner_is_trees_plus_oracle_connectors(self, family, relabeling):
        """MPX tree edges plus one min-id connector per adjacent cluster
        pair, as the dict oracle picks it, in both spanner forms."""
        graph = relabeled(make_planar(family, 80, seed=1), relabeling)
        spanner, result = cluster_spanner(graph, beta=0.3, seed=2)
        partition = to_partition(result.partition, graph)
        expected = {
            frozenset(edge)
            for part in partition.parts.values()
            for edge in part.tree_edges()
        }
        expected |= {
            frozenset(edge.connector) for edge in AuxiliaryGraph(partition).edges()
        }
        assert {frozenset(edge) for edge in spanner.edges()} == expected
        assert spanner.number_of_edges() == len(expected)
        dense, _result = cluster_spanner(
            graph, beta=0.3, seed=2, topology=compile_topology(graph)
        )
        assert {frozenset(edge) for edge in dense.edges()} == expected
        assert dense.edge_count == len(expected)

    def test_greedy_spanner_stretch_guarantee(self):
        graph = make_planar("grid", 100, seed=0)
        spanner = greedy_spanner(graph, stretch=3)
        for u, v in graph.edges():
            assert nx.shortest_path_length(spanner, u, v) <= 3

    def test_greedy_spanner_sparser_than_input(self):
        graph = make_planar("apollonian", 100, seed=1)
        spanner = greedy_spanner(graph, stretch=5)
        assert spanner.number_of_edges() < graph.number_of_edges()

    def test_greedy_stretch_one_keeps_everything(self):
        graph = nx.cycle_graph(8)
        spanner = greedy_spanner(graph, stretch=1)
        assert spanner.number_of_edges() == graph.number_of_edges()

    def test_greedy_even_stretch_rejected(self, small_grid):
        with pytest.raises(GraphInputError):
            greedy_spanner(small_grid, stretch=4)
