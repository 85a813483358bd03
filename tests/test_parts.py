"""Tests for the dict oracle's Part/Partition bookkeeping and auxiliary graph."""

from __future__ import annotations

import networkx as nx
import pytest

from _stage1_reference import AuxiliaryGraph, Part, Partition, build_part
from repro.errors import PartitionError


class TestBuildPart:
    def test_simple_tree(self):
        part = build_part(0, [0, 1, 2], [(1, 0), (2, 1)])
        assert part.height == 2
        assert part.parents == {1: 0, 2: 1}

    def test_orientation_agnostic(self):
        part = build_part(0, [0, 1, 2], [(0, 1), (1, 2)])
        assert part.parents == {1: 0, 2: 1}

    def test_unreachable_node_rejected(self):
        with pytest.raises(PartitionError):
            build_part(0, [0, 1, 2], [(1, 0)])

    def test_edge_leaving_part_rejected(self):
        with pytest.raises(PartitionError):
            build_part(0, [0, 1], [(1, 0), (2, 1)])

    def test_singleton(self):
        part = build_part(5, [5], [])
        assert part.height == 0
        assert len(part) == 1
        assert part.pid == 5


class TestPartition:
    def test_singletons(self, small_grid):
        partition = Partition.singletons(small_grid)
        assert partition.size == small_grid.number_of_nodes()
        assert partition.cut_size() == small_grid.number_of_edges()
        partition.validate()

    def test_max_height_zero_for_singletons(self, small_grid):
        assert Partition.singletons(small_grid).max_height() == 0

    def test_duplicate_node_rejected(self):
        graph = nx.path_graph(3)
        parts = [
            build_part(0, [0, 1], [(1, 0)]),
            build_part(1, [1, 2], [(2, 1)]),
        ]
        with pytest.raises(PartitionError):
            Partition(graph, parts)

    def test_missing_node_rejected(self):
        graph = nx.path_graph(3)
        parts = [build_part(0, [0, 1], [(1, 0)])]
        with pytest.raises(PartitionError):
            Partition(graph, parts)

    def test_validate_catches_disconnected_part(self):
        graph = nx.path_graph(4)
        graph.add_edge(0, 3)  # make 0 and 3 adjacent
        part = Part(root=0, nodes=frozenset([0, 2]), parents={2: 0}, height=1)
        rest = Part(root=1, nodes=frozenset([1, 3]), parents={3: 1}, height=1)
        # the spanning "tree" edge (2, 0) is not a graph edge
        partition = Partition(graph, [part, rest])
        with pytest.raises(PartitionError):
            partition.validate()

    def test_validate_catches_wrong_height(self, small_grid):
        partition = Partition.singletons(small_grid)
        some_pid = next(iter(partition.parts))
        partition.parts[some_pid].height = 3
        with pytest.raises(PartitionError):
            partition.validate()

    def test_cut_edges_enumeration(self):
        graph = nx.path_graph(4)
        parts = [
            build_part(0, [0, 1], [(1, 0)]),
            build_part(2, [2, 3], [(3, 2)]),
        ]
        partition = Partition(graph, parts)
        assert list(partition.cut_edges()) == [(1, 2)]

    def test_part_subgraph(self, small_grid):
        partition = Partition.singletons(small_grid)
        sub = partition.part_subgraph(0)
        assert sub.number_of_nodes() == 1


class TestAuxiliaryGraph:
    def make_two_parts(self):
        graph = nx.cycle_graph(6)  # parts {0,1,2} and {3,4,5}: 2 cut edges
        parts = [
            build_part(0, [0, 1, 2], [(1, 0), (2, 1)]),
            build_part(3, [3, 4, 5], [(4, 3), (5, 4)]),
        ]
        return graph, Partition(graph, parts)

    def test_weights(self):
        graph, partition = self.make_two_parts()
        aux = AuxiliaryGraph(partition)
        assert aux.node_count == 2
        assert aux.weight(0, 3) == 2  # edges (2,3) and (5,0)
        assert aux.total_weight() == 2
        assert aux.edge_count() == 1

    def test_connector_is_min_id(self):
        graph, partition = self.make_two_parts()
        aux = AuxiliaryGraph(partition)
        u, v = aux.connector(0, 3)
        assert partition.part_of[u] == 0
        assert partition.part_of[v] == 3
        # (0, 5) sorts before (2, 3) as (repr) pairs
        assert (u, v) == (0, 5)

    def test_connector_orientation_swaps(self):
        graph, partition = self.make_two_parts()
        aux = AuxiliaryGraph(partition)
        u1, v1 = aux.connector(0, 3)
        u2, v2 = aux.connector(3, 0)
        assert (u1, v1) == (v2, u2)

    def test_weighted_degree(self):
        graph, partition = self.make_two_parts()
        aux = AuxiliaryGraph(partition)
        assert aux.weighted_degree(0) == 2

    def test_total_weight_matches_cut(self, small_grid):
        partition = Partition.singletons(small_grid)
        aux = AuxiliaryGraph(partition)
        assert aux.total_weight() == partition.cut_size()

    def test_edges_iteration(self):
        graph, partition = self.make_two_parts()
        aux = AuxiliaryGraph(partition)
        edges = list(aux.edges())
        assert len(edges) == 1
        assert edges[0].weight == 2
