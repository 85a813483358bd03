"""Tests for face traversal and Euler-formula verification."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import EmbeddingError
from repro.planarity import (
    RotationSystem,
    faces,
    genus_by_component,
    identity_rotation,
    match_graph,
    verify_planar_embedding,
)


def triangle_embedding():
    rs = RotationSystem()
    rs.set_rotation(0, [1, 2])
    rs.set_rotation(1, [2, 0])
    rs.set_rotation(2, [0, 1])
    return rs


class TestFaces:
    def test_triangle_has_two_faces(self):
        assert len(faces(triangle_embedding())) == 2

    def test_face_lengths_sum_to_half_edges(self):
        rs = triangle_embedding()
        assert sum(len(f) for f in faces(rs)) == 6

    def test_tree_has_one_face(self):
        rs = RotationSystem()
        rs.set_rotation(0, [1, 2])
        rs.set_rotation(1, [0])
        rs.set_rotation(2, [0])
        assert len(faces(rs)) == 1


class TestMatchGraph:
    def test_matching(self):
        match_graph(triangle_embedding(), nx.cycle_graph(3))

    def test_missing_edge_detected(self):
        graph = nx.cycle_graph(3)
        graph.add_edge(0, 3)
        graph.add_node(3)
        with pytest.raises(EmbeddingError):
            match_graph(triangle_embedding(), graph)

    def test_extra_half_edge_detected(self):
        rs = triangle_embedding()
        rs.add_node(3)
        rs.set_rotation(3, [0])
        graph = nx.cycle_graph(3)
        graph.add_node(3)
        with pytest.raises(EmbeddingError):
            match_graph(rs, graph)


class TestEuler:
    def test_triangle_genus_zero(self):
        stats = genus_by_component(triangle_embedding(), nx.cycle_graph(3))
        ((n, m, f, genus),) = stats.values()
        assert (n, m, f, genus) == (3, 3, 2, 0)

    def test_k4_good_rotation_planar(self):
        # An explicitly planar rotation of K4.
        rs = RotationSystem()
        rotations = {0: [1, 2, 3], 1: [2, 0, 3], 2: [0, 1, 3], 3: [0, 2, 1]}
        for v, order in rotations.items():
            rs.set_rotation(v, order)
        verify_planar_embedding(rs, nx.complete_graph(4))

    def test_bad_grid_rotation_rejected(self, small_grid):
        # Identity order of a grid is typically non-planar as an embedding.
        rs = identity_rotation(small_grid)
        stats = genus_by_component(rs, small_grid)
        # it is a valid rotation system, so genus is defined; usually > 0
        assert all(g >= 0 for (_n, _m, _f, g) in stats.values())

    def test_isolated_node(self):
        graph = nx.Graph()
        graph.add_node(7)
        rs = RotationSystem()
        rs.add_node(7)
        verify_planar_embedding(rs, graph)

    def test_disconnected_components(self):
        graph = nx.union(
            nx.cycle_graph(3),
            nx.relabel_nodes(nx.cycle_graph(3), {0: 3, 1: 4, 2: 5}),
        )
        rs = RotationSystem()
        for v in graph.nodes():
            rs.set_rotation(v, sorted(graph.neighbors(v)))
        stats = genus_by_component(rs, graph)
        assert len(stats) == 2
        assert all(g == 0 for (_n, _m, _f, g) in stats.values())

    def test_verify_raises_on_nonplanar(self, k5):
        with pytest.raises(EmbeddingError):
            verify_planar_embedding(identity_rotation(k5), k5)


class TestIdentityRotation:
    def test_covers_graph(self, small_grid):
        rs = identity_rotation(small_grid)
        match_graph(rs, small_grid)

    def test_sorted_order(self):
        graph = nx.star_graph(4)
        rs = identity_rotation(graph)
        assert rs.rotation(0) == sorted(graph.neighbors(0), key=repr)
