"""Tests for the RotationSystem data structure."""

from __future__ import annotations

import pytest

from _lr_reference import IncrementalRotation
from repro.errors import EmbeddingError
from repro.planarity import RotationSystem


class TestConstruction:
    def test_empty_rotation(self):
        rs = RotationSystem()
        rs.add_node(1)
        assert rs.rotation(1) == []
        assert rs.degree(1) == 0

    def test_unknown_node_rejected(self):
        rs = RotationSystem()
        with pytest.raises(EmbeddingError):
            rs.rotation(0)

    def test_set_rotation_roundtrip(self):
        rs = RotationSystem()
        rs.set_rotation(0, [1, 2, 3])
        assert rs.rotation(0) == [1, 2, 3]

    def test_set_rotation_duplicate_rejected(self):
        rs = RotationSystem()
        with pytest.raises(EmbeddingError):
            rs.set_rotation(0, [1, 1])


class TestQueries:
    def setup_method(self):
        self.rs = RotationSystem()
        self.rs.set_rotation(0, [1, 2, 3])

    def test_next_cw_cycles(self):
        assert self.rs.next_cw(0, 1) == 2
        assert self.rs.next_cw(0, 3) == 1

    def test_missing_half_edge(self):
        with pytest.raises(EmbeddingError):
            self.rs.next_cw(0, 99)

    def test_half_edges_enumeration(self):
        assert set(self.rs.half_edges()) == {(0, 1), (0, 2), (0, 3)}

    def test_to_dict_roundtrip(self):
        clone = RotationSystem()
        for v, order in self.rs.to_dict().items():
            clone.set_rotation(v, order)
        assert clone == self.rs

    def test_set_rotation_replaces(self):
        self.rs.set_rotation(0, [3, 1])
        assert self.rs.rotation(0) == [3, 1]
        assert self.rs.next_cw(0, 1) == 3
        with pytest.raises(EmbeddingError):
            self.rs.next_cw(0, 2)

    def test_equality_respects_order(self):
        other = RotationSystem()
        other.set_rotation(0, [2, 3, 1])  # same cycle, different start
        # to_dict starts from the stored first pointer, so these differ
        assert other.to_dict() != self.rs.to_dict()


class TestIncrementalRotation:
    """The LR oracle's edge-by-edge rotation builder."""

    def grown(self, v, order):
        rs = IncrementalRotation()
        rs.add_node(v)
        previous = None
        for w in order:
            rs.add_half_edge_cw(v, w, previous)
            previous = w
        return rs

    def test_first_insert_into_empty(self):
        rs = IncrementalRotation()
        rs.add_node(0)
        rs.add_half_edge_first(0, 5)
        assert rs.rotation(0) == [5]
        assert rs.next_cw(0, 5) == 5

    def test_add_first_prepends(self):
        rs = self.grown(0, [1, 2])
        rs.add_half_edge_first(0, 9)
        assert rs.rotation(0) == [9, 1, 2]

    def test_add_cw_inserts_after_reference(self):
        rs = self.grown(0, [1, 2, 3])
        rs.add_half_edge_cw(0, 9, 1)
        assert rs.rotation(0) == [1, 9, 2, 3]

    def test_add_ccw_inserts_before_reference(self):
        rs = self.grown(0, [1, 2, 3])
        rs.add_half_edge_ccw(0, 9, 2)
        assert rs.rotation(0) == [1, 9, 2, 3]

    def test_ccw_links_invert_cw_links(self):
        rs = self.grown(0, [1, 2, 3])
        rs.add_half_edge_ccw(0, 7, 1)
        rs.add_half_edge_first(0, 8)
        rs.add_half_edge_cw(0, 9, 3)
        assert rs.rotation(0) == [8, 1, 2, 3, 9, 7]
        for w in rs.rotation(0):
            assert rs._ccw[0][rs.next_cw(0, w)] == w

    def test_equals_set_whole_rotation(self):
        plain = RotationSystem()
        plain.set_rotation(0, [4, 1, 2])
        rs = self.grown(0, [1, 2])
        rs.add_half_edge_first(0, 4)
        assert rs == plain
