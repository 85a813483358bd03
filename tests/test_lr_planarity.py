"""Tests for the from-scratch LR planarity test.

networkx is used strictly as an *oracle* for the verdict; embeddings are
verified independently through Euler's formula, and diffed against the
dict-keyed port of the same pseudocode kept in ``_lr_reference``.
"""

from __future__ import annotations

import inspect
import sys

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _lr_reference import reference_check_planarity
from repro.errors import GraphInputError
from repro.graphs import make_planar
from repro.partition import partition_stage1
from repro.planarity import check_planarity, is_planar, verify_planar_embedding
from repro.planarity.lr_planarity import LocalGraph, lr_embedding
from repro.testers.stage2 import extract_part_subgraphs


def assert_agrees_with_oracle(graph):
    mine = check_planarity(graph)
    oracle, _ = nx.check_planarity(graph)
    assert mine.is_planar == oracle
    if mine.is_planar:
        verify_planar_embedding(mine.embedding, graph)
    else:
        assert mine.embedding is None
    return mine


class TestVerdicts:
    def test_k5_not_planar(self, k5):
        assert not is_planar(k5)

    def test_k33_not_planar(self, k33):
        assert not is_planar(k33)

    def test_k4_planar(self):
        assert is_planar(nx.complete_graph(4))

    def test_petersen_not_planar(self):
        assert not is_planar(nx.petersen_graph())

    def test_planar_zoo(self, planar_zoo):
        for name, graph in planar_zoo:
            result = assert_agrees_with_oracle(graph)
            assert result.is_planar, name

    def test_far_zoo(self, far_zoo):
        for name, graph, _f in far_zoo:
            result = assert_agrees_with_oracle(graph)
            assert not result.is_planar, name

    def test_k5_subdivision_not_planar(self, k5):
        # subdivide every edge once; still a K5 subdivision
        sub = nx.Graph()
        next_id = 5
        for u, v in k5.edges():
            sub.add_edge(u, next_id)
            sub.add_edge(next_id, v)
            next_id += 1
        assert not is_planar(sub)

    def test_dense_shortcut(self):
        graph = nx.complete_graph(30)  # m >> 3n - 6: shortcut path
        assert not is_planar(graph)

    def test_named_planar_graphs(self):
        for builder in (
            nx.dodecahedral_graph,
            nx.icosahedral_graph,
            nx.frucht_graph,
            lambda: nx.wheel_graph(12),
            lambda: nx.circular_ladder_graph(9),
        ):
            assert_agrees_with_oracle(builder())

    def test_named_nonplanar_graphs(self):
        for builder in (
            nx.heawood_graph,
            nx.pappus_graph,
            nx.desargues_graph,
            lambda: nx.complete_graph(6),
            lambda: nx.hypercube_graph(4),
        ):
            graph = nx.convert_node_labels_to_integers(builder())
            assert_agrees_with_oracle(graph)


class TestEdgeCases:
    def test_empty_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        result = check_planarity(graph)
        assert result.is_planar
        assert result.embedding.rotation(0) == []

    def test_single_edge(self):
        result = check_planarity(nx.path_graph(2))
        assert result.is_planar
        assert result.embedding.rotation(0) == [1]

    def test_disconnected(self):
        graph = nx.union(
            nx.cycle_graph(4),
            nx.relabel_nodes(nx.complete_graph(4), {i: i + 10 for i in range(4)}),
        )
        assert_agrees_with_oracle(graph)

    def test_disconnected_with_nonplanar_component(self, k5):
        graph = nx.union(
            nx.path_graph(3),
            nx.relabel_nodes(k5, {i: i + 10 for i in range(5)}),
        )
        assert not is_planar(graph)

    def test_deep_path_no_recursion_error(self):
        assert is_planar(nx.path_graph(20000))

    def test_large_grid_embedding(self):
        graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(40, 40))
        result = check_planarity(graph)
        assert result.is_planar
        verify_planar_embedding(result.embedding, graph)

    def test_self_loop_rejected(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        with pytest.raises(GraphInputError):
            check_planarity(graph)

    def test_directed_rejected(self):
        with pytest.raises(GraphInputError):
            check_planarity(nx.DiGraph([(0, 1)]))

    def test_result_truthiness(self):
        assert check_planarity(nx.path_graph(3))
        assert not check_planarity(nx.complete_graph(5))


class TestRandomizedOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(1, 14),
        seed=st.integers(0, 10_000),
        p=st.floats(0.05, 0.95),
    )
    def test_gnp_agrees_with_oracle(self, n, seed, p):
        graph = nx.gnp_random_graph(n, p, seed=seed)
        assert_agrees_with_oracle(graph)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(4, 30), seed=st.integers(0, 1000))
    def test_random_planar_has_valid_embedding(self, n, seed):
        from repro.graphs import random_planar

        graph = random_planar(n, seed=seed)
        result = check_planarity(graph)
        assert result.is_planar
        verify_planar_embedding(result.embedding, graph)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_near_planar_boundary(self, seed):
        # maximal planar graph plus one random edge: always non-planar
        from repro.graphs import random_apollonian
        import random

        rng = random.Random(seed)
        graph = random_apollonian(20, seed=seed)
        while True:
            u, v = rng.randrange(20), rng.randrange(20)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
                break
        assert not is_planar(graph)


def assert_matches_reference(graph):
    """Same verdict as networkx, same rotation system as the dict port."""
    mine = check_planarity(graph)
    planar, rotation = reference_check_planarity(graph)
    assert mine.is_planar == planar == nx.check_planarity(graph)[0]
    if planar:
        assert mine.embedding.to_dict() == rotation.to_dict()
    else:
        assert mine.ring is None and mine.embedding is None


def subdivided(graph, times=1):
    """*graph* with every edge subdivided *times* times."""
    out = nx.Graph()
    out.add_nodes_from(graph)
    fresh = max(graph) + 1
    for u, v in graph.edges():
        path = [u, *range(fresh, fresh + times), v]
        fresh += times
        nx.add_path(out, path)
    return out


class TestReferenceOracle:
    """The int LR against the dict-keyed reference port."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(0, 30),
        seed=st.integers(0, 100_000),
        p=st.floats(0.0, 0.5),
    )
    def test_gnp_rotation_matches_reference(self, n, seed, p):
        assert_matches_reference(nx.gnp_random_graph(n, p, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 60), seed=st.integers(0, 1000))
    def test_random_planar_rotation_matches_reference(self, n, seed):
        from repro.graphs import random_planar

        assert_matches_reference(random_planar(n, seed=seed))

    @pytest.mark.parametrize(
        "family", ["delaunay", "grid", "tri-grid", "apollonian", "outerplanar"]
    )
    def test_planar_families_match_reference(self, family):
        assert_matches_reference(make_planar(family, 400, seed=3))

    def test_empty_graph(self):
        assert_matches_reference(nx.Graph())
        result = check_planarity(nx.Graph())
        assert result.is_planar and result.embedding.to_dict() == {}

    def test_disconnected(self, k5):
        graph = nx.disjoint_union_all(
            [nx.cycle_graph(5), nx.empty_graph(3), nx.wheel_graph(7), nx.path_graph(4)]
        )
        assert_matches_reference(graph)
        assert_matches_reference(nx.disjoint_union(graph, k5))

    def test_deep_path(self):
        assert_matches_reference(nx.path_graph(5000))

    @pytest.mark.parametrize("times", [1, 2])
    def test_kuratowski_subdivisions(self, k5, k33, times):
        for graph in (k5, k33):
            assert_matches_reference(subdivided(graph, times))
            # one subdivided Kuratowski graph inside a planar one
            host = nx.convert_node_labels_to_integers(nx.grid_2d_graph(5, 5))
            planted = nx.disjoint_union(host, subdivided(graph, times))
            planted.add_edge(0, len(host))
            assert_matches_reference(planted)

    def test_non_integer_labels(self):
        graph = nx.relabel_nodes(
            make_planar("delaunay", 120, seed=1), lambda v: f"n{v}"
        )
        assert_matches_reference(graph)


def exit_site(graph):
    """Which of :func:`lr_embedding`'s ``return None`` lines ends its run
    on *graph*: 0 for the density early-out, 1 and 2 for the testing
    phase's two conflict exits, ``None`` for an embedding."""
    source, start = inspect.getsourcelines(lr_embedding)
    sites = [start + i for i, line in enumerate(source) if "return None" in line]
    code = lr_embedding.__code__
    returned = []

    def trace(frame, event, _arg):
        if frame.f_code is not code:
            return None
        if event == "return":
            returned.append(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        ring = lr_embedding(LocalGraph.from_graph(graph))
    finally:
        sys.settrace(previous)
    assert (ring is None) == (returned[-1] in sites)
    return sites.index(returned[-1]) if ring is None else None


# Non-planar inputs by the exit_site they take.
EXIT_CASES = {
    "k5": (lambda: nx.complete_graph(5), 0),
    "k33": (lambda: nx.complete_bipartite_graph(3, 3), 1),
    "petersen": (nx.petersen_graph, 2),
    "gnp-1": (lambda: nx.gnp_random_graph(9, 0.5, seed=1), 0),
    "gnp-12": (lambda: nx.gnp_random_graph(9, 0.5, seed=12), 1),
    "gnp-5": (lambda: nx.gnp_random_graph(9, 0.5, seed=5), 2),
}


class TestLRDifferential:
    """The int LR's rings against the dict reference on the inputs the
    tester feeds it, and each of its non-planar exits taken."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delaunay_parts_match_reference(self, seed):
        graph = make_planar("delaunay", 2000, seed=seed)
        state = partition_stage1(graph, epsilon=0.1).partition
        subs = extract_part_subgraphs(graph, state)
        assert len(subs) > 1
        for pid, sub in subs.items():
            ring = lr_embedding(sub)
            planar, rotation = reference_check_planarity(graph.subgraph(sub.nodes))
            assert planar and ring is not None, pid
            assert ring.to_rotation_system(sub.nodes).to_dict() == rotation.to_dict()

    @pytest.mark.parametrize("name", sorted(EXIT_CASES))
    def test_nonplanar_exit_sites(self, name):
        build, site = EXIT_CASES[name]
        graph = build()
        assert exit_site(graph) == site
        assert not reference_check_planarity(graph)[0]
        assert not nx.check_planarity(graph)[0]
