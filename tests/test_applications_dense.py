"""Differential suite: the applications/spanner layer vs the reference.

The contract is *bit identity* with the walk over ``Part`` objects kept
in ``tests/_stage1_reference.py``: ``build_spanner`` must produce the
same ``SpannerResult`` (tree and connector counts, guaranteed stretch,
edge set, size, rounds), ``measure_stretch`` the same worst-ratio float
(same RNG sample), and the Corollary 16 tester the same verdicts
(accepted, rejecting parts, round counts) for each of its four
properties at two distances -- across every bundled planar and
far-from-planar generator, under every label type of
:data:`_stage1_reference.RELABELINGS`, for both the deterministic and
the seeded randomized partition method.
"""

from __future__ import annotations

import pytest

import networkx as nx

from _stage1_reference import (
    label_cases,
    reference_application,
    reference_build_spanner,
    reference_measure_stretch,
    relabeled,
)
from repro.applications import DenseSpanner, build_spanner, measure_stretch
from repro.errors import GraphInputError
from repro.graphs.far_from_planar import FAR_FAMILIES, make_far
from repro.graphs.generators import PLANAR_FAMILIES, make_planar
from repro.testers import (
    test_bipartiteness as run_bipartiteness,
    test_cycle_freeness as run_cycle_freeness,
    test_hereditary_property as run_hereditary,
)
from repro.testers.applications import PROPERTIES

N = 36

FAMILIES = sorted(PLANAR_FAMILIES) + sorted(FAR_FAMILIES)

METHODS = ("deterministic", "randomized")


@pytest.fixture(scope="module")
def zoo():
    graphs = {}
    for family in sorted(PLANAR_FAMILIES):
        graphs[family] = make_planar(family, N, seed=0)
    for family in sorted(FAR_FAMILIES):
        graphs[family], _farness = make_far(family, N, seed=0)
    return graphs


def edge_set(edges):
    return {frozenset(e) for e in edges}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family, relabeling", label_cases(FAMILIES))
def test_spanner_bit_identical(family, relabeling, method, zoo):
    graph = relabeled(zoo[family], relabeling)
    reference = reference_build_spanner(graph, method=method, seed=7)
    dense = build_spanner(graph, method=method, seed=7)
    assert isinstance(dense.dense, DenseSpanner)
    assert dense.tree_edges == reference.tree_edges
    assert dense.connector_edges == reference.connector_edges
    assert dense.guaranteed_stretch == reference.guaranteed_stretch
    assert dense.size == reference.size
    assert dense.rounds == reference.rounds
    assert (
        dense.partition_result.success == reference.partition_result.success
    )
    assert edge_set(dense.dense.edges()) == edge_set(reference.spanner.edges())
    # The lazy networkx materialization matches the reference graph.
    materialized = dense.spanner
    assert set(materialized.nodes()) == set(reference.spanner.nodes())
    assert edge_set(materialized.edges()) == edge_set(reference.spanner.edges())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family, relabeling", label_cases(FAMILIES))
def test_stretch_bit_identical(family, relabeling, method, zoo):
    graph = relabeled(zoo[family], relabeling)
    reference = reference_build_spanner(graph, method=method, seed=7)
    dense = build_spanner(graph, method=method, seed=7)
    want = reference_measure_stretch(
        graph, reference.spanner, sample_nodes=6, seed=3
    )
    # Dense spanner input (the fast path).
    assert measure_stretch(graph, dense.dense, sample_nodes=6, seed=3) == want
    # Networkx spanner input (compiled on the fly).
    assert measure_stretch(
        graph, reference.spanner, sample_nodes=6, seed=3
    ) == want
    # Exhaustive sampling (>= n sources) agrees too.
    assert measure_stretch(
        graph, dense.dense, sample_nodes=10**6, seed=3
    ) == reference_measure_stretch(
        graph, reference.spanner, sample_nodes=10**6, seed=3
    )


WRAPPERS = {"cycle-free": run_cycle_freeness, "bipartite": run_bipartiteness}


def verdict(result):
    return (
        result.accepted,
        result.rejecting_parts,
        result.partition_rounds,
        result.verification_rounds,
    )


@pytest.mark.parametrize("epsilon", (0.1, 0.3))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family, relabeling", label_cases(FAMILIES))
def test_application_verdicts_identical(family, relabeling, method, epsilon, zoo):
    """Every Corollary 16 property, and the cycle-freeness and
    bipartiteness entry points, give the per-part reference's verdicts
    and round counts."""
    graph = relabeled(zoo[family], relabeling)
    for prop in PROPERTIES:
        want = verdict(
            reference_application(graph, prop, epsilon, method=method, seed=11)
        )
        dense = run_hereditary(graph, prop, epsilon, method=method, seed=11)
        assert verdict(dense) == want, prop
        if prop in WRAPPERS:
            wrapped = WRAPPERS[prop](graph, epsilon, method=method, seed=11)
            assert verdict(wrapped) == want, prop


def test_bfs_fallback_matches_scipy_path():
    """The numpy level-synchronous BFS == the scipy C BFS (same hops)."""
    import numpy as np

    from repro.applications.dense import (
        _level_synchronous_distances,
        multi_source_distances,
    )
    from repro.congest.topology import compile_topology

    graph = nx.disjoint_union(
        make_planar("delaunay", 40, seed=2), nx.empty_graph(3)
    )
    arrays = compile_topology(graph).batch_arrays()
    sources = np.asarray([0, 5, 41], dtype=np.int64)
    n = graph.number_of_nodes()
    fast = multi_source_distances(
        arrays.indptr, arrays.indices, arrays.degrees, sources, n
    )
    slow = _level_synchronous_distances(
        arrays.indptr, arrays.indices, arrays.degrees, sources, n
    )
    assert (fast == slow).all()
    assert (fast[:, -1] == -1).all()  # isolated tail nodes unreachable


def test_str_labels_build_dense_spanner():
    graph = nx.relabel_nodes(nx.path_graph(6), lambda v: f"v{v}")
    result = build_spanner(graph)
    assert isinstance(result.dense, DenseSpanner)
    assert result.size == 5


def test_application_testers_on_empty_graph():
    for runner in (run_cycle_freeness, run_bipartiteness):
        result = runner(nx.Graph())
        assert result.accepted
        assert result.rejecting_parts == ()
        assert result.verification_rounds == 0


def test_dense_stretch_requires_spanning_subgraph():
    graph = make_planar("grid", 25)
    broken = nx.Graph()
    broken.add_nodes_from(graph.nodes())  # no edges: spans nothing
    with pytest.raises(GraphInputError):
        measure_stretch(graph, broken, sample_nodes=4, seed=0)
    with pytest.raises(GraphInputError):
        reference_measure_stretch(graph, broken, sample_nodes=4, seed=0)


def test_dense_stretch_node_mismatch_falls_back():
    graph = make_planar("grid", 25)
    spanner = build_spanner(graph).spanner.copy()
    spanner.add_node(10**9)  # extra node: not the input node set
    want = reference_measure_stretch(graph, spanner, sample_nodes=4, seed=0)
    # The node-set mismatch routes to the per-source networkx fold.
    assert measure_stretch(graph, spanner, sample_nodes=4, seed=0) == want
