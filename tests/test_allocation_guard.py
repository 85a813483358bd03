"""Allocation guard: a tester run leaves no per-node containers behind.

Objects that outlive an op are promoted into the collector's oldest
generation, and enough of them trigger full collections that pause
later ops.  The tester reads only the compiled topology's CSR arrays
and the dense Stage I state's numpy vectors, so after
``test_planarity`` the simulator's per-node views must still be unbuilt
and the retained Stage I state must hold a handful of gc-tracked
containers, not one per node.  Nor may the tester cache a networkx view
that points back at its input graph (``degree``, ``edges``): that would
put the graph in a reference cycle, which only a collection frees.  The
same holds for Stage I's partition, for the graph generators and for
the greedy maximal planar subgraph.
"""

from __future__ import annotations

import gc
import types
import weakref
from contextlib import contextmanager
import pytest

from repro.congest import CongestNetwork, compile_topology
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES, planted_kuratowski
from repro.graphs.generators import PLANAR_FAMILIES
from repro.partition import DensePartitionState, partition_stage1
from repro.testers.planarity import PlanarityTestConfig
from repro.testers.planarity import test_planarity as run_planarity

N = 2000
CONTAINER_LIMIT = 50


def tracked_containers(root) -> int:
    """gc-tracked objects reachable from *root*, skipping types and modules."""
    seen = set()
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            count += 1
        stack.extend(gc.get_referents(obj))
    return count


@pytest.fixture(scope="module")
def tested():
    graph = make_planar("delaunay", N, seed=0)
    result = run_planarity(graph, seed=0, config=PlanarityTestConfig(epsilon=0.1))
    return graph, result


def test_simulator_views_unbuilt_after_tester(tested):
    graph, result = tested
    assert result.stage1.partition is not None
    topology = compile_topology(graph)
    assert result.stage1.partition.topology is topology
    assert topology._neighbors is None
    assert topology._neighbor_sets is None


def test_dense_state_retains_few_containers(tested):
    _graph, result = tested
    count = tracked_containers(result.stage1.partition)
    assert count < CONTAINER_LIMIT, count


def test_network_builds_views_on_first_use(tested):
    graph, _result = tested
    topology = compile_topology(graph)
    network = CongestNetwork(graph)
    assert network.topology is topology
    assert topology._neighbors is not None
    assert topology._neighbor_sets is not None
    root = topology.nodes[0]
    assert topology.neighbors[root] == tuple(sorted(graph.neighbors(root)))
    assert topology.neighbor_sets[root] == frozenset(graph.neighbors(root))


TESTER_INPUTS = {
    "delaunay": lambda: make_planar("delaunay", N, seed=0),
    "planted-k5": lambda: planted_kuratowski(N, count=300, minor="k5", seed=0)[0],
}


@pytest.mark.parametrize("name", sorted(TESTER_INPUTS))
def test_input_graph_freed_by_refcount(name):
    # A fresh copy, as perfbench and the workers hand over.
    graph = TESTER_INPUTS[name]().copy()
    assert not {"degree", "edges"} & set(vars(graph))
    probe = weakref.ref(graph)
    with collector_off():
        result = run_planarity(graph, seed=0, config=PlanarityTestConfig(epsilon=0.1))
        assert result.accepted == (name == "delaunay")
        assert not {"degree", "edges"} & set(vars(graph))
        del result, graph
        assert probe() is None


@contextmanager
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_partition_cut_size_leaves_graph_acyclic():
    graph = make_planar("grid", 100, seed=0)
    probe = weakref.ref(graph)
    with collector_off():
        assert partition_stage1(graph, 0.1).partition.cut_size() >= 0
        assert not {"degree", "edges"} & set(vars(graph))
        del graph
        assert probe() is None


@pytest.mark.parametrize(
    "family", sorted(PLANAR_FAMILIES) + [f"far:{f}" for f in sorted(FAR_FAMILIES)]
)
def test_generated_graph_freed_by_refcount(family):
    """Generators and their farness certificates cache no view that
    points back at the graph they return."""
    with collector_off():
        if family.startswith("far:"):
            graph = make_far(family[4:], 120, seed=0)[0]
        else:
            graph = make_planar(family, 120, seed=0)
        assert not {"degree", "edges"} & set(vars(graph))
        probe = weakref.ref(graph)
        del graph
        assert probe() is None


def test_stage1_reject_keeps_dense_partition():
    graph = TESTER_INPUTS["planted-k5"]()
    result = run_planarity(graph, seed=0, config=PlanarityTestConfig(epsilon=0.1))
    assert result.rejected_stage == "stage1"
    assert isinstance(result.stage1.partition, DensePartitionState)
    assert result.stage1.partition.size > 1
    assert tracked_containers(result.stage1.partition) < CONTAINER_LIMIT
