"""Allocation guard: a tester run leaves no per-node containers behind.

Objects that outlive an op are promoted into the collector's oldest
generation, and enough of them trigger full collections that pause
later ops.  The tester reads only the compiled topology's CSR arrays
and the dense Stage I state's numpy vectors, so after
``test_planarity`` the simulator's per-node views must still be unbuilt
and the retained Stage I state must hold a handful of gc-tracked
containers, not one per node.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.congest import CongestNetwork, compile_topology
from repro.graphs import make_planar
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
    assert result.stage1.dense_state is not None
    topology = compile_topology(graph)
    assert result.stage1.dense_state.topology is topology
    assert topology._neighbors is None
    assert topology._neighbor_sets is None
    assert topology._neighbor_index_sets is None


def test_dense_state_retains_few_containers(tested):
    _graph, result = tested
    count = tracked_containers(result.stage1.dense_state)
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
