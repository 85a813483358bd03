"""Shared fixtures for the test-suite."""

from __future__ import annotations

import threading

import networkx as nx
import pytest

from repro.graphs import (
    grid_graph,
    make_far,
    make_planar,
    random_apollonian,
    triangulated_grid,
)


@pytest.fixture(scope="session")
def small_grid() -> nx.Graph:
    """A 6x6 grid (planar, bipartite, cycle-ful)."""
    return grid_graph(6, 6)


@pytest.fixture(scope="session")
def small_tri_grid() -> nx.Graph:
    """A triangulated 6x6 grid (planar, non-bipartite)."""
    return triangulated_grid(6, 6)


@pytest.fixture(scope="session")
def small_apollonian() -> nx.Graph:
    """A maximal planar graph on 40 nodes."""
    return random_apollonian(40, seed=7)


@pytest.fixture(scope="session")
def planar_zoo() -> list:
    """A list of (name, graph) pairs covering the planar families."""
    return [
        (fam, make_planar(fam, 90, seed=3))
        for fam in ("grid", "tri-grid", "apollonian", "delaunay", "outerplanar", "tree")
    ]


@pytest.fixture(scope="session")
def far_zoo() -> list:
    """A list of (name, graph, certified farness) triples."""
    out = []
    for fam in ("gnp", "planted-k5", "planted-k33", "planar-plus"):
        graph, farness = make_far(fam, 120, seed=3)
        out.append((fam, graph, farness))
    return out


@pytest.fixture(scope="session")
def k5() -> nx.Graph:
    """The smallest non-planar clique."""
    return nx.complete_graph(5)


@pytest.fixture(scope="session")
def k33() -> nx.Graph:
    """The smallest non-planar bipartite graph."""
    return nx.complete_bipartite_graph(3, 3)


@pytest.fixture
def start_workers():
    """Start in-process fleet workers: ``start_workers(port, count=1)``.
    At teardown every worker must have exited -- the service sends
    ``exit`` when it stops."""
    from repro.runtime.worker import serve_remote

    threads = []

    def start(port, count=1):
        for _ in range(count):
            thread = threading.Thread(
                target=serve_remote,
                args=("127.0.0.1", port),
                kwargs={"retry_seconds": 10.0},
                daemon=True,
            )
            thread.start()
            threads.append(thread)

    yield start
    for thread in threads:
        thread.join(15.0)
        assert not thread.is_alive(), "worker did not exit after the batch"
