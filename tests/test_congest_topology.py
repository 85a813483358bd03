"""Compiled topologies (repro.congest.topology) and their reuse paths."""

from __future__ import annotations

import enum
import gc
import random
import weakref
from array import array

import networkx as nx
import pytest

from _reference_paths import (
    edge_case_graphs,
    reference_edge_arrays,
    reference_topology,
)
from repro.congest import (
    CompiledTopology,
    CongestNetwork,
    compile_topology,
    default_bandwidth_bits,
    reset_topology_stats,
    topology_stats,
)
from repro.congest.programs.bfs import bfs_tree
from repro.errors import GraphInputError
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES
from repro.graphs.generators import PLANAR_FAMILIES
from repro.runtime import JobSpec, SerialBackend, ShardedStore, run_jobs


class TestCompiledTopology:
    def test_dense_indices_follow_sorted_ids(self):
        graph = nx.Graph([(10, 3), (3, 7), (7, 10)])
        topo = CompiledTopology(graph)
        assert topo.nodes == (3, 7, 10)
        assert topo.index == {3: 0, 7: 1, 10: 2}

    def test_csr_rows_match_sorted_adjacency(self):
        graph = nx.path_graph(5)
        graph.add_edge(0, 4)
        topo = CompiledTopology(graph)
        for v in graph.nodes():
            i = topo.index[v]
            row = list(topo.indices[topo.indptr[i] : topo.indptr[i + 1]])
            expected = [topo.index[w] for w in sorted(graph.neighbors(v))]
            assert row == expected
        assert not hasattr(topo, "neighbor_index_sets")

    def test_neighbor_tuples_and_sets(self):
        graph = nx.cycle_graph(6)
        topo = CompiledTopology(graph)
        for v in graph.nodes():
            assert topo.neighbors[v] == tuple(sorted(graph.neighbors(v)))
            assert topo.neighbor_sets[v] == set(graph.neighbors(v))

    def test_degree_table(self):
        graph = nx.star_graph(4)  # center 0 with 4 leaves
        topo = CompiledTopology(graph)
        assert topo.degree(0) == 4
        assert all(topo.degree(v) == 1 for v in range(1, 5))
        assert list(topo.degrees) == [4, 1, 1, 1, 1]

    def test_bandwidth_budget_precomputed(self):
        graph = nx.path_graph(9)
        topo = CompiledTopology(graph)
        assert topo.bandwidth_bits == default_bandwidth_bits(9)

    def test_validation_moved_into_topology(self):
        with pytest.raises(GraphInputError):
            CompiledTopology(nx.DiGraph([(0, 1)]))
        with pytest.raises(GraphInputError):
            CompiledTopology(nx.Graph())
        loop = nx.Graph()
        loop.add_edge(0, 0)
        with pytest.raises(GraphInputError):
            CompiledTopology(loop)
        with pytest.raises(GraphInputError):
            CompiledTopology(nx.MultiGraph([(0, 1), (0, 1)]))

    def test_self_loop_found_on_the_csr(self):
        """The loop sits on the last node in id order, on the graph and
        on subgraph views of it; views without it compile."""
        graph = nx.path_graph(6)
        graph.add_edge(5, 5)
        for view in (graph, graph.subgraph([0, 4, 5]), graph.subgraph(graph)):
            with pytest.raises(
                GraphInputError, match="CongestNetwork does not support self-loops"
            ):
                CompiledTopology(view)
        assert CompiledTopology(graph.subgraph(range(5))).m == 4

    def test_memo_hit_gaining_a_self_loop_recompiles(self):
        graph = nx.path_graph(4)
        compile_topology(graph)
        graph.add_edge(3, 3)
        with pytest.raises(GraphInputError, match="does not support self-loops"):
            compile_topology(graph)


def _differential_graphs():
    graphs = {
        f"planar-{family}": make_planar(family, 120, seed=1)
        for family in sorted(PLANAR_FAMILIES)
    }
    for far in sorted(FAR_FAMILIES):
        graphs[f"far-{far}"] = make_far(far, 120, seed=1)[0]
    graphs.update(edge_case_graphs())
    return graphs


DIFFERENTIAL_GRAPHS = _differential_graphs()


def _shuffled_dense_labels():
    """``0..n-1`` whose nodes and neighbors are inserted out of order."""
    base = make_planar("delaunay", 120, seed=2)
    edges = list(base.edges())
    random.Random(5).shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(random.Random(6).sample(range(120), 120))
    graph.add_edges_from(edges)
    return graph


def _ints_and_bools():
    """Ints from 2 up beside ``True`` and ``False``, which equal 1 and 0."""
    graph = nx.convert_node_labels_to_integers(
        make_planar("grid", 30, seed=0), first_label=2
    )
    return nx.relabel_nodes(graph, {2: True, 3: False})


def _one_to_n():
    return nx.convert_node_labels_to_integers(
        make_planar("delaunay", 120, seed=4), first_label=1
    )


def _int_enum_labels():
    graph = make_planar("delaunay", 60, seed=3)
    members = enum.IntEnum("Members", [(f"N{v}", v) for v in graph])
    return nx.relabel_nodes(graph, {v: members(v) for v in graph})


LABEL_CASES = {
    "dense-shuffled": _shuffled_dense_labels,
    "one-to-n": _one_to_n,
    "ints-and-bools": _ints_and_bools,
    "int-enum": _int_enum_labels,
}


class TestReferenceCompile:
    """The numpy-sorted CSR and the lazy views against the per-node loop."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
    def test_edge_count_is_half_the_slots(self, name):
        graph = DIFFERENTIAL_GRAPHS[name]
        assert CompiledTopology(graph).m == graph.number_of_edges()

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
    def test_tables_match_reference_loop(self, name):
        graph = DIFFERENTIAL_GRAPHS[name]
        topo = CompiledTopology(graph)
        ref = reference_topology(graph)
        assert topo.nodes == ref.nodes
        assert topo.index == ref.index
        for table in ("indptr", "indices", "degrees"):
            got = getattr(topo, table)
            assert type(got) is array and got.typecode == "q", table
            assert got == getattr(ref, table), table
        assert topo._neighbors is None
        assert topo.neighbors == ref.neighbors
        assert list(topo.neighbors) == list(ref.neighbors)
        assert topo.neighbor_sets == ref.neighbor_sets
        batch = topo.batch_arrays()
        assert batch.row_owner.tolist() == ref.row_owner
        assert topo.columns.tolist() == ref.columns

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
    def test_edge_arrays_match_reference_loop(self, name):
        topo = CompiledTopology(DIFFERENTIAL_GRAPHS[name])
        eu, ev = topo.edge_arrays()
        ref_u, ref_v = reference_edge_arrays(topo)
        assert eu.dtype == ev.dtype == ref_u.dtype
        assert eu.tolist() == ref_u.tolist()
        assert ev.tolist() == ref_v.tolist()
        assert len(eu) == topo.m

    @pytest.mark.parametrize("name", sorted(LABEL_CASES))
    def test_int_label_shapes_match_reference_loop(self, name):
        """All four give the reference loop's tables: ``0..n-1`` (here
        inserted out of order) takes the compile's own-index path, the
        shifted ints, the ints beside bools and the ``IntEnum`` labels
        the general one."""
        graph = LABEL_CASES[name]()
        assert len(graph) > 2 and all(isinstance(v, int) for v in graph)
        topo = CompiledTopology(graph)
        ref = reference_topology(graph)
        assert topo.nodes == ref.nodes
        assert [type(v) for v in topo.nodes] == [type(v) for v in ref.nodes]
        assert topo.index == ref.index
        for table in ("indptr", "indices", "degrees"):
            assert getattr(topo, table) == getattr(ref, table), table
        assert topo.columns.tolist() == ref.columns
        assert topo.neighbors == ref.neighbors

    def test_mixed_labels_compile_in_id_key_order(self):
        graph = edge_case_graphs()["mixed-labels"]
        topo = compile_topology(graph)
        # Ints numerically first, then the rest by repr ("'a'" < "(1, 0)").
        assert topo.nodes == (0, 2, 10, "a", "b", "z", (1, 0))
        parents, depths, _rounds = bfs_tree(graph, 0)
        assert depths == nx.single_source_shortest_path_length(graph, 0)
        assert parents[(1, 0)] == 2


class TestCompileMemo:
    def test_same_graph_object_compiles_once(self):
        reset_topology_stats()
        graph = nx.cycle_graph(8)
        first = compile_topology(graph)
        second = compile_topology(graph)
        assert first is second
        stats = topology_stats()
        assert stats.compiled == 1
        assert stats.reused == 1

    def test_mutated_graph_recompiles(self):
        # Memo hits whose node/edge counts drifted are stale and must
        # recompile (same-count rewires remain the caller's problem).
        graph = nx.path_graph(4)
        first = compile_topology(graph)
        graph.add_edge(0, 3)
        second = compile_topology(graph)
        assert second is not first
        assert second.neighbor_sets[0] == {1, 3}
        assert compile_topology(graph) is second

    def test_distinct_objects_compile_separately(self):
        reset_topology_stats()
        compile_topology(nx.cycle_graph(8))
        compile_topology(nx.cycle_graph(8))
        assert topology_stats().compiled == 2

    def test_networks_share_topology(self):
        graph = nx.path_graph(6)
        net1 = CongestNetwork(graph)
        net2 = CongestNetwork(graph, seed=3)
        assert net1.topology is net2.topology

    def test_explicit_topology_accepted(self):
        graph = nx.path_graph(4)
        topo = compile_topology(graph)
        net = CongestNetwork(topology=topo)
        assert net.graph is graph
        assert net.n == 4

    def test_mismatched_topology_rejected(self):
        topo = compile_topology(nx.path_graph(4))
        with pytest.raises(GraphInputError):
            CongestNetwork(nx.path_graph(4), topology=topo)

    def test_memo_releases_retired_graphs(self):
        graph = nx.cycle_graph(9)
        topology = compile_topology(graph)
        assert topology.graph is graph
        probe = weakref.ref(graph)
        del graph
        gc.collect()
        assert probe() is None
        assert topology.graph is None

    def test_network_keeps_its_graph(self):
        network = CongestNetwork(nx.path_graph(5))
        gc.collect()
        assert network.graph is not None
        assert network.topology.graph is network.graph

    def test_network_requires_graph_or_topology(self):
        with pytest.raises(GraphInputError):
            CongestNetwork()


class TestRuntimeTopologyReuse:
    def _trial_specs(self, trials):
        # Same graph coordinates across all trials (graph_seed pins the
        # graph); distinct seeds so nothing deduplicates away.
        return [
            JobSpec.make(
                "simulate_program",
                family="grid",
                n=25,
                seed=trial,
                graph_seed=0,
                program="bfs",
            )
            for trial in range(trials)
        ]

    def test_cached_sweep_compiles_topology_once(self, tmp_path):
        reset_topology_stats()
        batch = run_jobs(
            self._trial_specs(4), backend=SerialBackend(),
            store=ShardedStore(tmp_path / "store"),
        )
        assert batch.executed == 4
        assert topology_stats().compiled == 1  # acceptance criterion

    def test_uncached_sweep_compiles_topology_once(self):
        reset_topology_stats()
        batch = run_jobs(self._trial_specs(3), backend=SerialBackend())
        assert batch.executed == 3
        assert topology_stats().compiled == 1

    def test_graph_seed_splits_topologies(self):
        # delaunay generation is seed-sensitive (grid is not), so two
        # graph seeds really are two topologies.
        reset_topology_stats()
        specs = [
            JobSpec.make(
                "simulate_program",
                family="delaunay",
                n=25,
                seed=7,
                graph_seed=graph_seed,
                program="bfs",
            )
            for graph_seed in (0, 0, 1)
        ]
        run_jobs(specs, backend=SerialBackend())
        assert topology_stats().compiled == 2  # one per distinct graph


class TestGraphSeed:
    def test_graph_seed_defaults_to_seed(self):
        spec = JobSpec.make("test_planarity", family="grid", n=16, seed=5)
        assert spec.graph_seed is None
        assert spec.effective_graph_seed == 5

    def test_graph_seed_overrides_generation(self):
        pinned = JobSpec.make(
            "test_planarity", family="delaunay", n=32, seed=9, graph_seed=2
        )
        reference = JobSpec.make(
            "test_planarity", family="delaunay", n=32, seed=2
        )
        assert nx.utils.graphs_equal(
            pinned.build_graph(), reference.build_graph()
        )

    def test_canonical_unchanged_when_unset(self):
        spec = JobSpec.make("test_planarity", family="grid", n=16, seed=5)
        assert "graph_seed" not in spec.canonical()

    def test_canonical_includes_graph_seed_when_set(self):
        spec = JobSpec.make(
            "test_planarity", family="grid", n=16, seed=5, graph_seed=1
        )
        assert '"graph_seed":1' in spec.canonical()
