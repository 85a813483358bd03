"""Differential tests: the CSR-native partition engine vs the seed engine.

The acceptance bar of the dense-index pipeline: on every bundled
generator (planar and far families alike) the dense engine must produce
bit-identical partitions -- same parts, roots, spanning-tree parents and
heights -- plus identical phase statistics, ledger charges, round
totals, rejection evidence, and (for the randomized variant) identical
RNG-driven draws.  The legacy dict engine is retained exactly for this
comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from _reference_paths import edge_case_graphs, pinned_forest
from repro.congest.topology import compile_topology
from repro.errors import PartitionError
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES
from repro.graphs.generators import PLANAR_FAMILIES
from repro.partition import partition_randomized, partition_stage1
from repro.partition.dense import (
    DensePartitionState,
    cole_vishkin_dense,
    dense_supported,
    forest_decomposition_dense,
    forest_depths,
    mark_and_choose_dense,
    orient_and_select_dense,
)
from repro.partition.stage1 import ENGINE_ENV_VAR, ENGINES, resolve_engine

N = 150
SEEDS = (0, 1)


def _canonical(result):
    """Everything a Stage1Result exposes, in an order-insensitive shape."""
    parts = {
        part.pid: (part.nodes, dict(part.parents), part.height)
        for part in result.partition.parts.values()
    }
    return (
        parts,
        dict(result.partition.part_of),
        result.success,
        result.rejecting_parts,
        [vars(stats) for stats in result.phases],
        result.ledger.total,
        result.ledger.by_category(),
        [(r.rounds, r.category, r.note) for r in result.ledger.records],
        result.target_cut,
        result.theoretical_phase_cap,
    )


class TestStage1Differential:
    @pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
    def test_planar_families_identical(self, family):
        for seed in SEEDS:
            graph = make_planar(family, N, seed=seed)
            legacy = partition_stage1(graph, epsilon=0.1, engine="legacy")
            dense = partition_stage1(graph, epsilon=0.1, engine="dense")
            assert _canonical(legacy) == _canonical(dense), (family, seed)
            dense.partition.validate()

    @pytest.mark.parametrize("far", sorted(FAR_FAMILIES))
    def test_far_families_identical(self, far):
        graph, _farness = make_far(far, N, seed=0)
        legacy = partition_stage1(graph, epsilon=0.1, engine="legacy")
        dense = partition_stage1(graph, epsilon=0.1, engine="dense")
        assert _canonical(legacy) == _canonical(dense), far
        assert legacy.success == dense.success

    def test_eps_n_target_identical(self):
        graph = make_planar("delaunay", 200, seed=3)
        n = graph.number_of_nodes()
        legacy = partition_stage1(
            graph, epsilon=0.2, target_cut=0.2 * n, engine="legacy"
        )
        dense = partition_stage1(
            graph, epsilon=0.2, target_cut=0.2 * n, engine="dense"
        )
        assert _canonical(legacy) == _canonical(dense)

    def test_no_early_stop_identical(self):
        graph = make_planar("grid", 100, seed=0)
        legacy = partition_stage1(
            graph, epsilon=0.3, early_stop=False, max_phases=4, engine="legacy"
        )
        dense = partition_stage1(
            graph, epsilon=0.3, early_stop=False, max_phases=4, engine="dense"
        )
        assert _canonical(legacy) == _canonical(dense)


class TestRandomizedDifferential:
    @pytest.mark.parametrize("family", ("delaunay", "apollonian", "grid"))
    def test_same_rng_stream(self, family):
        for seed in SEEDS:
            graph = make_planar(family, N, seed=0)
            legacy = partition_randomized(
                graph, epsilon=0.2, delta=0.1, seed=seed, engine="legacy"
            )
            dense = partition_randomized(
                graph, epsilon=0.2, delta=0.1, seed=seed, engine="dense"
            )
            assert _canonical(legacy) == _canonical(dense), (family, seed)
            assert legacy.trials == dense.trials
            assert legacy.met_target == dense.met_target

    def test_randomized_coloring_variant_identical(self):
        graph = make_planar("tri-grid", 120, seed=0)
        legacy = partition_randomized(
            graph, epsilon=0.2, delta=0.2, seed=5,
            coloring="randomized", engine="legacy",
        )
        dense = partition_randomized(
            graph, epsilon=0.2, delta=0.2, seed=5,
            coloring="randomized", engine="dense",
        )
        assert _canonical(legacy) == _canonical(dense)

    @pytest.mark.parametrize(
        "family",
        ("grid", "tri-grid", "apollonian", "delaunay", "planar-sparse",
         "outerplanar", "tree"),
    )
    def test_vectorized_selection_matches_legacy_and_rng_stream(self, family):
        """The vectorized Theorem 4 selection draws the exact edges of
        the sequential loop *and* leaves the RNG in the same state, on
        the singleton aux of every bundled family."""
        import random

        from repro.congest.topology import compile_topology
        from repro.partition.dense import (
            DensePartitionState,
            weighted_selection_dense,
        )
        from repro.partition.weighted_selection import weighted_edge_selection

        graph = make_planar(family, 150, seed=0)
        aux = DensePartitionState(compile_topology(graph)).build_aux()
        for trials in (1, 2, 5):
            legacy_rng = random.Random(1234)
            dense_rng = random.Random(1234)
            legacy = weighted_edge_selection(aux, trials, legacy_rng)
            dense = weighted_selection_dense(aux, trials, dense_rng)
            assert legacy == dense, (family, trials)
            # Same draws consumed: subsequent randomness stays aligned.
            assert legacy_rng.getstate() == dense_rng.getstate()


class TestEngineResolution:
    def test_auto_picks_dense_for_int_labels(self):
        graph = make_planar("grid", 36, seed=0)
        assert dense_supported(graph)
        assert resolve_engine("auto", graph) == "dense"
        assert resolve_engine(None, graph) == "dense"

    def test_auto_falls_back_for_exotic_labels(self):
        import networkx as nx

        graph = nx.path_graph(["a", "b", "c"])
        assert not dense_supported(graph)
        assert resolve_engine("auto", graph) == "legacy"
        with pytest.raises(ValueError, match="dense partition engine"):
            resolve_engine("dense", graph)
        # The legacy engine still runs such graphs.
        result = partition_stage1(graph, epsilon=0.5)
        assert result.success

    def test_env_var_selects_engine(self, monkeypatch):
        graph = make_planar("grid", 36, seed=0)
        monkeypatch.setenv(ENGINE_ENV_VAR, "legacy")
        assert resolve_engine(None, graph) == "legacy"
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
        with pytest.raises(ValueError, match="unknown partition engine"):
            resolve_engine(None, graph)

    def test_engine_registry(self):
        assert set(ENGINES) == {"auto", "dense", "legacy"}


def _next_contraction(state, alpha=3):
    """One deterministic phase's star contraction on any topology.

    Cole-Vishkin seeds from the dense root indices, so the loop runs on
    graphs whose labels the Stage I engine itself would refuse.  Returns
    ``None`` when the phase contracts nothing.
    """
    if state.cut_size() == 0:
        return None
    aux = state.build_aux()
    success, _active, inactive_round, _rounds = forest_decomposition_dense(
        aux, alpha, n_graph=state.topology.n, height=state.max_height()
    )
    if not success:
        return None
    parent, weight = orient_and_select_dense(aux, inactive_round)
    colors, _cv = cole_vishkin_dense(parent, np.asarray(aux.pids, dtype=np.int64))
    marking = mark_and_choose_dense(parent, weight, colors)
    if not marking.contract_edges:
        return None
    pids = aux.pids
    return [(pids[c], pids[p]) for c, p in marking.contract_edges], aux


def _drive(graph, phases=12):
    state = DensePartitionState(compile_topology(graph))
    for _ in range(phases):
        step = _next_contraction(state)
        if step is None:
            break
        state.merge(*step)
    return state


class TestForestDifferential:
    """Pointer-reversal merges against the BFS re-root, phase by phase."""

    @pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
    def test_planar_families_match_bfs_reroot(self, family):
        for seed in SEEDS:
            graph = make_planar(family, N, seed=seed)
            with pinned_forest() as checked:
                result = partition_stage1(graph, epsilon=0.1, engine="dense")
            assert checked, (family, seed)
            assert result.dense_state.size == checked[-1][1]

    @pytest.mark.parametrize("far", sorted(FAR_FAMILIES))
    def test_far_families_match_bfs_reroot(self, far):
        graph, _farness = make_far(far, N, seed=0)
        with pinned_forest():
            partition_stage1(graph, epsilon=0.1, engine="dense")
        with pinned_forest():
            _drive(graph)

    @pytest.mark.parametrize("family", ("delaunay", "apollonian", "tree"))
    def test_randomized_merges_match_bfs_reroot(self, family):
        graph = make_planar(family, N, seed=0)
        with pinned_forest() as checked:
            partition_randomized(
                graph, epsilon=0.2, delta=0.1, seed=3, engine="dense"
            )
        assert checked

    @pytest.mark.parametrize("name", sorted(edge_case_graphs()))
    def test_edge_case_graphs_match_bfs_reroot(self, name):
        graph = edge_case_graphs()[name]
        with pinned_forest():
            state = _drive(graph)
        assert sum(state.sizes.values()) == graph.number_of_nodes()

    def test_cycle_raises(self):
        parent = np.array([-1, 2, 1, 0], dtype=np.int64)
        with pytest.raises(PartitionError, match="cycle"):
            forest_depths(parent, np.zeros(4, dtype=np.int64))
        state = _drive(make_planar("grid", 100, seed=0), phases=1)
        root = max(state.sizes, key=state.sizes.get)
        member = int(np.nonzero(state.part_of == root)[0][-1])
        state.parent[root] = member
        with pytest.raises(PartitionError, match="cycle"):
            state.merge(*_next_contraction(state))

    def test_unreachable_node_raises(self):
        state = _drive(make_planar("grid", 100, seed=0), phases=1)
        root = max(state.sizes, key=state.sizes.get)
        member = int(np.nonzero((state.part_of == root) & (state.parent >= 0))[0][0])
        state.parent[member] = -1
        with pytest.raises(PartitionError, match="does not reach"):
            state.merge(*_next_contraction(state))
