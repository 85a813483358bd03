"""Direct tests for Stage II per-part verification (test_part)."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from _stage1_reference import build_part, to_partition
from repro.congest import RoundLedger
from repro.graphs import make_planar
from repro.planarity.lr_planarity import LocalGraph
from repro.testers import stage2
from repro.testers.stage2 import Stage2Config


def run_part(graph, part, **kwargs):
    """Stage II on *part*, relabeled from its ``graph.subgraph`` view."""
    sub = LocalGraph.from_graph(graph.subgraph(part.nodes))
    return stage2.test_part(part.root, sub, **kwargs)


def whole_graph_part(graph, root=0):
    """Wrap the entire connected graph as a single part."""
    parents = {}
    depths = nx.single_source_shortest_path_length(graph, root)
    for v, d in depths.items():
        if v == root:
            continue
        parents[v] = min(w for w in graph.neighbors(v) if depths[w] == d - 1)
    return build_part(root, graph.nodes(), list(parents.items()))


class TestPartVerdicts:
    def test_planar_part_accepted(self):
        graph = make_planar("delaunay", 120, seed=0)
        part = whole_graph_part(graph)
        verdict = run_part(
            graph, part, n_total=120, rng=random.Random(0),
            config=Stage2Config(epsilon=0.1),
        )
        assert verdict.accepted
        assert verdict.embedding_planar
        assert verdict.reason is None

    def test_k5_part_density_rejected(self, k5):
        part = whole_graph_part(k5)
        verdict = run_part(
            k5, part, n_total=5, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3),
        )
        assert not verdict.accepted
        assert verdict.reason == "density"  # 10 > 3*5-6

    def test_sparse_nonplanar_part_violation_rejected(self, k33):
        # K33: m=9 <= 3*6-6=12 passes density; caught by sampling
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3),
        )
        assert not verdict.accepted
        assert verdict.reason == "violation"
        assert not verdict.embedding_planar

    def test_embedding_failure_mode(self, k33):
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3, reject_on_embedding_failure=True),
        )
        assert verdict.reason == "embedding"

    def test_exact_violation_collection(self, k33):
        part = whole_graph_part(k33)
        verdict = run_part(
            k33, part, n_total=6, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3, collect_exact_violations=True),
        )
        assert verdict.violating_exact is not None
        assert verdict.violating_exact > 0

    def test_single_node_part(self):
        graph = nx.Graph()
        graph.add_node(0)
        part = build_part(0, [0], [])
        verdict = run_part(
            graph, part, n_total=1, rng=random.Random(0),
            config=Stage2Config(epsilon=0.3),
        )
        assert verdict.accepted
        assert verdict.non_tree_edges == 0

    def test_tree_part_trivially_accepted(self):
        tree = nx.random_labeled_tree(50, seed=1)
        part = whole_graph_part(tree)
        verdict = run_part(
            tree, part, n_total=50, rng=random.Random(0),
            config=Stage2Config(epsilon=0.1),
        )
        assert verdict.accepted
        assert verdict.sampled == 0  # no non-tree edges to sample

    def test_ledger_merging(self):
        graph = make_planar("grid", 64, seed=0)
        part = whole_graph_part(graph)
        ledger = RoundLedger()
        verdict = run_part(
            graph, part, n_total=64, rng=random.Random(0),
            config=Stage2Config(epsilon=0.2), ledger=ledger,
        )
        assert ledger.total == verdict.rounds
        categories = ledger.by_category()
        for expected in ("stage2.bfs", "stage2.counts", "stage2.embedding",
                         "stage2.labels", "stage2.sampling"):
            assert expected in categories, expected

    def test_rounds_scale_with_depth(self):
        # Compare the BFS phase alone: the shallow graph has far more
        # non-tree edges, so total rounds are dominated by sampling there.
        shallow = make_planar("apollonian", 100, seed=0)  # small diameter
        deep = nx.path_graph(100)
        deep.add_edge(0, 99)  # one non-tree edge so sampling runs
        ledger_shallow, ledger_deep = RoundLedger(), RoundLedger()
        v_shallow = run_part(
            shallow, whole_graph_part(shallow), n_total=100,
            rng=random.Random(0), config=Stage2Config(epsilon=0.2),
            ledger=ledger_shallow,
        )
        v_deep = run_part(
            deep, whole_graph_part(deep), n_total=100,
            rng=random.Random(0), config=Stage2Config(epsilon=0.2),
            ledger=ledger_deep,
        )
        assert v_deep.bfs_depth > v_shallow.bfs_depth
        assert (
            ledger_deep.by_category()["stage2.bfs"]
            > ledger_shallow.by_category()["stage2.bfs"]
        )


class TestRemark1Coloring:
    """Randomized coloring with abstention (Remark 1 trade-off)."""

    def test_proper_among_participants(self):
        from repro.partition.dense import randomized_coloring_dense

        parent = (np.arange(301, dtype=np.int64) + 1) % 301  # directed cycle
        colors, abstaining = randomized_coloring_dense(
            parent, rounds=8, rng=random.Random(1)
        )
        for v, p in enumerate(parent.tolist()):
            if colors[v] >= 0 and colors[p] >= 0:
                assert colors[v] != colors[p]
        assert abstaining == int((colors < 0).sum()) <= 301

    def test_abstention_rate_drops_with_rounds(self):
        from repro.partition.dense import randomized_coloring_dense

        parent = np.arange(-1, 1999, dtype=np.int64)  # a path rooted at 0
        few = sum(
            randomized_coloring_dense(parent, 1, random.Random(s))[1]
            for s in range(5)
        )
        many = sum(
            randomized_coloring_dense(parent, 10, random.Random(s))[1]
            for s in range(5)
        )
        assert many <= few

    def test_invalid_rounds(self):
        from repro.errors import PartitionError
        from repro.partition.dense import randomized_coloring_dense

        with pytest.raises(PartitionError):
            randomized_coloring_dense(
                np.array([-1], dtype=np.int64), rounds=0, rng=random.Random(0)
            )

    def test_partition_with_randomized_coloring(self):
        from repro.partition import partition_randomized

        graph = make_planar("grid", 200, seed=0)
        result = partition_randomized(
            graph, epsilon=0.25, delta=0.2, seed=4, coloring="randomized"
        )
        to_partition(result.partition, graph).validate()
        assert result.met_target

    def test_unknown_coloring(self, small_grid):
        from repro.partition import partition_randomized

        with pytest.raises(ValueError):
            partition_randomized(
                small_grid, epsilon=0.3, seed=0, coloring="chromatic"
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coloring": "chromatic"},
            {"coloring_rounds": 0},
            {"coloring": "randomized", "coloring_rounds": 0},
        ],
        ids=["unknown-coloring", "zero-rounds-cv", "zero-rounds-randomized"],
    )
    @pytest.mark.parametrize(
        "graph",
        [nx.empty_graph(5), nx.grid_2d_graph(5, 5)],
        ids=["edgeless", "grid"],
    )
    def test_arguments_validated_up_front(self, graph, kwargs):
        """Bad arguments raise before the phase loop, even with no phases."""
        from repro.partition import partition_randomized

        with pytest.raises(ValueError):
            partition_randomized(graph, epsilon=0.2, seed=0, **kwargs)

    def test_marking_skips_abstainers(self):
        from _stage1_reference import dense_marking

        out_edge = {0: 1, 1: 2, 2: None}
        weights = {(0, 1): 5, (1, 2): 7}
        colors = {0: 0, 1: None, 2: 1}  # node 1 abstained
        result = dense_marking(out_edge, weights, colors)
        # no edge incident to the abstainer may be marked
        assert set(result.marked_idx.tolist()).isdisjoint({0, 1})
