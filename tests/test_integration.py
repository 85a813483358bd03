"""Cross-layer integration tests: the invariants the paper's proofs chain
together, checked end-to-end on single instances."""

from __future__ import annotations

import networkx as nx

from _reference_paths import labels_by_id
from _stage1_reference import AuxiliaryGraph, node_sets, to_partition
from repro.congest.programs import bfs_tree
from repro.graphs import make_far, make_planar
from repro.partition import partition_stage1
from repro.planarity import check_planarity, verify_planar_embedding
from repro.testers import test_planarity as run_planarity


class TestClaim3Chain:
    """Claim 3: Stage I success on an eps-far graph forces a far part."""

    def test_far_graph_partition_leaves_far_part(self):
        graph, certified = make_far("planted-k5", 250, seed=1)
        eps = min(0.25, certified)
        result = partition_stage1(graph, epsilon=eps)
        if not result.success:
            return  # rejection is also a valid outcome
        assert result.partition.cut_size() <= eps * graph.number_of_edges() / 2
        # sum over parts of distance-to-planarity >= eps*m/2: at least one
        # part must be non-planar
        nonplanar_parts = [
            pid
            for pid, nodes in node_sets(result.partition).items()
            if not check_planarity(graph.subgraph(nodes)).is_planar
        ]
        assert nonplanar_parts


class TestLemma6Chain:
    """Lemma 6 invariants feed Stage II: roots, trees, diameters."""

    def test_part_trees_usable_for_bfs(self):
        graph = make_planar("delaunay", 300, seed=2)
        result = partition_stage1(graph, epsilon=0.2)
        for pid, part in to_partition(result.partition, graph).parts.items():
            depths = labels_by_id(graph.subgraph(part.nodes), part.root).depths
            assert max(depths.values(), default=0) <= 2 * part.height + 1

    def test_bfs_tree_matches_congest_protocol_per_part(self):
        graph = make_planar("grid", 150, seed=3)
        result = partition_stage1(graph, epsilon=0.3)
        parts = to_partition(result.partition, graph).parts
        part = parts[max(parts, key=lambda p: len(parts[p]))]
        sub = nx.Graph(graph.subgraph(part.nodes))
        sim_parents, sim_depths, _ = bfs_tree(sub, part.root)
        assert sim_depths == labels_by_id(sub, part.root).depths


class TestEmbeddingChain:
    """Planar parts always receive a genuine, verified embedding."""

    def test_part_embeddings_verify(self):
        graph = make_planar("apollonian", 250, seed=4)
        result = partition_stage1(graph, epsilon=0.2)
        for nodes in node_sets(result.partition).values():
            sub = nx.Graph(graph.subgraph(nodes))
            lr = check_planarity(sub)
            assert lr.is_planar
            verify_planar_embedding(lr.embedding, sub)


class TestAuxiliaryConsistency:
    def test_aux_weight_equals_cut(self):
        graph = make_planar("tri-grid", 200, seed=5)
        result = partition_stage1(graph, epsilon=0.3)
        aux = AuxiliaryGraph(to_partition(result.partition, graph))
        assert aux.total_weight() == result.partition.cut_size()

    def test_connectors_are_graph_edges(self):
        graph = make_planar("delaunay", 200, seed=6)
        result = partition_stage1(graph, epsilon=0.3)
        partition = to_partition(result.partition, graph)
        for edge in AuxiliaryGraph(partition).edges():
            u, v = edge.connector
            assert graph.has_edge(u, v)
            assert partition.part_of[u] == edge.parts[0]
            assert partition.part_of[v] == edge.parts[1]


class TestSoundnessStatistics:
    """Detection probability tracks the certified farness (Corollary 9)."""

    def test_high_farness_always_detected(self):
        graph, certified = make_far("gnp", 200, seed=7)
        assert certified > 0.3
        for seed in range(5):
            assert not run_planarity(graph, epsilon=0.25, seed=seed).accepted

    def test_detection_against_ground_truth(self):
        # certified farness lower bound should never exceed reality: if the
        # tester rejects a graph, the graph is genuinely non-planar.
        for fam_seed in range(4):
            graph, _ = make_far("planted-k33", 150, seed=fam_seed)
            result = run_planarity(graph, epsilon=0.1, seed=0)
            if not result.accepted:
                assert not check_planarity(graph).is_planar

    def test_one_sided_error_bulk(self):
        """64 planar instances, zero rejections."""
        rejections = 0
        for family in ("grid", "apollonian", "delaunay", "outerplanar"):
            for seed in range(16):
                graph = make_planar(family, 80, seed=seed)
                result = run_planarity(graph, epsilon=0.2, seed=seed)
                rejections += not result.accepted
        assert rejections == 0


class TestLedgerAudit:
    def test_every_round_charge_categorized(self):
        graph = make_planar("delaunay", 150, seed=8)
        result = partition_stage1(graph, epsilon=0.2)
        total = sum(result.ledger.by_category().values())
        assert total == result.ledger.total

    def test_stage_categories_present(self):
        graph = make_planar("delaunay", 150, seed=8)
        result = partition_stage1(graph, epsilon=0.2)
        categories = result.ledger.by_category()
        assert any(c.startswith("stage1.forest") for c in categories)
        assert any(c.startswith("stage1.coloring") for c in categories)
        assert any(c.startswith("stage1.merge") for c in categories)
