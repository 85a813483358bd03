"""Differential tests: the Stage II pipeline vs the seed path.

Covers the three substitutions -- one-pass part relabeling, the numpy
violating mask resolving sampled interlacements, and the dense Stage I
feeding the tester -- asserting identical per-part verdicts, reasons,
sampled counts, and round charges against the seed path (per-part
relabeling from subgraph views + pairwise scans, patched in by
:func:`_reference_paths.seed_stage2`, + the reference Stage I of
:func:`_stage1_reference.reference_stage1`) on planar and far
generators alike, under every label type of
:data:`_stage1_reference.RELABELINGS`.  Instances that reject inside
Stage II are also pinned to the figures the dict-keyed seed
implementation produced.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from _reference_paths import (
    _pairwise_scan,
    _per_part_views,
    seed_stage2,
    violating_mask_bruteforce,
)
from _stage1_reference import (
    RELABELINGS,
    label_cases,
    node_sets,
    reference_stage1,
    relabeled,
    to_partition,
)
from repro.congest.topology import compile_topology
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES, planted_kuratowski
from repro.graphs.generators import PLANAR_FAMILIES
from repro.partition import DensePartitionState, partition_stage1
from repro.planarity.lr_planarity import LocalGraph
from repro.testers.planarity import PlanarityTestConfig, stage2_over_partition
from repro.testers.planarity import test_planarity as run_planarity
from repro.testers.stage2 import Stage2Config, extract_part_subgraphs
from repro.testers.violations import sample_and_detect, violating_mask

def run_seed(graph, seed, **config):
    """The tester on the seed path: reference Stage I and Stage II."""
    with seed_stage2(), reference_stage1():
        return run_planarity(
            graph, seed=seed, config=PlanarityTestConfig(**config)
        )


def _canonical(result):
    return (
        result.accepted,
        result.rejected_stage,
        result.rejecting_parts,
        result.stage1_rounds,
        result.stage2_rounds,
        [
            (
                verdict.pid,
                verdict.accepted,
                verdict.reason,
                verdict.n,
                verdict.m,
                verdict.non_tree_edges,
                verdict.bfs_depth,
                verdict.embedding_planar,
                verdict.sampled,
                verdict.violating_exact,
                verdict.rounds,
            )
            for verdict in (result.part_verdicts or [])
        ],
    )


class TestTesterDifferential:
    @pytest.mark.parametrize(
        "family, relabeling", label_cases(sorted(PLANAR_FAMILIES))
    )
    def test_planar_families_identical(self, family, relabeling):
        graph = relabeled(make_planar(family, 150, seed=0), relabeling)
        for seed in (0, 1):
            fast = run_planarity(
                graph, seed=seed, config=PlanarityTestConfig(epsilon=0.1)
            )
            reference = run_seed(graph, seed, epsilon=0.1)
            assert _canonical(fast) == _canonical(reference), (family, seed)

    @pytest.mark.parametrize("far, relabeling", label_cases(sorted(FAR_FAMILIES)))
    def test_far_families_identical(self, far, relabeling):
        graph, certified = make_far(far, 150, seed=0)
        graph = relabeled(graph, relabeling)
        epsilon = min(0.3, max(0.05, certified * 0.9))
        for seed in (0, 1, 2):
            fast = run_planarity(
                graph, seed=seed, config=PlanarityTestConfig(epsilon=epsilon)
            )
            reference = run_seed(graph, seed, epsilon=epsilon)
            assert _canonical(fast) == _canonical(reference), (far, seed)

    def test_exact_violation_analysis_identical(self):
        graph, _ = make_far("planted-k5", 120, seed=0)
        fast = run_planarity(
            graph,
            seed=0,
            config=PlanarityTestConfig(
                epsilon=0.1, collect_exact_violations=True
            ),
        )
        reference = run_seed(graph, 0, epsilon=0.1, collect_exact_violations=True)
        assert fast.total_violating_exact == reference.total_violating_exact
        assert _canonical(fast) == _canonical(reference)


    def test_seed_path_bypasses_fast_paths(self, monkeypatch):
        """The reference patch really swaps both Stage II shortcuts out."""
        import repro.testers.planarity as planarity_module
        import repro.testers.violations as violations_module

        def fast_path(*args, **kwargs):
            raise AssertionError("fast path reached")

        monkeypatch.setattr(planarity_module, "extract_part_subgraphs", fast_path)
        monkeypatch.setattr(violations_module, "_violating_array", fast_path)
        graph = make_planar("grid", 64, seed=0)
        with seed_stage2(), reference_stage1() as built:
            seed_path = run_planarity(
                graph, seed=0, config=PlanarityTestConfig(epsilon=0.2)
            )
        assert seed_path.accepted
        assert len(built) == 1  # the reference Stage I ran
        with pytest.raises(AssertionError, match="fast path reached"):
            run_planarity(graph, seed=0, config=PlanarityTestConfig(epsilon=0.2))


class TestExtraction:
    def test_subgraphs_match_views_exactly(self):
        graph = make_planar("delaunay", 200, seed=1)
        stage1 = partition_stage1(graph, epsilon=0.2)
        partition = to_partition(stage1.partition, graph)
        subs = extract_part_subgraphs(graph, stage1.partition)
        assert set(subs) == set(partition.parts)
        for pid, part in partition.parts.items():
            view = graph.subgraph(part.nodes)
            sub = subs[pid]
            # Same node set and iteration order as the view.
            assert sub.nodes == list(view.nodes())
            assert sub.index == {v: i for i, v in enumerate(sub.nodes)}
            assert sub.m == view.number_of_edges()
            for i, node in enumerate(sub.nodes):
                # Same per-row adjacency iteration order.
                assert [sub.nodes[j] for j in sub.rows[i]] == list(view.adj[node])

    @pytest.mark.parametrize(
        "family, relabeling",
        label_cases(sorted(PLANAR_FAMILIES)) + label_cases(sorted(FAR_FAMILIES)),
    )
    def test_matches_oracle_views(self, family, relabeling):
        """Node order and rows equal those of each oracle part's own
        ``graph.subgraph(part.nodes)`` view."""
        for n in (300, 1500) if family in PLANAR_FAMILIES else (300,):
            if family in PLANAR_FAMILIES:
                graph = make_planar(family, n, seed=0)
            else:
                graph = make_far(family, n, seed=0)[0]
            graph = relabeled(graph, relabeling)
            state = partition_stage1(graph, epsilon=0.1).partition
            subs = extract_part_subgraphs(graph, state)
            parts = to_partition(state, graph).parts
            assert list(subs) == list(parts)
            for pid, part in parts.items():
                reference = LocalGraph.from_graph(graph.subgraph(part.nodes))
                assert subs[pid].nodes == reference.nodes, (n, pid)
                assert subs[pid].rows == reference.rows, (n, pid)

    def test_extraction_matches_view_relabeling(self):
        # A part larger than half the graph iterates in parent order, a
        # small one in its node set's order; relabeling the grid makes the
        # two orders differ, so both of networkx's filter-atlas branches
        # are pinned.
        grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(6, 6))
        graph = nx.relabel_nodes(grid, {v: 7 * v % 36 for v in grid})
        big = frozenset(7 * v % 36 for v in range(30))
        small = frozenset(7 * v % 36 for v in range(30, 36))
        # Extraction reads part membership only, so star-shaped parent
        # vectors (not graph edges) are enough to name the two parts.
        topology = compile_topology(graph)
        index = topology.index
        parent = [-1] * 36
        for root, part in ((0, big), (30, small)):
            for v in part - {root}:
                parent[index[v]] = index[root]
        state = DensePartitionState.from_forest(topology, parent)
        assert node_sets(state) == {0: big, 30: small}
        subs = extract_part_subgraphs(graph, state)
        assert subs[30].nodes != [v for v in graph if v in small]
        for pid, nodes in node_sets(state).items():
            reference = LocalGraph.from_graph(graph.subgraph(nodes))
            assert subs[pid].nodes == reference.nodes
            assert subs[pid].rows == reference.rows


def shuffled(graph, seed):
    """*graph* rebuilt with nodes and edges inserted in a shuffled order,
    so its node order and every ``_adj`` row differ from ``id_key`` order."""
    rng = random.Random(seed)
    nodes, edges = list(graph), list(graph.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    out = nx.Graph()
    out.add_nodes_from(nodes)
    out.add_edges_from(edges)
    return out


def forest_state(graph, parts):
    """A dense state whose parts are *parts* (lists of dense indices, root
    first), each a star: extraction reads membership only."""
    topology = compile_topology(graph)
    parent = [-1] * topology.n
    for part in parts:
        for i in part[1:]:
            parent[i] = part[0]
    return DensePartitionState.from_forest(topology, parent)


class TestExtractionOrder:
    """The array extraction against the view oracle on shuffled inputs,
    through both of networkx's filter-atlas branches."""

    @staticmethod
    def assert_matches_views(graph, state):
        subs = extract_part_subgraphs(graph, state)
        views = _per_part_views(graph, state)
        assert set(subs) == set(views)
        for pid, view in views.items():
            sub = subs[pid]
            assert sub.nodes == view.nodes, pid
            assert sub.rows == view.rows, pid
            assert sub.index == view.index, pid
        return subs

    @pytest.mark.parametrize("relabeling", sorted(RELABELINGS))
    def test_stage1_parts(self, relabeling):
        graph = relabeled(make_planar("delaunay", 300, seed=2), relabeling)
        graph = shuffled(graph, 5)
        state = partition_stage1(graph, epsilon=0.1).partition
        self.assert_matches_views(graph, state)

    @pytest.mark.parametrize("relabeling", sorted(RELABELINGS))
    @pytest.mark.parametrize("layout", ["halves", "big+small"])
    def test_large_and_small_parts(self, relabeling, layout):
        graph = relabeled(make_planar("delaunay", 120, seed=4), relabeling)
        graph = shuffled(graph, 9)
        topology = compile_topology(graph)
        dense = list(range(topology.n))
        random.Random(3).shuffle(dense)
        if layout == "halves":  # 2|P| == n: both parts take the graph order
            parts = [sorted(dense[:60]), sorted(dense[60:])]
        else:  # one part in the graph order, the rest in set order
            parts = [sorted(dense[k : k + 5]) for k in range(100, 120, 5)]
            parts.insert(0, sorted(dense[:100]))
        subs = self.assert_matches_views(graph, forest_state(graph, parts))
        # The orders differ from the dense order and, for small parts, from
        # the graph order, so neither shortcut would pass.
        ids, order = topology.nodes, list(graph)
        big = subs[ids[parts[0][0]]]
        assert big.nodes != [ids[i] for i in parts[0]]
        if layout == "big+small":
            assert any(
                subs[ids[p[0]]].nodes != [v for v in order if topology.index[v] in p]
                for p in parts[1:]
            )

    def test_subgraph_view_input(self):
        base = shuffled(make_planar("delaunay", 200, seed=6), 1)
        graph = base.subgraph(list(base)[:150])
        state = partition_stage1(graph, epsilon=0.1).partition
        self.assert_matches_views(graph, state)
        dense = list(range(150))
        random.Random(8).shuffle(dense)
        # The view's own subgraph compares 2|P| with the base graph's 200
        # nodes: two parts of 75 take the set order, not the view's order.
        for split in (60, 75, 100):
            parts = [sorted(dense[:split]), sorted(dense[split:])]
            self.assert_matches_views(graph, forest_state(graph, parts))


class TestSamplingFastPath:
    def test_mask_resolution_matches_scan(self):
        rng_intervals = random.Random(7)
        for _trial in range(50):
            k = rng_intervals.randrange(0, 40)
            universe = max(2 * k, 4)
            intervals = []
            for _ in range(k):
                a, b = rng_intervals.sample(range(universe), 2)
                intervals.append((min(a, b), max(a, b)))
            for seed in range(3):
                scan = _pairwise_scan(intervals, 5, random.Random(seed))
                fast = sample_and_detect(
                    intervals, 5, random.Random(seed), universe=universe
                )
                assert scan == fast

    def test_numpy_mask_matches_bruteforce(self):
        # Small universes force duplicate endpoints and shared corners.
        rng = random.Random(11)
        for _trial in range(300):
            universe = rng.randrange(2, 30)
            intervals = []
            for _ in range(rng.randrange(0, 25)):
                a, b = rng.sample(range(universe), 2)
                intervals.append((min(a, b), max(a, b)))
            intervals += rng.sample(intervals, min(3, len(intervals)))
            assert violating_mask(intervals, universe) == violating_mask_bruteforce(
                intervals
            )


def chorded(family, n, extra, seed):
    """A planar family member plus *extra* random chords: sparse enough
    to pass the density check, non-planar enough to reject in Stage II."""
    graph = make_planar(family, n, seed=seed)
    rng = random.Random(seed)
    nodes = list(graph)
    while extra:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
            extra -= 1
    return graph


def stage2_rejecting(name):
    family, seed = name.split("/")
    seed = int(seed)
    if family == "planted-k5":
        return planted_kuratowski(400, count=20, minor="k5", seed=seed)[0]
    if family == "str-outerplanar+10":
        return nx.relabel_nodes(chorded("outerplanar", 400, 10, seed), "v{}".format)
    base, extra = family.split("+")
    return chorded(base, 400, int(extra), seed)


# Figures of the dict-keyed seed implementation, epsilon 0.1, seed 0,
# exact violations on: (stage, rejecting parts, Stage II rounds,
# [(pid, reason, embedding planar, sampled, violating, rounds) per
# rejecting part], total sampled, total violating).  The chorded parts
# fail the LR test and fall back to the repr-sorted identity rotation;
# the planted K5s fail the density check.
SEED_REJECTIONS = {
    "outerplanar+10/0": (
        "stage2", [198], 2487, [(198, "violation", False, 161, 59, 2487)], 227, 59
    ),
    "tree+30/0": (
        "stage2", [286], 1177, [(286, "violation", False, 29, 29, 1177)], 29, 29
    ),
    "planted-k5/0": ("stage2", [6], 15, [(6, "density", False, 0, None, 15)], 0, 0),
    "outerplanar+10/1": (
        "stage2", [331], 2847, [(331, "violation", False, 185, 73, 2847)], 198, 73
    ),
    "tree+30/1": (
        "stage2", [174], 947, [(174, "violation", False, 28, 27, 947)], 28, 27
    ),
    "planted-k5/1": ("stage2", [27], 21, [(27, "density", False, 0, None, 21)], 0, 0),
    "outerplanar+10/2": (
        "stage2", [219], 3339, [(219, "violation", False, 171, 37, 3339)], 213, 37
    ),
    "tree+30/2": (
        "stage2", [263], 1557, [(263, "violation", False, 30, 28, 1557)], 30, 28
    ),
    "planted-k5/2": ("stage2", [19], 18, [(19, "density", False, 0, None, 18)], 0, 0),
    "str-outerplanar+10/0": (
        "stage2",
        ["v338"],
        3377,
        [("v338", "violation", False, 173, 76, 3377)],
        192,
        76,
    ),
    "str-outerplanar+10/1": (
        "stage2",
        ["v69"],
        2455,
        [("v69", "violation", False, 184, 48, 2455)],
        289,
        48,
    ),
}


class TestStage2Rejections:
    @pytest.mark.parametrize("name", sorted(SEED_REJECTIONS))
    def test_matches_seed_figures(self, name):
        graph = stage2_rejecting(name)
        results = [
            run_planarity(
                graph,
                seed=0,
                config=PlanarityTestConfig(
                    epsilon=0.1, collect_exact_violations=True
                ),
            ),
            run_seed(graph, 0, epsilon=0.1, collect_exact_violations=True),
        ]
        assert _canonical(results[0]) == _canonical(results[1])
        result = results[0]
        verdicts = result.part_verdicts
        assert (
            result.rejected_stage,
            list(result.rejecting_parts),
            result.stage2_rounds,
            [
                (
                    v.pid,
                    v.reason,
                    v.embedding_planar,
                    v.sampled,
                    v.violating_exact,
                    v.rounds,
                )
                for v in verdicts
                if not v.accepted
            ],
            sum(v.sampled for v in verdicts),
            sum(v.violating_exact or 0 for v in verdicts),
        ) == SEED_REJECTIONS[name]

    def test_exact_violations_identical_across_paths(self):
        graph = stage2_rejecting("outerplanar+10/0")
        partition = partition_stage1(graph, epsilon=0.1).partition
        config = Stage2Config(epsilon=0.1, collect_exact_violations=True)

        def outcome():
            verdicts, rejecting, rounds = stage2_over_partition(
                graph, partition, config, seed=0
            )
            return rejecting, rounds, [vars(v) for v in verdicts]

        fast = outcome()
        with seed_stage2():
            assert outcome() == fast
