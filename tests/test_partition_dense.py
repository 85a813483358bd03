"""Differential tests: the Stage I engine vs the dict-keyed reference.

The acceptance bar of the dense-index pipeline: on every bundled
generator (planar and far families alike), under every label type of
:data:`_stage1_reference.RELABELINGS`, the engine must produce
bit-identical partitions -- same parts, roots, spanning-tree parents and
heights -- plus identical phase statistics, ledger charges, round
totals, rejection evidence, and (for the randomized variant) identical
RNG-driven draws.  The dict engine lives on in
``tests/_stage1_reference.py`` exactly for this comparison.
"""

from __future__ import annotations

import gc
import random
import sys
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from _reference_paths import edge_case_graphs, pinned_forest
from _stage1_reference import (
    AuxiliaryGraph,
    Partition,
    label_cases,
    node_sets,
    reference_partition_randomized,
    reference_partition_stage1,
    relabeled,
    to_partition,
    weighted_edge_selection,
)
from repro.baselines import mpx_partition
from repro.congest.topology import compile_topology
from repro.errors import PartitionError
from repro.graphs import make_far, make_planar
from repro.graphs.far_from_planar import FAR_FAMILIES, planted_kuratowski
from repro.graphs.generators import PLANAR_FAMILIES
from repro.partition import partition_randomized, partition_stage1
from repro.partition.dense import (
    DensePartitionState,
    cole_vishkin_dense,
    forest_decomposition_dense,
    forest_depths,
    mark_and_choose_dense,
    orient_and_select_dense,
    weighted_selection_dense,
)

N = 150
SEEDS = (0, 1)


def _canonical(result):
    """Everything a Stage1Result exposes, in an order-insensitive shape.

    A dense partition is compared as the dict oracle's
    :class:`Partition`; the empty graph's partition (``None`` in the
    engine, an empty oracle one) has no parts.
    """
    partition = result.partition
    if isinstance(partition, DensePartitionState):
        partition = to_partition(partition, partition.topology.graph)
    parts = {
        part.pid: (part.nodes, dict(part.parents), part.height)
        for part in (partition.parts.values() if partition is not None else ())
    }
    return (
        parts,
        dict(partition.part_of) if partition is not None else {},
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
    @pytest.mark.parametrize(
        "family, relabeling", label_cases(sorted(PLANAR_FAMILIES))
    )
    def test_planar_families_identical(self, family, relabeling):
        for seed in SEEDS:
            graph = relabeled(make_planar(family, N, seed=seed), relabeling)
            reference = reference_partition_stage1(graph, epsilon=0.1)
            dense = partition_stage1(graph, epsilon=0.1)
            assert _canonical(reference) == _canonical(dense), (family, seed)
            to_partition(dense.partition, graph).validate()

    @pytest.mark.parametrize("far, relabeling", label_cases(sorted(FAR_FAMILIES)))
    def test_far_families_identical(self, far, relabeling):
        graph = relabeled(make_far(far, N, seed=0)[0], relabeling)
        reference = reference_partition_stage1(graph, epsilon=0.1)
        dense = partition_stage1(graph, epsilon=0.1)
        assert _canonical(reference) == _canonical(dense), far
        assert reference.success == dense.success

    def test_eps_n_target_identical(self):
        graph = make_planar("delaunay", 200, seed=3)
        n = graph.number_of_nodes()
        reference = reference_partition_stage1(
            graph, epsilon=0.2, target_cut=0.2 * n
        )
        dense = partition_stage1(graph, epsilon=0.2, target_cut=0.2 * n)
        assert _canonical(reference) == _canonical(dense)

    def test_no_early_stop_identical(self):
        graph = make_planar("grid", 100, seed=0)
        reference = reference_partition_stage1(graph, epsilon=0.3, early_stop=False)
        dense = partition_stage1(graph, epsilon=0.3, early_stop=False)
        assert _canonical(reference) == _canonical(dense)

    def test_mixed_label_rejection(self):
        """Rejecting parts of a mixed-label graph come out in id_key
        order: ints first, then the rest by repr."""
        graph = nx.relabel_nodes(
            nx.complete_graph(12), lambda v: v if v % 2 else f"s{v}"
        )
        dense = partition_stage1(graph, epsilon=0.1)
        assert not dense.success
        assert dense.rejecting_parts == (
            1, 3, 5, 7, 9, 11, "s0", "s10", "s2", "s4", "s6", "s8"
        )
        assert _canonical(dense) == _canonical(
            reference_partition_stage1(graph, epsilon=0.1)
        )

    def test_labels_beyond_int64(self):
        """Seeds that overflow int64 take the emulated Cole-Vishkin."""
        graph = nx.relabel_nodes(
            make_planar("delaunay", N, seed=0), lambda v: v + 2**64
        )
        assert _canonical(partition_stage1(graph, epsilon=0.1)) == _canonical(
            reference_partition_stage1(graph, epsilon=0.1)
        )

    @pytest.mark.parametrize("scale", [2**64, 2**200], ids=["2**64", "2**200"])
    def test_labels_equal_in_low_64_bits(self, scale):
        """Labels ``v * scale`` first differ above bit 63, so Cole-Vishkin's
        first step leaves colors of 128 or more (both theorems)."""
        graph = nx.relabel_nodes(
            make_planar("delaunay", N, seed=0), lambda v: v * scale
        )
        assert _canonical(partition_stage1(graph, epsilon=0.1)) == _canonical(
            reference_partition_stage1(graph, epsilon=0.1)
        )
        assert _canonical(
            partition_randomized(graph, epsilon=0.1, seed=0)
        ) == _canonical(reference_partition_randomized(graph, epsilon=0.1, seed=0))

    def test_empty_graph(self):
        for run in (partition_stage1, partition_randomized):
            result = run(nx.Graph(), 0.1)
            assert result.success
            assert result.partition is None
            assert result.final_cut == 0
            assert result.phases == []
        assert _canonical(partition_stage1(nx.Graph(), 0.1)) == _canonical(
            reference_partition_stage1(nx.Graph(), 0.1)
        )


class TestLemma6:
    """The engine's partitions -- both theorems' and the MPX baseline's --
    pass every Lemma 6 check once materialized as the dict oracle's
    :class:`Partition`, and their summaries agree with it."""

    @pytest.mark.parametrize(
        "family, relabeling",
        label_cases(sorted(PLANAR_FAMILIES)) + label_cases(sorted(FAR_FAMILIES)),
    )
    def test_validates(self, family, relabeling):
        if family in PLANAR_FAMILIES:
            graph = make_planar(family, N, seed=0)
        else:
            graph = make_far(family, N, seed=0)[0]
        graph = relabeled(graph, relabeling)
        results = [run(graph, 0.1) for run in (partition_stage1, partition_randomized)]
        for result in results:
            assert result.final_cut == result.partition.cut_size()
        results.append(mpx_partition(graph, beta=0.1, seed=0))
        for result in results:
            state = result.partition
            partition = to_partition(state, graph)
            partition.validate()
            assert state.size == partition.size
            assert state.cut_size() == partition.cut_size()
            assert state.max_height() == partition.max_height()
            assert node_sets(state) == {
                pid: part.nodes for pid, part in partition.parts.items()
            }


def _exact_diameter(graph, nodes):
    """All-pairs BFS diameter of the induced subgraph, in scipy."""
    adjacency = nx.to_scipy_sparse_array(graph.subgraph(nodes))
    return int(shortest_path(adjacency, unweighted=True).max())


class TestMaxDiameter:
    """``DensePartitionState.max_diameter`` against the oracle's per-part
    :func:`~repro.graphs.utils.diameter` over ``graph.subgraph`` views."""

    @pytest.mark.parametrize(
        "family, relabeling",
        label_cases(("delaunay",))
        + [(f, "identity") for f in sorted(PLANAR_FAMILIES) if f != "delaunay"],
    )
    def test_matches_oracle(self, family, relabeling):
        graph = relabeled(make_planar(family, 200, seed=0), relabeling)
        for epsilon in (0.05, 0.3):
            for target in (None, epsilon * graph.number_of_nodes()):
                result = partition_stage1(graph, epsilon, target_cut=target)
                oracle = to_partition(result.partition, graph).max_diameter()
                assert result.partition.max_diameter(graph) == oracle

    def test_large_part_keeps_the_double_sweep(self):
        """Parts over 1200 nodes report the double sweep started where
        the part's view iterates, a lower bound: this delaunay instance
        has a 1738-node part of exact diameter 29, reported as 26."""
        graph = make_planar("delaunay", 2000, seed=1)
        state = partition_stage1(graph, epsilon=0.1).partition
        oracle = to_partition(state, graph)
        assert state.max_diameter(graph) == oracle.max_diameter() == 26
        (nodes,) = [s for s in node_sets(state).values() if len(s) > 1200]
        assert len(nodes) == 1738
        assert _exact_diameter(graph, nodes) == 29

    def test_outlives_the_input_graph(self):
        """The partition holds its graph only weakly; ``max_diameter``
        reads the graph it is given, so a partition built on a
        temporary graph still reports its diameter."""
        state = partition_stage1(make_planar("delaunay", 2000, seed=1), 0.1).partition
        gc.collect()
        assert state.topology.graph is None
        assert state.max_diameter(make_planar("delaunay", 2000, seed=1)) == 26

    def test_forest_of_paths(self):
        """Parts of every size from 1 to 7 nodes report exactly."""
        paths = [nx.path_graph(k % 7 + 1) for k in range(500)]
        graph = nx.disjoint_union_all(paths)
        starts = {sum(len(p) for p in paths[:k]) for k in range(500)}
        parent = [-1 if v in starts else v - 1 for v in graph]
        state = DensePartitionState.from_forest(compile_topology(graph), parent)
        assert state.size == 500
        assert state.max_diameter(graph) == 6
        edgeless = nx.empty_graph(3)
        assert partition_stage1(edgeless, 0.5).partition.max_diameter(edgeless) == 0


class TestRandomizedDifferential:
    @pytest.mark.parametrize(
        "family, relabeling", label_cases(("delaunay", "apollonian", "grid"))
    )
    def test_same_rng_stream(self, family, relabeling):
        graph = relabeled(make_planar(family, N, seed=0), relabeling)
        for seed in SEEDS:
            for coloring in ("cole-vishkin", "randomized"):
                reference = reference_partition_randomized(
                    graph, epsilon=0.2, delta=0.1, seed=seed, coloring=coloring
                )
                dense = partition_randomized(
                    graph, epsilon=0.2, delta=0.1, seed=seed, coloring=coloring
                )
                assert _canonical(reference) == _canonical(dense), (
                    family, seed, coloring,
                )
                assert reference.trials == dense.trials
                assert reference.met_target == dense.met_target

    def test_randomized_coloring_variant_identical(self):
        graph = make_planar("tri-grid", 120, seed=0)
        reference = reference_partition_randomized(
            graph, epsilon=0.2, delta=0.2, seed=5, coloring="randomized"
        )
        dense = partition_randomized(
            graph, epsilon=0.2, delta=0.2, seed=5, coloring="randomized"
        )
        assert _canonical(reference) == _canonical(dense)

    def test_stalled_phases_identical(self):
        """A phase whose every decision abstained contracts nothing and
        the next retries; one coloring round on an edge stalls often."""
        stalled = 0
        for seed in range(40):
            kwargs = dict(
                epsilon=0.2,
                seed=seed,
                target_cut=0.5,
                coloring="randomized",
                coloring_rounds=1,
            )
            graph = nx.path_graph(2)  # held: the dense result keeps it weakly
            reference = reference_partition_randomized(graph, **kwargs)
            dense = partition_randomized(graph, **kwargs)
            assert _canonical(reference) == _canonical(dense), seed
            stalled += sum(p.cut_after == p.cut_before for p in dense.phases)
        assert stalled

    @pytest.mark.parametrize(
        "family",
        ("grid", "tri-grid", "apollonian", "delaunay", "planar-sparse",
         "outerplanar", "tree"),
    )
    def test_vectorized_selection_matches_legacy_and_rng_stream(self, family):
        """The vectorized Theorem 4 selection draws the exact edges of
        the reference's sequential loop *and* leaves the RNG in the same
        state, on the singleton aux of every bundled family."""
        graph = make_planar(family, 150, seed=0)
        topology = compile_topology(graph)
        ids = topology.nodes
        aux = DensePartitionState(topology).build_aux()
        reference_aux = AuxiliaryGraph(Partition.singletons(graph))
        for trials in (1, 2, 5):
            reference_rng = random.Random(1234)
            dense_rng = random.Random(1234)
            reference = weighted_edge_selection(reference_aux, trials, reference_rng)
            parent, weight = weighted_selection_dense(aux, trials, dense_rng)
            roots = [ids[p] for p in aux.pids]
            dense = (
                {
                    roots[c]: None if p < 0 else roots[p]
                    for c, p in enumerate(parent.tolist())
                },
                {
                    (roots[c], roots[p]): w
                    for c, (p, w) in enumerate(zip(parent.tolist(), weight.tolist()))
                    if p >= 0
                },
            )
            assert reference == dense, (family, trials)
            # Same draws consumed: subsequent randomness stays aligned.
            assert reference_rng.getstate() == dense_rng.getstate()


def _next_contraction(state, alpha=3):
    """One deterministic phase's star contraction on any topology.

    Cole-Vishkin seeds from the dense root indices, so the loop needs
    no labels at all.  Returns ``None`` when the phase contracts nothing.
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
    colors, _cv = cole_vishkin_dense(parent, aux.pids)
    marking = mark_and_choose_dense(parent, weight, colors)
    if not len(marking.contract_children):
        return None
    pids = aux.pids
    return pids[marking.contract_children], pids[marking.contract_centers], aux


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
                result = partition_stage1(graph, epsilon=0.1)
            assert checked, (family, seed)
            assert result.partition.size == checked[-1][1]

    @pytest.mark.parametrize("far", sorted(FAR_FAMILIES))
    def test_far_families_match_bfs_reroot(self, far):
        graph, _farness = make_far(far, N, seed=0)
        with pinned_forest():
            partition_stage1(graph, epsilon=0.1)
        with pinned_forest():
            _drive(graph)

    @pytest.mark.parametrize("family", ("delaunay", "apollonian", "tree"))
    def test_randomized_merges_match_bfs_reroot(self, family):
        graph = make_planar(family, N, seed=0)
        with pinned_forest() as checked:
            partition_randomized(graph, epsilon=0.2, delta=0.1, seed=3)
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

    def test_contracted_twice_names_the_first_repeat(self):
        state = DensePartitionState(compile_topology(nx.path_graph(6)))
        aux = state.build_aux()
        children = np.array([4, 3, 1, 3, 4], dtype=np.int64)
        centers = np.array([5, 2, 0, 2, 5], dtype=np.int64)
        with pytest.raises(PartitionError, match=r"^part 3 contracted twice$"):
            state.merge(children, centers, aux)

    def test_chained_contraction_names_the_chained_parts(self):
        state = DensePartitionState(compile_topology(nx.path_graph(6)))
        aux = state.build_aux()
        children = np.array([1, 2, 4], dtype=np.int64)
        centers = np.array([2, 3, 3], dtype=np.int64)
        with pytest.raises(
            PartitionError, match=r"^contraction is not star-shaped at \{2\}$"
        ):
            state.merge(children, centers, aux)
        assert state.roots.tolist() == list(range(6))


COUNTED = ("lexsort", "unique", "intersect1d")


@pytest.mark.parametrize(
    "partition",
    (
        partition_stage1,
        lambda graph, epsilon: partition_randomized(graph, epsilon, seed=0),
        lambda graph, epsilon: partition_randomized(
            graph, epsilon, seed=0, coloring="randomized"
        ),
    ),
    ids=("stage1", "randomized-cv", "randomized-remark1"),
)
@pytest.mark.parametrize(
    "graph_of",
    (
        lambda: make_planar("delaunay", 2000, seed=0),
        lambda: planted_kuratowski(2000, count=300, minor="k5", seed=0)[0],
    ),
    ids=("delaunay", "planted-k5"),
)
def test_stage1_calls_no_sort_based_set_routine(graph_of, partition):
    """Both partitions run on scatters, sorted runs and masks: numpy's
    ``lexsort``, ``unique`` and ``intersect1d`` stay out of every phase,
    under either coloring of Theorem 4's."""
    graph = graph_of()
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name):
        raw = getattr(np, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return raw(*args, **kwargs)

        return counted

    with mock.patch.multiple(np, **{name: counting(name) for name in COUNTED}):
        result = partition(graph, epsilon=0.1)
        assert calls == dict.fromkeys(COUNTED, 0)
        np.unique(np.arange(3))  # the counters do count
    assert calls["unique"] == 1
    assert result.phases


SERVICE_FAMILIES = ("grid", "delaunay", "outerplanar")
NUMPY_CALLS_PER_PHASE = 38.7


def _numpy_callee(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, (np.ndarray, np.generic, np.ufunc)):
        return True
    return (getattr(fn, "__module__", None) or "").startswith("numpy")


def test_stage1_numpy_call_budget_per_phase():
    """Numpy calls per Stage I phase at n=64 stay within budget.

    Counted: the ``sys.setprofile`` ``c_call`` events that ``repro`` code
    makes into numpy -- module-level builtins such as ``np.zeros``,
    array methods and ufunc methods such as ``np.add.at`` -- over
    ``partition_stage1`` on four graphs of each family the service
    benchmark runs (n=64, eps=0.25), each compiled by a first run.
    Numpy functions that go through array-function dispatch
    (``np.where``, ``np.bincount``, ...) fire no ``c_call``, and calls
    numpy makes internally are not counted.  What is counted --
    ``ndarray`` and ufunc methods plus the builtins ``np.empty``,
    ``np.zeros``, ``np.arange`` and ``np.asarray`` -- is C code on every
    numpy 2 release, and CPython 3.9.18, 3.11.7 and 3.12.1 (PEP 669's
    ``setprofile``) report the same ``c_call`` events for builtin
    functions, method descriptors, keyword and ``**`` calls, and none for
    other C callables.  The count itself was measured on CPython 3.11.7
    with numpy 2.4.6 only.  The phase engine before table-driven
    Cole-Vishkin and scatter-free marking made 70.1 such calls per phase
    (3856 over 55 phases); it now makes 38.7 (2126).
    """
    graphs = [
        make_planar(family, 64, seed=seed)
        for family in SERVICE_FAMILIES
        for seed in range(4)
    ]
    for graph in graphs:
        partition_stage1(graph, epsilon=0.25)  # compiles the topology
    calls = 0

    def profile(frame, event, fn):
        nonlocal calls
        if event == "c_call" and frame.f_globals.get("__name__", "").startswith(
            "repro."
        ):
            calls += _numpy_callee(fn)

    phases = 0
    sys.setprofile(profile)
    try:
        for graph in graphs:
            phases += len(partition_stage1(graph, epsilon=0.25).phases)
    finally:
        sys.setprofile(None)
    assert phases
    assert calls / phases <= NUMPY_CALLS_PER_PHASE, (calls, phases)
