"""Audit job kinds: the E08-E14 benchmark workloads as declarative specs.

The first half of the benchmark suite (E01-E07, E15, E16) already runs
through :func:`~repro.runtime.run_jobs`; these kinds move the remaining
experiments -- claim audits, substrate validation, baselines, the
lower-bound construction -- onto the same execution plane, so the whole
suite parallelizes under ``REPRO_BENCH_BACKEND=process`` and shares the
orchestrator's cache, sharding, and resume machinery.

Kinds registered here live in the :mod:`repro.runtime` package (not in
``benchmarks/``) so process-pool and fleet workers have them available
the moment they import the package.  Heavy algorithm imports stay
inside the runners, keeping ``import repro.runtime`` cheap.

Two conventions:

* kinds that synthesize their own instance (the Theorem 2 lower-bound
  construction, the LR-vs-oracle random sweep, the Cole-Vishkin path
  audit) register with ``needs_graph=False`` -- the executor builds no
  graph and the runner owns the record's ``n``/``m`` fields;
* records stay flat primitive dicts; the one structured payload
  (per-phase stats for the Claim 4 diameter audit) is carried as a
  canonical JSON string column that the benchmark decodes.
"""

from __future__ import annotations

import json

import networkx as nx

from .jobs import JobSpec, Record, register_kind

ABLATION_GUARANTEE = "O(log n / beta)"


# -- E08: Claim 4 diameter-growth audit --------------------------------------


def _run_partition_phase_audit(spec, graph, *, epsilon=0.1, alpha=3) -> Record:
    """Stage I partition with the full per-phase trajectory attached."""
    from ..partition.stage1 import partition_stage1

    result = partition_stage1(graph, epsilon=epsilon, alpha=alpha)
    phases = [
        [stats.phase, stats.max_height_after, stats.parts_after]
        for stats in result.phases
    ]
    return {
        "epsilon": epsilon,
        "success": result.success,
        "parts": result.partition.size,
        "cut": result.partition.cut_size(),
        "phases": len(result.phases),
        "phases_json": json.dumps(phases, separators=(",", ":")),
    }


# -- E09: Corollary 16 application testers with measured farness -------------


def _run_application_audit(
    spec: JobSpec, graph: nx.Graph, *, property="cycle", method="deterministic"
) -> Record:
    """Cycle-freeness / bipartiteness tester at a farness-derived epsilon.

    Replicates the E09 protocol: measure the graph's certified farness
    from the property, aim the tester at ``0.8 x`` that distance
    (clamped to ``[0.05, 0.4]``; 0.3 for property-satisfying inputs),
    and record the verdict.
    """
    from ..graphs import bipartiteness_farness_bounds, cycle_freeness_farness
    from ..testers import test_bipartiteness, test_cycle_freeness

    if property == "cycle":
        farness = cycle_freeness_farness(graph)
        runner = test_cycle_freeness
    elif property == "bipartite":
        farness = bipartiteness_farness_bounds(graph)[0]
        runner = test_bipartiteness
    else:
        raise ValueError(f"unknown property {property!r}")
    epsilon = max(0.05, min(0.4, farness * 0.8)) if farness > 0 else 0.3
    result = runner(graph, epsilon=epsilon, method=method, seed=spec.seed)
    return {
        "property": property,
        "method": method,
        "farness": farness,
        "epsilon": epsilon,
        "accepted": result.accepted,
        "rejecting_parts": len(result.rejecting_parts),
        "rounds": result.rounds,
    }


# -- E10: spanner baselines (MPX cluster / greedy) ---------------------------


def _run_spanner_baseline(
    spec, graph, *, method="mpx", sample_nodes=8, beta=0.3, stretch=5
) -> Record:
    """One baseline spanner trial (MPX cluster or sequential greedy).

    The graph's compiled topology (memoized per graph object, so one
    compilation per sweep cell) is handed to the baseline, which returns
    its spanner as flat edge arrays -- the vectorized stretch
    measurement then never re-converts either graph.
    """
    from ..applications.spanner import measure_stretch
    from ..congest.topology import compile_topology

    n = graph.number_of_nodes()
    topology = compile_topology(graph)
    if method == "mpx":
        from ..baselines import cluster_spanner

        spanner, mpx = cluster_spanner(
            graph, beta=beta, seed=spec.seed, topology=topology
        )
        guarantee: object = ABLATION_GUARANTEE
        rounds: object = mpx.rounds
        parameter: object = beta
    elif method == "greedy":
        from ..baselines import greedy_spanner

        spanner = greedy_spanner(graph, stretch=stretch, topology=topology)
        guarantee = stretch
        rounds = "(sequential)"
        parameter = "-"
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    measured = measure_stretch(
        graph, spanner, sample_nodes=sample_nodes, seed=spec.seed
    )
    edges = spanner.edge_count
    return {
        "method": method,
        "parameter": parameter,
        "spanner_edges": edges,
        "size_per_n": edges / max(n, 1),
        "measured_stretch": measured,
        "guaranteed_stretch": guarantee,
        "rounds": rounds,
    }


# -- E11: Theorem 2 lower-bound instances (graphless) ------------------------


def _run_lower_bound_audit(spec: JobSpec, _graph) -> Record:
    from ..graphs import all_views_are_trees, lower_bound_instance

    inst = lower_bound_instance(spec.n, seed=spec.seed)
    radius = inst.indistinguishability_radius
    graph = inst.graph
    return {
        "n": spec.n,
        "m": graph.number_of_edges(),
        "girth": inst.girth,
        "target_girth": inst.target_girth,
        "removed_edges": inst.removed_edges,
        "farness_lb": inst.farness_lower_bound,
        "blind_radius": radius,
        "views_are_trees": all_views_are_trees(graph, radius),
    }


# -- E12: MPX-partition ablation inside the tester ---------------------------


def _run_mpx_ablation(spec: JobSpec, graph: nx.Graph, *, epsilon=0.1) -> Record:
    """Tester rounds when Stage I is replaced by the MPX partition."""
    from ..baselines import mpx_partition
    from ..testers.planarity import stage2_over_partition
    from ..testers.stage2 import Stage2Config

    mpx = mpx_partition(graph, beta=epsilon / 2, seed=spec.seed)
    _verdicts, rejecting, stage2_rounds = stage2_over_partition(
        graph, mpx.partition, Stage2Config(epsilon=epsilon), seed=spec.seed
    )
    return {
        "epsilon": epsilon,
        "accepted": not rejecting,
        "rounds": mpx.rounds + stage2_rounds,
        "partition_rounds": mpx.rounds,
        "stage2_rounds": stage2_rounds,
        "max_height": mpx.partition.max_height() if mpx.partition is not None else 0,
    }


# -- E13: violating-edge criteria audit --------------------------------------


def _run_violation_audit(spec: JobSpec, _graph) -> Record:
    """Corner vs paper-literal preorder violating-edge counts.

    Planar inputs analyze their LR embedding (completeness: corner
    count must be 0); far inputs analyze the identity rotation and
    carry their construction-certified farness (soundness: corner count
    >= farness * m).  Graphless because the far generators certify
    farness *during* construction: building here keeps one generation
    per job instead of regenerating just for the certificate.
    """
    from ..planarity import check_planarity, identity_rotation
    from ..planarity.lr_planarity import LocalGraph
    from ..testers import count_violating
    from ..testers.labels import (
        corner_intervals,
        deterministic_bfs_tree,
        embedding_ranks,
        euler_tour_positions,
        non_tree_intervals,
    )

    if spec.far:
        from ..graphs.far_from_planar import make_far

        graph, certified = make_far(
            spec.far, spec.n, seed=spec.effective_graph_seed
        )
    else:
        certified = 0.0
        graph = spec.build_graph()
    local = LocalGraph.from_graph(graph)
    ring = identity_rotation(local) if spec.far else check_planarity(local).ring
    root = local.index[0]
    parents, _depths = deterministic_bfs_tree(local, root)
    positions, universe = euler_tour_positions(local, root, ring, parents)
    corner = corner_intervals(local, parents, positions, ring)
    ranks = embedding_ranks(local, root, ring, parents)
    preorder = [
        (a, b) for a, b, _u, _v in non_tree_intervals(local, parents, ranks)
    ]
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "planar": not spec.far,
        "certified_farness": certified,
        "non_tree_edges": len(corner),
        "violating_corner": count_violating(corner, universe=universe),
        "violating_preorder": count_violating(
            preorder, universe=graph.number_of_nodes()
        ),
    }


# -- E14: substrate validation kinds -----------------------------------------


def _run_lr_oracle_trial(spec, _graph, *, trial=0, gnp_n=8, gnp_p=0.5) -> Record:
    """One LR-vs-networkx-oracle trial on a G(n, p) instance.

    The ``(gnp_n, gnp_p)`` coordinates come from the benchmark's shared
    RNG walk (kept there so the committed table reproduces); the trial
    index seeds the graph itself.
    """
    from ..planarity import check_planarity, verify_planar_embedding

    graph = nx.gnp_random_graph(gnp_n, gnp_p, seed=trial)
    mine = check_planarity(graph)
    oracle, _cert = nx.check_planarity(graph)
    verified = False
    if mine.is_planar:
        verify_planar_embedding(mine.embedding, graph)
        verified = True
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "trial": trial,
        "agree": mine.is_planar == oracle,
        "embedding_verified": verified,
    }


def _run_forest_agreement(spec: JobSpec, graph: nx.Graph, *, alpha=3) -> Record:
    """Message-passing vs Stage I Barenboim-Elkin forest decomposition.

    Stage I's first phase runs :func:`forest_decomposition_dense` on the
    singleton partition, whose auxiliary graph is the input graph; the
    simulated program must deactivate every node in the same super-round
    and orient every edge the same way.
    """
    from ..congest.programs import run_forest_decomposition_simulated
    from ..congest.topology import compile_topology
    from ..partition.dense import (
        DensePartitionState,
        forest_decomposition_dense,
        orient_dense,
    )

    sim = run_forest_decomposition_simulated(graph, alpha=alpha, seed=spec.seed)
    topology = compile_topology(graph)
    aux = DensePartitionState(topology).build_aux()
    _success, _active, inactive_round, _rounds = forest_decomposition_dense(
        aux, alpha, n_graph=topology.n, height=0
    )
    ids = [topology.nodes[root] for root in aux.pids]
    out_edges = {v: set() for v in ids}
    src, dst, _weight = orient_dense(aux, inactive_round)
    for u, v in zip(src.tolist(), dst.tolist()):
        out_edges[ids[u]].add(ids[v])
    rounds = {v: r or None for v, r in zip(ids, inactive_round.tolist())}
    agree = sim.inactive_round == rounds and out_edges == {
        v: set(o) for v, o in sim.out_neighbors.items()
    }
    return {"agree": agree}


def _run_cv_agreement(spec: JobSpec, _graph, *, length=120) -> Record:
    """Simulated Cole-Vishkin vs Stage I's ``cole_vishkin_dense`` on a rooted path."""
    import numpy as np

    from ..congest.programs import cole_vishkin_coloring
    from ..partition.dense import cole_vishkin_dense

    graph = nx.path_graph(length)
    parents = {i: i - 1 if i > 0 else None for i in graph.nodes()}
    sim_colors, sim_rounds = cole_vishkin_coloring(
        graph, parents, seed=spec.seed
    )
    parent = np.arange(-1, length - 1, dtype=np.int64)
    emu_colors, emu_super = cole_vishkin_dense(parent, list(range(length)))
    return {
        "n": length,
        "m": length - 1,
        "agree": sim_colors == dict(enumerate(emu_colors.tolist())),
        "sim_rounds": sim_rounds,
        "emu_super_rounds": emu_super,
    }


def _run_congest_bandwidth(spec: JobSpec, graph: nx.Graph, *, root=0) -> Record:
    """BFS protocol bandwidth audit on the simulator."""
    from ..congest import CongestNetwork
    from ..congest.programs import BFSTreeProgram

    network = CongestNetwork(graph, seed=spec.seed)
    result = network.run(
        BFSTreeProgram,
        max_rounds=graph.number_of_nodes(),
        config={"root": root},
        strict_bandwidth=True,
    )
    return {
        "messages": result.total_messages,
        "over_budget": result.over_budget_messages,
        "max_message_bits": result.max_message_bits,
        "bandwidth_bits": result.bandwidth_bits,
    }


def _run_stage2_agreement(spec: JobSpec, graph: nx.Graph, *, epsilon=0.2) -> Record:
    """Distributed Stage II protocol vs the emulated Euler-tour walk."""
    from ..congest.programs import run_stage2_verification_simulated
    from ..planarity.lr_planarity import LocalGraph, check_planarity
    from ..testers.labels import deterministic_bfs_tree, euler_tour_positions

    local = LocalGraph.from_graph(graph)
    lr = check_planarity(local)
    distributed = run_stage2_verification_simulated(
        graph, 0, lr.embedding.to_dict(), epsilon=epsilon, seed=spec.seed
    )
    root = local.index[0]
    parents, _depths = deterministic_bfs_tree(local, root)
    positions, _total = euler_tour_positions(local, root, lr.ring, parents)
    nodes, to = local.nodes, lr.ring.targets()
    emulated = {
        (nodes[to[h ^ 1]], nodes[to[h]]): p for h, p in enumerate(positions) if p >= 0
    }
    return {
        "accepted": distributed.accepted,
        "agree": distributed.accepted and distributed.positions == emulated,
    }


register_kind("partition_phase_audit", _run_partition_phase_audit)
register_kind("application_audit", _run_application_audit)
register_kind("spanner_baseline", _run_spanner_baseline)
register_kind("lower_bound_audit", _run_lower_bound_audit, needs_graph=False)
register_kind("mpx_ablation", _run_mpx_ablation)
register_kind("violation_audit", _run_violation_audit, needs_graph=False)
register_kind("lr_oracle_trial", _run_lr_oracle_trial, needs_graph=False)
register_kind("forest_agreement", _run_forest_agreement)
register_kind("cv_agreement", _run_cv_agreement, needs_graph=False)
register_kind("congest_bandwidth", _run_congest_bandwidth)
register_kind("stage2_agreement", _run_stage2_agreement)
