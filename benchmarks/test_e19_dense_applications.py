"""E19 -- dense applications/spanner fast path + batched partition kernels.

Claim reproduced (engineering, not paper): the last scalar hot loops of
the applications layer -- the Corollary 17 spanner walk, the per-pair
stretch fold, and the partition-emulation protocols -- run as array
programs with bit-identical outputs.  Gated (and run in CI's
bench-smoke job):

* ``build_spanner`` (CSR edge arrays straight off the dense partition
  state) is >= 3x the reference networkx walk over the dict partition
  (``tests/_stage1_reference.py``);
* the batched-BFS ``measure_stretch`` is >= 3x the reference per-pair
  fold at the same sample;
* the ``forest`` and ``cv`` batch kernels run partition-emulation
  trials >= 2x faster per trial than the scalar dense plane;
* every compared pair is bit-identical (``SpannerResult`` counts and
  edge sets, the stretch float, per-trial outputs and ledger totals --
  the full differential suites live in
  ``tests/test_applications_dense.py`` / ``tests/test_congest_batched.py``).

The gate sizes are fixed regardless of ``REPRO_BENCH_QUICK`` -- the
speedup claims are about those scales; quick mode trims repeats and
the batch width.
"""

from __future__ import annotations

import time

import networkx as nx
import pytest

from _harness import paired_best, quick_mode, save_table
from _stage1_reference import reference_build_spanner, reference_measure_stretch
from repro.analysis.tables import Table
from repro.applications import build_spanner, measure_stretch
from repro.congest import (
    CongestNetwork,
    compile_topology,
    reset_topology_stats,
    run_batched,
    topology_stats,
)
from repro.congest.programs import BarenboimElkinProgram
from repro.congest.programs.cole_vishkin import (
    ColeVishkinProgram,
    cv_schedule,
    min_neighbor_parents,
)
from repro.congest.programs.forest_decomposition import (
    barenboim_elkin_round_budget,
)
from repro.runtime import (
    JobSpec,
    RunConfig,
    SerialBackend,
    run_jobs,
)

N = 1500
EPSILON = 0.1
SAMPLE = 16
KERNEL_N = 300
KERNEL_EDGE_PROB = 0.05
BATCH = 16 if quick_mode() else 64
REPEATS = 2 if quick_mode() else 4

BUILD_GATE = 3.0
STRETCH_GATE = 3.0
KERNEL_GATE = 2.0

RESULT_FIELDS = (
    "rounds",
    "halted",
    "total_messages",
    "total_bits",
    "max_message_bits",
    "over_budget_messages",
)


def _paired_best(reference, fast):
    """Best of ``REPEATS`` for both sides of one ratio, taking turns.

    Each repeat times both callables back to back (in alternating
    order), so a slow stretch on a shared host lands on both sides of
    the ratio instead of on whichever side happened to run then.
    Returns ``(reference_s, reference_result, fast_s, fast_result)``.
    """
    results = {}

    def timer(side, fn):
        def timed(_rep):
            start = time.perf_counter()
            results[side] = fn()
            return time.perf_counter() - start

        return timed

    best = paired_best(
        {"reference": timer("reference", reference), "fast": timer("fast", fast)},
        REPEATS,
    )
    return best["reference"], results["reference"], best["fast"], results["fast"]


def _scalar_kernel(program, network):
    if program == "forest":
        budget = barenboim_elkin_round_budget(network.n)
        return network.run(
            BarenboimElkinProgram,
            max_rounds=budget + 3,
            config={"alpha": 3, "budget": budget},
            strict_bandwidth=True,
        )
    schedule = cv_schedule(max(network.graph.nodes(), default=1))
    return network.run(
        ColeVishkinProgram,
        max_rounds=len(schedule) + 3,
        config={
            "parents": min_neighbor_parents(network.graph),
            "schedule": schedule,
        },
        strict_bandwidth=True,
    )


@pytest.fixture(scope="module")
def applications_table():
    graph = make_planar_graph()
    compile_topology(graph).edge_arrays()  # timings cover the sweeps only

    # -- spanner build: legacy walk vs CSR assembly ----------------------
    legacy_build_s, legacy, dense_build_s, dense = _paired_best(
        lambda: reference_build_spanner(graph, epsilon=EPSILON),
        lambda: build_spanner(graph, epsilon=EPSILON),
    )
    build_speedup = legacy_build_s / dense_build_s
    assert dense.tree_edges == legacy.tree_edges
    assert dense.connector_edges == legacy.connector_edges
    assert dense.guaranteed_stretch == legacy.guaranteed_stretch
    assert dense.size == legacy.size
    assert dense.rounds == legacy.rounds
    assert {frozenset(e) for e in dense.dense.edges()} == {
        frozenset(e) for e in legacy.spanner.edges()
    }

    # -- stretch: per-pair fold vs batched CSR BFS -----------------------
    legacy_stretch_s, legacy_stretch, dense_stretch_s, dense_stretch = (
        _paired_best(
            lambda: reference_measure_stretch(
                graph, legacy.spanner, sample_nodes=SAMPLE, seed=0
            ),
            lambda: measure_stretch(
                graph, dense.dense, sample_nodes=SAMPLE, seed=0
            ),
        )
    )
    stretch_speedup = legacy_stretch_s / dense_stretch_s
    assert dense_stretch == legacy_stretch

    # -- forest / cv batch kernels vs the scalar dense plane -------------
    kernel_graph = nx.gnp_random_graph(KERNEL_N, KERNEL_EDGE_PROB, seed=0)
    topology = compile_topology(kernel_graph)
    network = CongestNetwork(kernel_graph, seed=0)
    kernel_rows = []
    kernel_speedups = {}
    for program in ("forest", "cv"):
        scalar_s, scalar, batched_s, results = _paired_best(
            lambda p=program: _scalar_kernel(p, network),
            lambda p=program: run_batched(
                p, [topology] * BATCH, params={"alpha": 3}
            ),
        )
        per_trial_s = batched_s / BATCH
        speedup = scalar_s / per_trial_s
        kernel_speedups[program] = speedup
        for batched in results:
            for field in RESULT_FIELDS:
                assert getattr(batched, field) == getattr(scalar, field), (
                    program,
                    field,
                )
            assert batched.outputs == scalar.outputs
        kernel_rows.append(
            (program, scalar_s, batched_s, per_trial_s, speedup)
        )

    table = Table(
        f"E19: dense applications on delaunay n={N} "
        f"+ batched kernels on G({KERNEL_N}, {KERNEL_EDGE_PROB}) x{BATCH}",
        ["stage", "legacy/scalar s", "dense/batched s", "speedup", "gate"],
    )
    table.add_row(
        "spanner build",
        round(legacy_build_s, 4),
        round(dense_build_s, 4),
        round(build_speedup, 2),
        f">={BUILD_GATE}x",
    )
    table.add_row(
        f"stretch ({SAMPLE} sources)",
        round(legacy_stretch_s, 4),
        round(dense_stretch_s, 4),
        round(stretch_speedup, 2),
        f">={STRETCH_GATE}x",
    )
    for program, scalar_s, batched_s, per_trial_s, speedup in kernel_rows:
        table.add_row(
            f"{program} kernel (per trial)",
            round(scalar_s, 4),
            round(per_trial_s, 5),
            round(speedup, 2),
            f">={KERNEL_GATE}x",
        )

    # Runtime leg: a cv sweep cell coalesces into one simulate_batch job
    # over one compiled topology, expanding to scalar-identical records.
    reset_topology_stats()
    specs = [
        JobSpec.make(
            "simulate_program",
            family="delaunay",
            n=128,
            seed=trial,
            graph_seed=0,
            program="cv",
        )
        for trial in range(8)
    ]
    batch = run_jobs(
        specs,
        backend=SerialBackend(),
        config=RunConfig(sim_batch=8),
    )
    compiled = topology_stats().compiled
    table.add_row(
        "cv sweep (8 trials, --batch 8)",
        "-",
        "-",
        f"{compiled} topology compile",
        "==1",
    )

    save_table(
        table,
        "e19_dense_applications.md",
        metrics={
            "n": N,
            "epsilon": EPSILON,
            "sample_nodes": SAMPLE,
            "kernel_n": KERNEL_N,
            "kernel_edge_prob": KERNEL_EDGE_PROB,
            "batch": BATCH,
            "repeats": REPEATS,
            "legacy_build_s": round(legacy_build_s, 6),
            "dense_build_s": round(dense_build_s, 6),
            "build_speedup": round(build_speedup, 3),
            "legacy_stretch_s": round(legacy_stretch_s, 6),
            "dense_stretch_s": round(dense_stretch_s, 6),
            "stretch_speedup": round(stretch_speedup, 3),
            "forest_kernel_speedup": round(kernel_speedups["forest"], 3),
            "cv_kernel_speedup": round(kernel_speedups["cv"], 3),
            "build_gate": BUILD_GATE,
            "stretch_gate": STRETCH_GATE,
            "kernel_gate": KERNEL_GATE,
        },
    )
    return build_speedup, stretch_speedup, kernel_speedups, compiled, batch


def make_planar_graph():
    from repro.graphs import make_planar

    return make_planar("delaunay", N, seed=0)


def test_dense_spanner_build_gate(applications_table):
    build_speedup, _stretch, _kernels, _compiled, _batch = applications_table
    assert build_speedup >= BUILD_GATE, (
        f"dense spanner build only {build_speedup:.2f}x the legacy walk"
    )


def test_dense_stretch_gate(applications_table):
    _build, stretch_speedup, _kernels, _compiled, _batch = applications_table
    assert stretch_speedup >= STRETCH_GATE, (
        f"batched stretch only {stretch_speedup:.2f}x the per-pair fold"
    )


def test_batched_kernel_gates(applications_table):
    _build, _stretch, kernels, _compiled, _batch = applications_table
    for program, speedup in kernels.items():
        assert speedup >= KERNEL_GATE, (
            f"{program} kernel only {speedup:.2f}x per trial"
        )


def test_cv_sweep_coalesces_and_expands(applications_table):
    _build, _stretch, _kernels, compiled, batch = applications_table
    assert compiled == 1
    assert batch.executed == 8
    assert len(batch.records) == 8
    assert all(r["kind"] == "simulate_program" for r in batch.records)
    assert all(r["program"] == "cv" for r in batch.records)


def test_benchmark_dense_spanner(benchmark, applications_table):
    graph = make_planar_graph()
    result = benchmark(
        lambda: build_spanner(graph, epsilon=EPSILON)
    )
    assert result.dense is not None
