"""E16 -- dense-index pipeline: CSR-native partition + Stage II throughput.

Claim reproduced (engineering, not paper): porting the emulated
partition/stage2 layer onto the compiled topology's CSR arrays removes
the networkx-view and dict-churn constant factors without changing a
single output.  Gated (and run in CI's bench-smoke job):

* the dense partition engine is >= 3x the dict engine kept as the
  reference in ``tests/_stage1_reference.py`` on the n=2000 Delaunay
  partition;
* the end-to-end planarity tester (dense Stage I + one-pass Stage II
  relabeling + mask-resolved sampling) is >= 1.5x the seed path (the
  reference Stage I, per-part view relabeling and the pairwise sample
  scan, which :func:`reference_stage1` and :func:`seed_stage2` patch in);
* both sides produce identical partitions, phase stats, ledgers, and
  per-part verdicts (the full differential suite lives in
  ``tests/test_partition_dense.py`` / ``tests/test_stage2_native.py``).

Four ungated figures ride along in ``BENCH_e16.json``: the wall time of
one fresh ``CompiledTopology`` build (the ``compile`` row); the wall
time of a Stage I reject (the ``reject`` row, ``reject_s``): the tester
on n=2000 with 300 planted K5s (perfbench's ``tester-far`` input),
rejected after one phase, on a fresh copy per run so every run
compiles; the mean wall time of one Stage I phase on the small jobs the
service benchmark runs (the ``stage1 phase n=64`` row, ``phase_n64_s``,
with its phase count): ``partition_stage1`` at eps=0.25 on n=64 graphs
of the grid, delaunay and outerplanar families, topologies compiled
beforehand; and the number of full
(generation-2) collections per tester op, counted with ``gc.callbacks``
over ops on fresh copies of a pool of graphs -- the collector pauses
that set the tester's tail latency.

The gate sizes are fixed at n=2000 regardless of ``REPRO_BENCH_QUICK``
-- the speedup claim is specifically about that scale; quick mode only
trims the repeat count and the collection probe's pool.
"""

from __future__ import annotations

import gc
import time

import pytest

from _harness import quick_mode, save_table
from _reference_paths import seed_stage2
from _stage1_reference import reference_partition_stage1, reference_stage1
from repro.analysis.tables import Table
from repro.congest.topology import CompiledTopology, compile_topology
from repro.graphs import make_planar
from repro.graphs.far_from_planar import planted_kuratowski
from repro.partition import partition_stage1
from repro.testers.planarity import PlanarityTestConfig
from repro.testers.planarity import test_planarity as run_planarity

N = 2000
EPSILON = 0.1
REPEATS = 2 if quick_mode() else 4
GC_POOL = 8 if quick_mode() else 16
GC_OPS = 16 if quick_mode() else 32
PLANTED_K5 = 300
PHASE_FAMILIES = ("grid", "delaunay", "outerplanar")
PHASE_N = 64
PHASE_EPSILON = 0.25
PHASE_SEEDS = range(4 if quick_mode() else 10)

PARTITION_GATE = 3.0
TESTER_GATE = 1.5


def _run_seed(graph, config):
    with seed_stage2(), reference_stage1():
        return run_planarity(graph, seed=0, config=config)


def _best(fn):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _phase_seconds():
    """Mean wall seconds per Stage I phase at n=64, and the phase count."""
    graphs = [
        make_planar(family, PHASE_N, seed=seed)
        for family in PHASE_FAMILIES
        for seed in PHASE_SEEDS
    ]
    phases = sum(  # the first run also compiles each topology
        len(partition_stage1(graph, epsilon=PHASE_EPSILON).phases)
        for graph in graphs
    )

    def run_all():
        for graph in graphs:
            partition_stage1(graph, epsilon=PHASE_EPSILON)

    seconds, _ = _best(run_all)
    return seconds / phases, phases


def _full_collections(config):
    """Full collections and their pause per tester op, over a graph pool.

    Each op tests a fresh copy of a pool graph, as a service worker
    would; the pool stays alive so full passes cost what they cost in a
    long-running process.
    """
    pool = [make_planar("delaunay", N, seed=seed) for seed in range(GC_POOL)]
    collections = 0
    paused = 0.0
    started = 0.0

    def on_collect(phase, info):
        nonlocal collections, paused, started
        if info["generation"] != 2:
            return
        if phase == "start":
            started = time.perf_counter()
        else:
            collections += 1
            paused += time.perf_counter() - started

    gc.callbacks.append(on_collect)
    try:
        for op in range(GC_OPS):
            run_planarity(pool[op % GC_POOL].copy(), seed=0, config=config)
    finally:
        gc.callbacks.remove(on_collect)
    return collections / GC_OPS, 1000 * paused / GC_OPS


@pytest.fixture(scope="module")
def pipeline_table():
    graph = make_planar("delaunay", N, seed=0)
    compile_topology(graph).edge_arrays()  # timings cover the sweeps only

    legacy_time, legacy = _best(
        lambda: reference_partition_stage1(graph, epsilon=EPSILON)
    )
    dense_time, dense = _best(lambda: partition_stage1(graph, epsilon=EPSILON))
    native_config = PlanarityTestConfig(epsilon=EPSILON)
    seed_tester_time, seed_result = _best(
        lambda: _run_seed(graph, native_config)
    )
    native_tester_time, native_result = _best(
        lambda: run_planarity(graph, seed=0, config=native_config)
    )
    compile_time, _topology = _best(lambda: CompiledTopology(graph))
    far, _farness = planted_kuratowski(N, count=PLANTED_K5, minor="k5", seed=0)
    fresh = [far.copy() for _ in range(REPEATS)]
    reject_time, reject = _best(
        lambda: run_planarity(fresh.pop(), seed=0, config=native_config)
    )
    phase_s, phase_count = _phase_seconds()
    gen2_per_op, gen2_pause_ms = _full_collections(native_config)

    assert dense.partition.size == legacy.partition.size
    assert dense.partition.cut_size() == legacy.partition.cut_size()
    assert dense.rounds == legacy.rounds
    assert [vars(s) for s in dense.phases] == [vars(s) for s in legacy.phases]
    assert native_result.accepted == seed_result.accepted
    assert native_result.rounds == seed_result.rounds
    assert reject.rejected_stage == "stage1"

    partition_speedup = legacy_time / dense_time
    tester_speedup = seed_tester_time / native_tester_time

    table = Table(
        f"E16: dense-index pipeline on delaunay n={N}, eps={EPSILON}",
        ["workload", "engine", "wall s", "speedup", "gate", "identical"],
    )
    table.add_row("partition", "legacy (seed)", round(legacy_time, 4), 1.0, "-", "-")
    table.add_row(
        "partition",
        "dense (CSR)",
        round(dense_time, 4),
        round(partition_speedup, 2),
        f">={PARTITION_GATE}x",
        "yes",
    )
    table.add_row(
        "tester e2e", "legacy (seed)", round(seed_tester_time, 4), 1.0, "-", "-"
    )
    table.add_row(
        "tester e2e",
        "dense+one-pass",
        round(native_tester_time, 4),
        round(tester_speedup, 2),
        f">={TESTER_GATE}x",
        "yes",
    )
    table.add_row("compile", "CSR (numpy)", round(compile_time, 4), "-", "-", "-")
    table.add_row(
        f"reject ({PLANTED_K5} K5)", "dense", round(reject_time, 4), "-", "-", "-"
    )
    table.add_row(
        f"stage1 phase n={PHASE_N}",
        f"dense ({phase_count} phases)",
        f"{phase_s:.2e}",  # per phase; 3 decimals would read 0.000
        "-",
        "-",
        "-",
    )
    save_table(
        table,
        "e16_dense_pipeline.md",
        metrics={
            "n": N,
            "epsilon": EPSILON,
            "repeats": REPEATS,
            "partition_legacy_s": round(legacy_time, 6),
            "partition_dense_s": round(dense_time, 6),
            "partition_speedup": round(partition_speedup, 3),
            "partition_gate": PARTITION_GATE,
            "tester_seed_s": round(seed_tester_time, 6),
            "tester_native_s": round(native_tester_time, 6),
            "tester_speedup": round(tester_speedup, 3),
            "tester_gate": TESTER_GATE,
            "compile_s": round(compile_time, 6),
            "compile_share_of_tester": round(compile_time / native_tester_time, 4),
            "reject_s": round(reject_time, 6),
            "phase_n64_s": round(phase_s, 7),
            "phase_n64_phases": phase_count,
            "phase_n64_families": list(PHASE_FAMILIES),
            "phase_n64_epsilon": PHASE_EPSILON,
            "gc_pool": GC_POOL,
            "gc_ops": GC_OPS,
            "gc_gen2_per_op": round(gen2_per_op, 4),
            "gc_gen2_pause_ms_per_op": round(gen2_pause_ms, 3),
        },
    )
    return partition_speedup, tester_speedup


def test_partition_speedup_gate(pipeline_table):
    partition_speedup, _tester = pipeline_table
    assert partition_speedup >= PARTITION_GATE, (
        f"dense partition speedup only {partition_speedup:.2f}x"
    )


def test_tester_speedup_gate(pipeline_table):
    _partition, tester_speedup = pipeline_table
    assert tester_speedup >= TESTER_GATE, (
        f"end-to-end tester speedup only {tester_speedup:.2f}x"
    )


def test_benchmark_dense_partition(benchmark, pipeline_table):
    graph = make_planar("delaunay", N, seed=0)
    result = benchmark(lambda: partition_stage1(graph, epsilon=EPSILON))
    assert result.success
