"""E10 (Table 7) -- Corollary 17: spanners of minor-free graphs.

Claims reproduced: the partition-based spanner has ``(1 + O(eps)) n``
edges and ``poly(1/eps)`` stretch, deterministically.  Baselines: the
MPX/Elkin-Neiman cluster spanner (the paper's comparison point: its
ultra-sparse regime needs ``k = omega(log n)`` rounds) and the greedy
(2k-1)-spanner (sequential size yardstick).

Each family's rows run as ``spanner`` (Corollary 17) and
``spanner_baseline`` (MPX / greedy) jobs on the :mod:`repro.runtime`
engine (``REPRO_BENCH_BACKEND=process`` parallelizes across cells).
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.applications import build_spanner
from repro.graphs import make_planar
from repro.runtime import JobSpec, run_jobs

FAMILIES = ("grid", "delaunay", "tri-grid")
EPSILONS = (0.3, 0.1)
N = 250 if quick_mode() else 500
STRETCH_SAMPLES = 12


@pytest.fixture(scope="module")
def spanner_table():
    specs = []
    for family in FAMILIES:
        for epsilon in EPSILONS:
            specs.append(
                JobSpec.make(
                    "spanner",
                    family=family,
                    n=N,
                    seed=0,
                    epsilon=epsilon,
                    sample_nodes=STRETCH_SAMPLES,
                )
            )
        specs.append(
            JobSpec.make(
                "spanner_baseline",
                family=family,
                n=N,
                seed=0,
                method="mpx",
                beta=0.3,
                sample_nodes=STRETCH_SAMPLES,
            )
        )
        specs.append(
            JobSpec.make(
                "spanner_baseline",
                family=family,
                n=N,
                seed=0,
                method="greedy",
                stretch=5,
                sample_nodes=STRETCH_SAMPLES,
            )
        )
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())
    records = list(batch)

    table = Table(
        f"E10: spanner size and stretch (n={N})",
        ["family", "algorithm", "epsilon/beta", "edges", "size/n",
         "measured stretch", "guarantee", "rounds"],
    )
    size_violations = 0
    index = 0
    for family in FAMILIES:
        for epsilon in EPSILONS:
            record = records[index]
            index += 1
            n = record["n"]
            if record["spanner_edges"] > (1 + 3 * epsilon) * n:
                size_violations += 1
            table.add_row(
                family, "partition (Cor 17)", epsilon,
                record["spanner_edges"], record["spanner_edges"] / n,
                record["measured_stretch"], record["guaranteed_stretch"],
                record["rounds"],
            )
        mpx = records[index]
        index += 1
        table.add_row(
            family, "MPX cluster", 0.3, mpx["spanner_edges"],
            mpx["size_per_n"], mpx["measured_stretch"],
            mpx["guaranteed_stretch"], mpx["rounds"],
        )
        greedy = records[index]
        index += 1
        table.add_row(
            family, "greedy (2k-1)=5", "-", greedy["spanner_edges"],
            greedy["size_per_n"], greedy["measured_stretch"],
            greedy["guaranteed_stretch"], greedy["rounds"],
        )
    save_table(table, "e10_spanner.md")
    return size_violations


def test_size_bound_respected(spanner_table):
    assert spanner_table == 0


def test_benchmark_spanner_build(benchmark, spanner_table):
    graph = make_planar("delaunay", N, seed=0)
    result = benchmark(lambda: build_spanner(graph, epsilon=0.2))
    assert result.size > 0
