"""E6 (Table 4) -- Theorem 4: the randomized partition.

Claims reproduced: success probability >= 1 - delta for the eps*n cut
target, and a round complexity of O(poly(1/eps)(log(1/delta) + log* n))
-- in particular *no* O(log n) factor (compare the rounds column against
E5 at the same epsilon).

The delta x trial grid executes as :class:`JobSpec` batches on the
:mod:`repro.runtime` engine (``REPRO_BENCH_BACKEND=process``
parallelizes the trials); every trial pins the same graph via
``graph_seed`` while the algorithm seed varies, so all jobs share one
generated instance -- and one compiled topology.
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis import wilson_interval
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import JobSpec, run_jobs

DELTAS = (0.5, 0.1, 0.01)
EPSILON = 0.2
N = 300 if quick_mode() else 500
TRIALS = 10 if quick_mode() else 30


@pytest.fixture(scope="module")
def randomized_table():
    specs = [
        JobSpec.make(
            "partition_randomized",
            family="delaunay",
            n=N,
            seed=seed,
            graph_seed=0,
            epsilon=EPSILON,
            delta=delta,
        )
        for delta in DELTAS
        for seed in range(TRIALS)
    ]
    specs.append(
        JobSpec.make(
            "partition_stage1",
            family="delaunay",
            n=N,
            seed=0,
            graph_seed=0,
            epsilon=EPSILON,
            target_cut="eps*n",
        )
    )
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())
    records = list(batch)

    n = records[0]["n"]  # actual generated size, from the records
    table = Table(
        f"E6: Theorem 4 randomized partition (delaunay n={n}, eps={EPSILON})",
        ["delta", "trials/phase", "runs", "target met", "success (95% CI)",
         "mean rounds", "mean phases"],
    )
    outcomes = {}
    for index, delta in enumerate(DELTAS):
        cell = records[index * TRIALS : (index + 1) * TRIALS]
        successes = sum(record["met_target"] for record in cell)
        rounds = [record["rounds"] for record in cell]
        phase_counts = [record["phases"] for record in cell]
        lo, hi = wilson_interval(successes, TRIALS)
        outcomes[delta] = successes / TRIALS
        table.add_row(
            delta,
            cell[0]["trials"],
            TRIALS,
            successes,
            f"{successes / TRIALS:.2f} [{lo:.2f}, {hi:.2f}]",
            sum(rounds) / len(rounds),
            sum(phase_counts) / len(phase_counts),
        )
    det = records[-1]
    table.add_row(
        "det. (E5)", "-", 1, int(det["success"]), "1.00",
        det["rounds"], det["phases"],
    )
    save_table(table, "e06_randomized_partition.md")
    return outcomes


def test_success_probability_meets_delta(randomized_table):
    for delta, rate in randomized_table.items():
        assert rate >= 1 - delta - 0.1, (delta, rate)


def test_benchmark_randomized_partition(benchmark, randomized_table):
    from repro.partition import partition_randomized

    graph = make_planar("delaunay", N, seed=0)
    result = benchmark(
        lambda: partition_randomized(graph, epsilon=EPSILON, delta=0.1, seed=0)
    )
    assert result.partition.size >= 1
