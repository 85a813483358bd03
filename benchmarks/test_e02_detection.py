"""E2 (Table 2) -- Theorem 1 soundness: epsilon-far graphs are rejected w.h.p.

Claim reproduced: "if G is epsilon-far from being planar, then with
probability 1 - 1/poly(n) at least one node outputs reject".  Every
instance carries a *certified* farness lower bound; the tester runs with
epsilon slightly below the certificate, and the measured rejection rate
(with a Wilson confidence interval) should be ~1.

The trial grid executes on the :mod:`repro.runtime` engine (see
``REPRO_BENCH_BACKEND``): each family pins its graph via ``graph_seed``
so all trials replay the *same* certified-far instance while the tester
seed varies per trial.
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis import wilson_interval
from repro.analysis.tables import Table
from repro.graphs import make_far
from repro.runtime import JobSpec, run_jobs
from repro.testers import test_planarity as run_planarity

FAMILIES = ("gnp", "regular", "planted-k5", "planted-k33", "planar-plus")
N = 200
TRIALS = 8 if quick_mode() else 20


@pytest.fixture(scope="module")
def detection_table():
    table = Table(
        "E2: detection of certified epsilon-far graphs",
        [
            "family",
            "n",
            "certified farness",
            "epsilon used",
            "trials",
            "rejected",
            "rate (95% CI)",
            "stage",
        ],
    )
    cells = []
    specs = []
    for family in FAMILIES:
        # Generation is cheap at n=200; regenerating here (rather than
        # threading the graph through the specs) keeps the certificate
        # available for the epsilon choice and the table.
        graph, certified = make_far(family, N, seed=0)
        epsilon = min(0.3, max(0.05, certified * 0.9))
        cells.append((family, graph.number_of_nodes(), certified, epsilon))
        specs.extend(
            JobSpec.make(
                "test_planarity",
                far=family,
                n=N,
                seed=seed,
                graph_seed=0,
                epsilon=epsilon,
            )
            for seed in range(TRIALS)
        )
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())
    records = list(batch)

    rates = {}
    for index, (family, n, certified, epsilon) in enumerate(cells):
        cell = records[index * TRIALS : (index + 1) * TRIALS]
        rejected = sum(not record["accepted"] for record in cell)
        stages = {
            record["rejected_stage"] for record in cell if not record["accepted"]
        }
        lo, hi = wilson_interval(rejected, TRIALS)
        rates[family] = rejected / TRIALS
        table.add_row(
            family,
            n,
            certified,
            epsilon,
            TRIALS,
            rejected,
            f"{rejected / TRIALS:.2f} [{lo:.2f}, {hi:.2f}]",
            "/".join(sorted(stages)) or "-",
        )
    save_table(table, "e02_detection.md")
    return rates


def test_detection_rate_high(detection_table):
    for family, rate in detection_table.items():
        assert rate >= 0.9, (family, rate)


def test_benchmark_tester_on_far(benchmark, detection_table):
    graph, certified = make_far("planted-k5", N, seed=0)
    epsilon = min(0.3, certified * 0.9)
    result = benchmark(lambda: run_planarity(graph, epsilon=epsilon, seed=1))
    assert not result.accepted
