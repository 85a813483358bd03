"""E1 (Table 1) -- Theorem 1 completeness: planar graphs are always accepted.

Claim reproduced: one-sided error.  "If G is planar, then every node
outputs accept" -- the rejection rate on every planar family, size, and
epsilon must be identically zero.

The full family x size x epsilon x trial grid is expanded and executed
by the :mod:`repro.runtime` engine (see ``REPRO_BENCH_BACKEND``); the
table aggregates the per-cell records.
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import SweepSpec, run_sweep
from repro.testers import test_planarity as run_planarity

FAMILIES = ("grid", "tri-grid", "apollonian", "delaunay", "outerplanar", "tree")
SIZES = (64, 256) if quick_mode() else (64, 256, 1024)
EPSILONS = (0.5, 0.1)
TRIALS = 3


@pytest.fixture(scope="module")
def completeness_table():
    sweep = SweepSpec.make(
        "test_planarity",
        families=FAMILIES,
        ns=SIZES,
        seeds=tuple(range(TRIALS)),
        epsilon=list(EPSILONS),
    )
    result = run_sweep(sweep, backend=bench_backend(), store=bench_store())

    table = Table(
        "E1: one-sided error -- rejection rate on planar inputs (must be 0)",
        ["family", "n", "epsilon", "trials", "rejections", "rounds (last run)"],
    )
    total_rejections = 0
    # expand() keeps the TRIALS seeds of one (family, n, epsilon) cell
    # adjacent, so the record stream chunks into cells directly.
    records = result.records
    for cell_start in range(0, len(records), TRIALS):
        cell = records[cell_start : cell_start + TRIALS]
        rejections = sum(not record["accepted"] for record in cell)
        total_rejections += rejections
        table.add_row(
            cell[0]["family"],
            cell[0]["n"],
            cell[0]["epsilon"],
            TRIALS,
            rejections,
            cell[-1]["rounds"],
        )
    save_table(table, "e01_completeness.md")
    return total_rejections


def test_zero_rejections_on_planar(completeness_table):
    assert completeness_table == 0


def test_benchmark_tester_on_planar(benchmark, completeness_table):
    graph = make_planar("delaunay", 256, seed=0)
    result = benchmark(lambda: run_planarity(graph, epsilon=0.1, seed=0))
    assert result.accepted
