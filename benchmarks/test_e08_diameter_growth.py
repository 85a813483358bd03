"""E8 (Table 5) -- Claim 4: part diameters grow at most geometrically.

Claim reproduced: "for each phase i and part P, the subgraph induced by P
is connected and has diameter at most 4^i".  We audit the spanning-tree
height (an upper bound on the radius) after every phase against 4^i, and
report how far below the bound reality stays.

The per-family runs execute as ``partition_phase_audit`` jobs on the
:mod:`repro.runtime` engine (``REPRO_BENCH_BACKEND=process``
parallelizes across families); each record carries the full per-phase
trajectory as a JSON column that this table unrolls.
"""

from __future__ import annotations

import json

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.partition import partition_stage1
from repro.runtime import JobSpec, run_jobs

FAMILIES = ("grid", "delaunay", "apollonian", "tri-grid")
N = 300 if quick_mode() else 600


@pytest.fixture(scope="module")
def diameter_table():
    specs = [
        JobSpec.make(
            "partition_phase_audit", family=family, n=N, seed=0, epsilon=0.05
        )
        for family in FAMILIES
    ]
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())

    table = Table(
        "E8: Claim 4 audit -- max part tree height after phase i vs 4^i",
        ["family", "phase", "max height", "bound 4^i", "headroom", "parts"],
    )
    violations = 0
    for record in batch:
        for phase, max_height, parts in json.loads(record["phases_json"]):
            bound = 4**phase
            if max_height > bound:
                violations += 1
            table.add_row(
                record["family"],
                phase,
                max_height,
                bound,
                bound / max(1, max_height),
                parts,
            )
    save_table(table, "e08_diameter_growth.md")
    return violations


def test_claim4_never_violated(diameter_table):
    assert diameter_table == 0


def test_benchmark_deep_phase_run(benchmark, diameter_table):
    graph = make_planar("grid", N, seed=0)
    result = benchmark(lambda: partition_stage1(graph, epsilon=0.05))
    assert result.success
