"""E9 (Table 6) -- Corollary 16: cycle-freeness and bipartiteness testers.

Claims reproduced: under the minor-free promise, the deterministic
testers accept every property-satisfying graph, reject every certified
epsilon-far graph, and run in O(poly(1/eps) log n) rounds; the randomized
variants succeed with probability >= 1 - delta in
O(poly(1/eps)(log 1/delta + log* n)) rounds.

The workload x method grid executes as ``application_audit`` jobs on
the :mod:`repro.runtime` engine; the runner measures each graph's
certified farness and derives the tester epsilon from it, so the spec
stays declarative (``REPRO_BENCH_BACKEND=process`` parallelizes the
grid).
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.graphs import triangulated_grid
from repro.runtime import JobSpec, run_jobs
from repro.testers import test_cycle_freeness as run_cycle_freeness

SIDE = 12 if quick_mode() else 18
METHODS = ("deterministic", "randomized")

# (name, family, property, expected verdict); the graphs are the family
# generators at n = SIDE*SIDE with graph seed 0 (grids ignore the seed).
WORKLOADS = (
    ("tree", "tree", "cycle", True),
    ("grid", "grid", "cycle", False),
    ("tri-grid", "tri-grid", "cycle", False),
    ("sparse planar", "planar-sparse", "cycle", None),
    ("grid", "grid", "bipartite", True),
    ("tree", "tree", "bipartite", True),
    ("tri-grid", "tri-grid", "bipartite", False),
)


@pytest.fixture(scope="module")
def applications_table():
    specs = [
        JobSpec.make(
            "application_audit",
            family=family,
            n=SIDE * SIDE,
            seed=3,
            graph_seed=0,
            property=prop,
            method=method,
        )
        for _name, family, prop, _expected in WORKLOADS
        for method in METHODS
    ]
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())
    records = list(batch)

    table = Table(
        "E9: Corollary 16 testers on minor-free graphs",
        ["graph", "property", "farness (lb)", "method", "verdict",
         "expected", "rounds"],
    )
    failures = 0
    index = 0
    for name, _family, prop, expected in WORKLOADS:
        for method in METHODS:
            record = records[index]
            index += 1
            verdict = record["accepted"]
            ok = expected is None or verdict == expected
            failures += not ok
            table.add_row(
                name,
                prop,
                record["farness"],
                method,
                "accept" if verdict else "REJECT",
                "-" if expected is None else ("accept" if expected else "REJECT"),
                record["rounds"],
            )
    save_table(table, "e09_applications.md")
    return failures


def test_all_expected_verdicts(applications_table):
    assert applications_table == 0


def test_benchmark_cycle_tester(benchmark, applications_table):
    graph = triangulated_grid(SIDE, SIDE)
    result = benchmark(lambda: run_cycle_freeness(graph, epsilon=0.4))
    assert not result.accepted
