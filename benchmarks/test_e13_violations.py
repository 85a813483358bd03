"""E13 (Table 9) -- the violating-edge machinery (Definition 7, Claims 8-10).

Claims reproduced / audited:

* **corner criterion, completeness**: on planar graphs with the LR
  embedding, the number of violating edges is exactly 0 -- the
  foundation of one-sided error;
* **corner criterion, soundness (Corollary 9)**: on certified
  gamma-far graphs the violating-edge count is at least gamma * m;
* **paper-literal preorder criterion**: Claim 10 as printed does NOT
  hold -- planar graphs exhibit preorder interlacements (3x3 grid and
  every tested family); this reproduction finding motivates the corner
  refinement, the only criterion Stage II runs (the preorder column is
  computed by the ``violation_audit`` kind in
  ``repro/runtime/audit.py``).

The family sweep runs as ``violation_audit`` jobs on the
:mod:`repro.runtime` engine: planar specs analyze their LR embedding,
far specs the identity rotation plus their construction-certified
farness (``REPRO_BENCH_BACKEND=process`` parallelizes the families).
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.runtime import JobSpec, run_jobs

N = 150 if quick_mode() else 300
PLANAR = ("grid", "tri-grid", "apollonian", "delaunay", "outerplanar")
FAR = ("gnp", "planted-k5", "planted-k33", "planar-plus")


@pytest.fixture(scope="module")
def violations_table():
    specs = [
        JobSpec.make("violation_audit", family=family, n=N, seed=0)
        for family in PLANAR
    ] + [
        JobSpec.make("violation_audit", far=family, n=N, seed=0)
        for family in FAR
    ]
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())
    records = list(batch)

    table = Table(
        "E13: violating edges -- corner criterion vs paper-literal preorder",
        ["graph", "planar?", "certified farness", "non-tree edges",
         "violating (corner)", "violating (preorder)", "corner/m"],
    )
    planar_corner_total = 0
    far_rows = []
    for record in records:
        corner = record["violating_corner"]
        m = record["m"]
        if record["planar"]:
            planar_corner_total += corner
        else:
            far_rows.append(
                (record["family"], corner, record["certified_farness"], m)
            )
        table.add_row(
            record["family"],
            record["planar"],
            record["certified_farness"],
            record["non_tree_edges"],
            corner,
            record["violating_preorder"],
            corner / m,
        )
    save_table(table, "e13_violations.md")
    return planar_corner_total, far_rows


def test_corner_criterion_zero_on_planar(violations_table):
    planar_corner_total, _far = violations_table
    assert planar_corner_total == 0


def test_corollary9_far_graphs(violations_table):
    _z, far_rows = violations_table
    for family, corner, certified, m in far_rows:
        assert corner >= certified * m - 1e-9, (family, corner, certified * m)


def test_benchmark_violation_sweep(benchmark, violations_table):
    from repro.runtime import run_job

    spec = JobSpec.make("violation_audit", far="gnp", n=N, seed=0)
    record = benchmark(lambda: run_job(spec))
    assert record["violating_corner"] > 0
