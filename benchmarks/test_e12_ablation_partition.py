"""E12 (Table 8) -- ablation: Stage I vs the Elkin-Neiman/MPX partition.

Claim reproduced: the Section 1.1 remark that replacing Stage I with the
[12]-style random-shift partition yields an ``O(log^2 n poly(1/eps))``
tester versus Stage I's ``O(log n poly(1/eps))``.  The mechanism: MPX
parts have diameter ``Theta(log n / eps)``, so *Stage II's* label and
sample broadcasts (which pipeline O(log n / eps) sampled labels of
O(D log n) bits over depth-D trees) pick up an extra log n factor, while
Stage I parts keep poly(1/eps) diameters.  Measured: total rounds of both
variants across n, plus the part-diameter column that drives the gap.

Both variants run as job batches on the :mod:`repro.runtime` engine --
``test_planarity`` for Stage I, the ``mpx_ablation`` kind for the
random-shift replacement (``REPRO_BENCH_BACKEND=process`` parallelizes
across sizes).
"""

from __future__ import annotations

import math

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis import linear_fit
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import JobSpec, run_jobs

SIZES = (128, 256, 512) if quick_mode() else (128, 256, 512, 1024, 2048)
EPSILON = 0.25
FAMILY = "grid"


@pytest.fixture(scope="module")
def ablation_table():
    stage1_specs = [
        JobSpec.make(
            "test_planarity", family=FAMILY, n=n, seed=0, epsilon=EPSILON
        )
        for n in SIZES
    ]
    mpx_specs = [
        JobSpec.make(
            "mpx_ablation", family=FAMILY, n=n, seed=0, epsilon=EPSILON
        )
        for n in SIZES
    ]
    batch = run_jobs(
        stage1_specs + mpx_specs, backend=bench_backend(), store=bench_store()
    )
    records = list(batch)
    stage1_records = records[: len(SIZES)]
    mpx_records = records[len(SIZES):]

    table = Table(
        f"E12: Stage I vs MPX partition inside the tester ({FAMILY}, eps={EPSILON})",
        ["n", "stageI rounds", "stageI max height", "MPX rounds",
         "MPX max height", "ratio MPX/stageI"],
    )
    ns, stage1_rounds, mpx_rounds = [], [], []
    for stage1, mpx in zip(stage1_records, mpx_records):
        assert stage1["accepted"]
        assert mpx["accepted"]  # one-sided error holds for the ablation too
        ns.append(stage1["n"])
        stage1_rounds.append(stage1["rounds"])
        mpx_rounds.append(mpx["rounds"])
        table.add_row(
            stage1["n"],
            stage1["rounds"],
            stage1["max_part_height"],
            mpx["rounds"],
            mpx["max_height"],
            mpx["rounds"] / stage1["rounds"],
        )
    logs = [math.log2(n) for n in ns]
    fit1 = linear_fit(logs, stage1_rounds)
    fit2 = linear_fit(logs, mpx_rounds)
    table.add_row(
        "slope vs log2 n",
        f"{fit1.slope:.0f} (R^2={fit1.r_squared:.2f})",
        "-",
        f"{fit2.slope:.0f} (R^2={fit2.r_squared:.2f})",
        "-",
        "-",
    )
    save_table(table, "e12_ablation_partition.md")
    return ns, stage1_rounds, mpx_rounds


def test_mpx_part_heights_grow_with_n(ablation_table):
    ns, _s1, _mpx = ablation_table
    assert len(ns) == len(SIZES)


def test_both_variants_sublinear(ablation_table):
    ns, stage1_rounds, mpx_rounds = ablation_table
    growth = ns[-1] / ns[0]
    assert stage1_rounds[-1] / stage1_rounds[0] < growth
    assert mpx_rounds[-1] / mpx_rounds[0] < growth


def test_benchmark_mpx_variant(benchmark, ablation_table):
    from repro.runtime import run_job

    spec = JobSpec.make(
        "mpx_ablation", family=FAMILY, n=512, seed=0, epsilon=EPSILON
    )
    graph = make_planar(FAMILY, 512, seed=0)
    record = benchmark(lambda: run_job(spec, graph))
    assert record["accepted"]
