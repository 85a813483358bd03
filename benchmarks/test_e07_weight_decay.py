"""E7 (Figure 3) -- per-phase cut-weight decay (Claims 1 and 14, Lemma 13).

Claims reproduced: the deterministic merging step multiplies the cut
weight by at most ``1 - 1/(12 alpha)`` per phase (we assert the
conservative provable ``1 - 1/(36 alpha)``), the randomized one by
``1 - 1/(64 alpha)`` w.h.p.  The measured decay factors beat both bounds
comfortably -- this is the series behind the paper's O(log 1/eps) phase
count.

Both algorithm variants run as one :class:`SweepSpec` per kind on the
:mod:`repro.runtime` engine (``REPRO_BENCH_BACKEND=process``
parallelizes across families); the partition job records carry the
per-run decay summary (min / geomean / max, zero-cut phases clamped to
1e-6) that this table used to recompute from in-process phase lists.
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import SweepSpec, run_sweep

ALPHA = 3
DET_BOUND = 1 - 1 / (36 * ALPHA)
RAND_BOUND = 1 - 1 / (64 * ALPHA)
FAMILIES = ("grid", "tri-grid", "apollonian", "delaunay")
N = 300 if quick_mode() else 600


@pytest.fixture(scope="module")
def decay_table():
    det_sweep = SweepSpec.make(
        "partition_stage1", families=FAMILIES, ns=(N,), seeds=(0,),
        epsilon=0.05,
    )
    # graph_seed pins the same generated instance the deterministic rows
    # use while seed=1 drives only the algorithm's randomness (the
    # pre-migration benchmark compared both algorithms on one graph).
    rand_sweep = SweepSpec.make(
        "partition_randomized", families=FAMILIES, ns=(N,), seeds=(1,),
        epsilon=0.05, delta=0.05, graph_seed=0,
    )
    det = run_sweep(det_sweep, backend=bench_backend(), store=bench_store())
    rand = run_sweep(rand_sweep, backend=bench_backend(), store=bench_store())

    table = Table(
        "E7: per-phase cut decay factors (lower = faster progress)",
        ["family", "algorithm", "phases", "min decay", "geomean decay",
         "max decay", "provable bound"],
    )
    worst = {"det": 0.0, "rand": 0.0}
    rand_by_family = {record["family"]: record for record in rand.records}
    for record in det.records:
        worst["det"] = max(worst["det"], record["decay_max"])
        table.add_row(
            record["family"], "deterministic", record["phases"],
            record["decay_min"], record["decay_geomean"],
            record["decay_max"], DET_BOUND,
        )
        rand_record = rand_by_family[record["family"]]
        worst["rand"] = max(worst["rand"], rand_record["decay_max"])
        table.add_row(
            record["family"], "randomized", rand_record["phases"],
            rand_record["decay_min"], rand_record["decay_geomean"],
            rand_record["decay_max"], RAND_BOUND,
        )
    save_table(table, "e07_weight_decay.md")
    return worst


def test_deterministic_decay_beats_bound(decay_table):
    assert decay_table["det"] <= DET_BOUND + 1e-9


def test_randomized_decay_beats_bound_whp(decay_table):
    # delta=0.05 over a handful of phases: allow no observed violation
    assert decay_table["rand"] <= RAND_BOUND + 1e-9


def test_benchmark_phase_loop(benchmark, decay_table):
    from repro.partition import partition_stage1

    graph = make_planar("apollonian", N, seed=0)
    result = benchmark(lambda: partition_stage1(graph, epsilon=0.05))
    assert result.success
