"""E5 (Table 3) -- Theorem 3: deterministic partition quality.

Claim reproduced: "the algorithm runs in O(poly(1/eps) log n) rounds, the
diameter of each part is poly(1/eps), and if G is minor-free, then the
total number of edges between parts is at most eps*n".

The family x epsilon grid executes as a :class:`SweepSpec` on the
:mod:`repro.runtime` engine (``REPRO_BENCH_BACKEND=process``
parallelizes it); the ``target_cut="eps*n"`` knob lets each job resolve
its cut target against the *actual* generated size, which family
generators may round.
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.graphs import make_planar
from repro.partition import partition_stage1
from repro.runtime import SweepSpec, run_sweep

FAMILIES = ("grid", "tri-grid", "apollonian", "delaunay", "outerplanar")
EPSILONS = (0.4, 0.2, 0.1)
N = 300 if quick_mode() else 600


@pytest.fixture(scope="module")
def partition_table():
    sweep = SweepSpec.make(
        "partition_stage1",
        families=FAMILIES,
        ns=(N,),
        seeds=(0,),
        epsilon=list(EPSILONS),
        target_cut="eps*n",
    )
    result = run_sweep(sweep, backend=bench_backend(), store=bench_store())

    rows = []
    for record in result.records:
        assert record["success"], record["family"]
        rows.append(
            (
                record["family"],
                record["epsilon"],
                record["cut"],
                record["target_cut"],
                record["max_diameter"],
            )
        )
    table = result.to_table(
        f"E5: Theorem 3 partition quality (n={N}, target = eps*n)",
        columns=[
            "family",
            "epsilon",
            "parts",
            "cut",
            "target_cut",
            "max_diameter",
            "max_height",
            "phases",
            "rounds",
        ],
    )
    save_table(table, "e05_partition.md")
    return rows


def test_cut_targets_met(partition_table):
    for family, epsilon, cut, target, _diam in partition_table:
        assert cut <= target, (family, epsilon, cut, target)


def test_diameters_do_not_depend_on_n(partition_table):
    # poly(1/eps) diameters: for fixed eps the diameter is bounded by a
    # modest constant, far below n
    for family, epsilon, _cut, _target, diam in partition_table:
        assert diam <= 4 ** (2 + int(3 / epsilon)), (family, epsilon, diam)


def test_benchmark_partition(benchmark, partition_table):
    graph = make_planar("delaunay", N, seed=0)
    result = benchmark(
        lambda: partition_stage1(graph, epsilon=0.2, target_cut=0.2 * N)
    )
    assert result.success
