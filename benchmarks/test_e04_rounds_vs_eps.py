"""E4 (Figure 2) -- round complexity vs the distance parameter epsilon.

Claim reproduced: the poly(1/eps) factor of Theorem 1.  At fixed n the
measured rounds grow as epsilon shrinks (more phases, deeper parts,
larger samples), and the growth is polynomial in 1/eps.

The epsilon axis runs as one :mod:`repro.runtime` sweep
(``REPRO_BENCH_BACKEND=process`` parallelizes it; with a cache
configured, all points share one generated graph and its fingerprint).
"""

from __future__ import annotations

import pytest

from _harness import bench_backend, bench_store, save_table
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import SweepSpec, run_sweep
from repro.testers import test_planarity as run_planarity

EPSILONS = (0.5, 0.4, 0.3, 0.2, 0.1, 0.05)
N = 512
FAMILY = "delaunay"


@pytest.fixture(scope="module")
def eps_series():
    table = Table(
        f"E4: rounds vs 1/epsilon ({FAMILY}, n={N})",
        ["epsilon", "1/epsilon", "rounds", "stage1", "stage2",
         "phases", "parts", "max part height"],
    )
    sweep = SweepSpec.make(
        "test_planarity",
        families=[FAMILY],
        ns=[N],
        seeds=[0],
        epsilon=list(EPSILONS),
    )
    result = run_sweep(sweep, backend=bench_backend(), store=bench_store())
    series = []
    for record in result.records:
        assert record["accepted"]
        epsilon = record["epsilon"]
        series.append((epsilon, record["rounds"]))
        table.add_row(
            epsilon,
            1 / epsilon,
            record["rounds"],
            record["stage1_rounds"],
            record["stage2_rounds"],
            record["phases"],
            record["parts"],
            record["max_part_height"],
        )
    save_table(table, "e04_rounds_vs_eps.md")
    return series


def test_rounds_increase_as_eps_shrinks(eps_series):
    loosest = eps_series[0][1]
    tightest = eps_series[-1][1]
    assert tightest >= loosest


def test_growth_is_polynomial_not_exponential(eps_series):
    # rounds(eps/2) / rounds(eps) should stay bounded by a constant
    by_eps = dict(eps_series)
    for a, b in [(0.4, 0.2), (0.2, 0.1), (0.1, 0.05)]:
        assert by_eps[b] <= 40 * by_eps[a]


def test_benchmark_tight_epsilon(benchmark, eps_series):
    graph = make_planar(FAMILY, N, seed=0)
    result = benchmark(lambda: run_planarity(graph, epsilon=0.05, seed=0))
    assert result.accepted
