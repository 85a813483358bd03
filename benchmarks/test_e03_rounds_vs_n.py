"""E3 (Figure 1) -- round complexity scales as O(log n) at fixed epsilon.

Claim reproduced: Theorem 1's ``O(log n * poly(1/eps))`` round bound and
its optimality (Theorem 2): measured rounds grow linearly in ``log2 n``.
The table is the figure's data series; the fit quantifies the shape
(rounds ~ a*log2(n) + b with high R^2, and rounds/log2(n) flat).

The size series runs as one :mod:`repro.runtime` sweep, so the points
can be computed in parallel (``REPRO_BENCH_BACKEND=process``), and
repeat runs hit the result cache when ``REPRO_BENCH_CACHE_DIR`` is set.
"""

from __future__ import annotations

import math

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis import fit_rounds_vs_log_n
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import SweepSpec, run_sweep
from repro.testers import test_planarity as run_planarity

SIZES = (128, 256, 512, 1024) if quick_mode() else (128, 256, 512, 1024, 2048, 4096)
EPSILON = 0.25
FAMILY = "grid"


@pytest.fixture(scope="module")
def scaling_series():
    table = Table(
        f"E3: rounds vs n ({FAMILY}, epsilon={EPSILON}) -- expect linear in log n",
        ["n", "rounds", "stage1", "stage2", "rounds/log2(n)", "phases"],
    )
    sweep = SweepSpec.make(
        "test_planarity", families=[FAMILY], ns=SIZES, seeds=[0], epsilon=EPSILON
    )
    result = run_sweep(sweep, backend=bench_backend(), store=bench_store())
    ns, rounds = [], []
    for record in result.records:
        assert record["accepted"]
        actual_n = record["n"]
        ns.append(actual_n)
        rounds.append(record["rounds"])
        table.add_row(
            actual_n,
            record["rounds"],
            record["stage1_rounds"],
            record["stage2_rounds"],
            record["rounds"] / math.log2(actual_n),
            record["phases"],
        )
    fit = fit_rounds_vs_log_n(ns, rounds)
    table.add_row("fit", f"{fit.slope:.0f}*log2(n)+{fit.intercept:.0f}",
                  "-", "-", f"R^2={fit.r_squared:.3f}", "-")
    save_table(table, "e03_rounds_vs_n.md")
    return ns, rounds, fit


def test_log_n_scaling(scaling_series):
    ns, rounds, fit = scaling_series
    # the log-fit should explain the series well
    assert fit.r_squared > 0.8
    # and the growth must be strongly sublinear in n (instance noise on
    # short sweeps motivates the 0.75 exponent; the full sweep sits far
    # below even a square-root profile)
    assert rounds[-1] / rounds[0] < (ns[-1] / ns[0]) ** 0.75


def test_benchmark_tester_at_1024(benchmark, scaling_series):
    graph = make_planar(FAMILY, 1024, seed=0)
    result = benchmark(lambda: run_planarity(graph, epsilon=EPSILON, seed=0))
    assert result.accepted
