"""E11 (Figure 4) -- Theorem 2: the Omega(log n) lower-bound construction.

Claims reproduced (Claims 11 & 12): the surgically-thinned G(n, c/n) is
simultaneously (a) certified Theta(1)-far from planarity and (b) of girth
Omega(log n), so every node's view within ``ceil(girth/2) - 1`` rounds is
a tree.  A tree view also occurs in a forest -- a planar graph on which a
one-sided tester must accept -- hence no one-sided tester running fewer
rounds can reject these far graphs.  The girth series grows with log n.

The size series runs as graphless ``lower_bound_audit`` jobs on the
:mod:`repro.runtime` engine (the runner synthesizes the hard instance
itself; ``REPRO_BENCH_BACKEND=process`` parallelizes across sizes).
"""

from __future__ import annotations

import math

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis import linear_fit
from repro.analysis.tables import Table
from repro.graphs import lower_bound_instance
from repro.runtime import JobSpec, run_jobs

SIZES = (256, 512, 1024) if quick_mode() else (256, 512, 1024, 2048, 4096)


@pytest.fixture(scope="module")
def lower_bound_table():
    specs = [
        JobSpec.make("lower_bound_audit", n=n, seed=0) for n in SIZES
    ]
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())

    table = Table(
        "E11: Theorem 2 hard instances -- girth grows with log n while the "
        "graph stays certified-far",
        ["n", "m", "girth", "target", "removed (frac of m)", "farness lb",
         "blind radius", "views are trees"],
    )
    rows = []
    for record in batch:
        n = record["n"]
        m = record["m"]
        rows.append(
            (n, record["girth"], record["farness_lb"],
             record["views_are_trees"])
        )
        table.add_row(
            n,
            m,
            record["girth"],
            record["target_girth"],
            record["removed_edges"] / max(1, m + record["removed_edges"]),
            record["farness_lb"],
            record["blind_radius"],
            record["views_are_trees"],
        )
    ns = [r[0] for r in rows]
    girths = [float(r[1]) for r in rows]
    fit = linear_fit([math.log2(n) for n in ns], girths)
    table.add_row("fit", f"girth ~ {fit.slope:.2f}*log2(n)", "-", "-", "-",
                  f"R^2={fit.r_squared:.2f}", "-", "-")
    save_table(table, "e11_lower_bound.md")
    return rows


def test_instances_remain_far(lower_bound_table):
    for n, _girth, farness, _trees in lower_bound_table:
        assert farness > 0.25, (n, farness)


def test_views_are_trees(lower_bound_table):
    for n, _girth, _farness, trees in lower_bound_table:
        assert trees, n


def test_girth_grows_with_n(lower_bound_table):
    girths = [g for _n, g, _f, _t in lower_bound_table]
    assert girths[-1] >= girths[0]
    assert girths[-1] >= 5


def test_benchmark_construction(benchmark, lower_bound_table):
    inst = benchmark(lambda: lower_bound_instance(512, seed=1))
    assert inst.farness_lower_bound > 0
