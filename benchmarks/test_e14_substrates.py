"""E14 (Table 10) -- substrate validation and cross-layer consistency.

Audits the layers everything else rests on:

* the LR planarity test agrees with the networkx oracle across a random
  graph sweep, and its embeddings pass the independent Euler-formula
  verification;
* the simulated (message-passing) and emulated (ledger-charged) layers
  agree exactly: Barenboim-Elkin deactivation schedules and Cole-Vishkin
  colorings match; BFS trees match;
* protocol bandwidth stays within the O(log n)-bit CONGEST budget.

Every check runs as a job batch on the :mod:`repro.runtime` engine --
``lr_oracle_trial`` (one job per random graph; the ``(n, p)``
coordinates come from the table's shared RNG walk, computed up front so
the committed numbers reproduce), ``forest_agreement``,
``cv_agreement``, ``congest_bandwidth``, and ``stage2_agreement``.
``REPRO_BENCH_BACKEND=process`` fans the whole audit over a pool.
"""

from __future__ import annotations

import random

import pytest

from _harness import bench_backend, bench_store, quick_mode, save_table
from repro.analysis.tables import Table
from repro.graphs import make_planar
from repro.runtime import JobSpec, run_jobs

SWEEP = 120 if quick_mode() else 300
FD_FAMILIES = ("grid", "delaunay", "apollonian", "tri-grid")
S2_FAMILIES = ("grid", "delaunay", "apollonian")


def _lr_trial_specs():
    """The (n, p) walk of the LR-vs-oracle sweep, as declarative specs.

    The sizes and densities are drawn from one sequential RNG stream
    (exactly the pre-migration protocol), then frozen into per-trial
    specs so the jobs are independent and poolable.
    """
    rng = random.Random(0)
    specs = []
    for trial in range(SWEEP):
        n = rng.randint(2, 16)
        p = rng.random()
        specs.append(
            JobSpec.make(
                "lr_oracle_trial", n=n, seed=0, gnp_n=n, gnp_p=p, trial=trial
            )
        )
    return specs


@pytest.fixture(scope="module")
def substrate_table():
    lr_specs = _lr_trial_specs()
    fd_specs = [
        JobSpec.make(
            "forest_agreement", family=family, n=150, seed=0, graph_seed=1,
            alpha=3,
        )
        for family in FD_FAMILIES
    ]
    cv_spec = JobSpec.make("cv_agreement", n=120, seed=0, length=120)
    bw_spec = JobSpec.make(
        "congest_bandwidth", family="delaunay", n=200, seed=0, graph_seed=2,
        root=0,
    )
    s2_specs = [
        JobSpec.make(
            "stage2_agreement", family=family, n=90, seed=0, graph_seed=3,
            epsilon=0.2,
        )
        for family in S2_FAMILIES
    ]
    specs = lr_specs + fd_specs + [cv_spec, bw_spec] + s2_specs
    batch = run_jobs(specs, backend=bench_backend(), store=bench_store())
    records = list(batch)

    lr = records[: len(lr_specs)]
    cursor = len(lr_specs)
    fd = records[cursor: cursor + len(fd_specs)]
    cursor += len(fd_specs)
    cv = records[cursor]
    bandwidth = records[cursor + 1]
    s2 = records[cursor + 2:]

    table = Table(
        "E14: substrate validation",
        ["check", "instances", "agreements", "notes"],
    )
    agree = sum(record["agree"] for record in lr)
    embeddings = sum(record["embedding_verified"] for record in lr)
    table.add_row("LR verdict vs networkx oracle", SWEEP, agree,
                  f"{embeddings} embeddings Euler-verified")

    fd_agree = sum(record["agree"] for record in fd)
    table.add_row("BE simulated == emulated", len(FD_FAMILIES), fd_agree,
                  "deactivation schedule + orientation")

    cv_same = bool(cv["agree"])
    table.add_row("CV simulated == emulated", 1, int(cv_same),
                  f"{cv['sim_rounds']} protocol rounds, "
                  f"{cv['emu_super_rounds']} super-rounds")

    table.add_row(
        "BFS protocol within bandwidth",
        bandwidth["messages"],
        bandwidth["messages"] - bandwidth["over_budget"],
        f"max msg {bandwidth['max_message_bits']} bits vs budget "
        f"{bandwidth['bandwidth_bits']}",
    )

    s2_agree = sum(record["agree"] for record in s2)
    table.add_row(
        "distributed Stage II == emulated corners",
        len(S2_FAMILIES),
        s2_agree,
        "positions identical + planar parts accepted",
    )

    save_table(table, "e14_substrates.md")
    return agree, fd_agree, cv_same, bandwidth["over_budget"], s2_agree


def test_lr_oracle_agreement(substrate_table):
    agree, _fd, _cv, _ob, _s2 = substrate_table
    assert agree == SWEEP


def test_cross_layer_agreement(substrate_table):
    _a, fd_agree, cv_same, _ob, s2_agree = substrate_table
    assert fd_agree == 4
    assert cv_same
    assert s2_agree == 3


def test_bandwidth_never_exceeded(substrate_table):
    _a, _fd, _cv, over_budget, _s2 = substrate_table
    assert over_budget == 0


def test_benchmark_lr_planarity(benchmark, substrate_table):
    from repro.planarity import check_planarity

    graph = make_planar("delaunay", 1000, seed=0)
    result = benchmark(lambda: check_planarity(graph))
    assert result.is_planar
