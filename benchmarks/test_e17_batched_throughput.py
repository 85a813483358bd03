"""E17 -- batched tensor plane: B trials as one numpy program.

Claim reproduced (engineering, not paper): stacking B same-topology
CONGEST trials into ``(B, slots)`` tensors and stepping them in
lockstep amortizes the python interpreter out of the delivery loop.
On a dense graph the batched plane must run each trial >= 5x faster
than the scalar dense plane while staying
bit-identical per trial (outputs, rounds, ledger totals).

The runtime half replays the same cell through :func:`run_jobs` with
``config=RunConfig(sim_batch=B)`` and asserts the coalescing path: one
``simulate_batch`` dispatch, B scalar records out, one topology
compilation.
"""

from __future__ import annotations

import time

import networkx as nx

from _harness import quick_mode, save_table
from repro.analysis.tables import Table
from repro.congest import (
    CongestNetwork,
    compile_topology,
    reset_topology_stats,
    run_batched,
    topology_stats,
)
from repro.congest.programs import BroadcastStormProgram
from repro.runtime import (
    JobSpec,
    RunConfig,
    SerialBackend,
    run_jobs,
)
import pytest

N = 200 if quick_mode() else 500
EDGE_PROB = 0.08
BATCH = 16 if quick_mode() else 64
STORM_ROUNDS = 6 if quick_mode() else 12
REPEATS = 2 if quick_mode() else 3
GATE = 5.0


def _storm_scalar(network: CongestNetwork):
    return network.run(
        BroadcastStormProgram,
        max_rounds=STORM_ROUNDS + 2,
        config={"storm_rounds": STORM_ROUNDS},
    )


RESULT_FIELDS = (
    "rounds",
    "halted",
    "total_messages",
    "total_bits",
    "max_message_bits",
    "over_budget_messages",
)


@pytest.fixture(scope="module")
def batched_table():
    graph = nx.gnp_random_graph(N, EDGE_PROB, seed=0)
    topology = compile_topology(graph)
    network = CongestNetwork(graph, seed=0)
    params = {"storm_rounds": STORM_ROUNDS}

    # Scalar side: per-trial cost of the dense plane, best-of-REPEATS.
    scalar_s = float("inf")
    scalar = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        scalar = _storm_scalar(network)
        scalar_s = min(scalar_s, time.perf_counter() - start)

    # Batched side: B trials of the same cell in one tensor program.
    batched_s = float("inf")
    results = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        results = run_batched("storm", [topology] * BATCH, params=params)
        batched_s = min(batched_s, time.perf_counter() - start)
    per_trial_s = batched_s / BATCH
    speedup = scalar_s / per_trial_s

    # Bit identity is part of the claim, not a separate suite here.
    for batched in results:
        for field in RESULT_FIELDS:
            assert getattr(batched, field) == getattr(scalar, field), field
        assert batched.outputs == scalar.outputs

    table = Table(
        f"E17: batched plane on G(n={N}, p={EDGE_PROB}), B={BATCH}, "
        f"{STORM_ROUNDS} storm rounds",
        ["plane", "trials", "wall s", "s/trial", "msgs/s", "speedup"],
    )
    table.add_row(
        "scalar dense",
        1,
        round(scalar_s, 4),
        round(scalar_s, 4),
        int(scalar.total_messages / scalar_s),
        1.0,
    )
    table.add_row(
        "batched tensor",
        BATCH,
        round(batched_s, 4),
        round(per_trial_s, 4),
        int(scalar.total_messages / per_trial_s),
        round(speedup, 2),
    )

    # Runtime half: the executor coalesces the cell into one
    # simulate_batch job and re-expands B scalar records.
    reset_topology_stats()
    specs = [
        JobSpec.make(
            "simulate_program",
            family="delaunay",
            n=128,
            seed=trial,
            graph_seed=0,
            program="storm",
            storm_rounds=STORM_ROUNDS,
        )
        for trial in range(8)
    ]
    batch = run_jobs(
        specs,
        backend=SerialBackend(),
        config=RunConfig(sim_batch=8),
    )
    compiled = topology_stats().compiled
    table.add_row(
        "sweep (8 trials, --batch 8)",
        len(batch.records),
        "-",
        "-",
        "-",
        f"{compiled} topology compile",
    )

    save_table(
        table,
        "e17_batched_throughput.md",
        metrics={
            "n": N,
            "edge_prob": EDGE_PROB,
            "batch": BATCH,
            "storm_rounds": STORM_ROUNDS,
            "repeats": REPEATS,
            "scalar_s": round(scalar_s, 6),
            "batched_s": round(batched_s, 6),
            "per_trial_s": round(per_trial_s, 6),
            "speedup": round(speedup, 3),
            "gate": GATE,
        },
    )
    return speedup, scalar, results, compiled, batch


def test_batched_at_least_5x_per_trial(batched_table):
    speedup, _scalar, _results, _compiled, _batch = batched_table
    assert speedup >= GATE, f"batched per-trial speedup only {speedup:.2f}x"


def test_batched_trials_bit_identical(batched_table):
    _speedup, scalar, results, _compiled, _batch = batched_table
    assert len(results) == BATCH
    for batched in results:
        assert batched.outputs == scalar.outputs
        assert batched.total_bits == scalar.total_bits


def test_sweep_coalesces_and_expands(batched_table):
    _speedup, _scalar, _results, compiled, batch = batched_table
    assert compiled == 1
    assert batch.executed == 8
    assert len(batch.records) == 8
    assert all(r["kind"] == "simulate_program" for r in batch.records)


def test_benchmark_batched_storm(benchmark, batched_table):
    graph = nx.gnp_random_graph(N, EDGE_PROB, seed=0)
    topology = compile_topology(graph)
    results = benchmark(
        lambda: run_batched(
            "storm",
            [topology] * BATCH,
            params={"storm_rounds": STORM_ROUNDS},
        )
    )
    assert all(r.halted for r in results)
