"""E15 -- simulator throughput: the production delivery path vs the seed's.

Claim reproduced (engineering, not paper): on dense graphs (n >= 500)
the simulator's one delivery path -- O(1) pure-broadcast charging and
zero-copy ``SlotInbox`` views over the dense plane -- must beat the
seed's per-message accounting with real inbox dicts (the test oracle
``_reference_paths.faithful_profile``, the ``faithful (oracle)`` row) by
>= 3x while producing byte-identical outputs, rounds, and message/bit
totals.

The sweep half of the table runs the same workload through the
:mod:`repro.runtime` engine and asserts the topology-reuse path: all
trials of one graph share a single compiled topology.
"""

from __future__ import annotations

import gc
import time

import networkx as nx

from _harness import paired_best, quick_mode, save_table
from _reference_paths import faithful_profile
from repro.analysis.tables import Table
from repro.congest import (
    CongestNetwork,
    compile_topology,
    reset_topology_stats,
    topology_stats,
)
from repro.congest.programs import BroadcastStormProgram
from repro.runtime import JobSpec, SerialBackend, run_jobs
import pytest

N = 500
EDGE_PROB = 0.08  # ~20k directed deliveries per round at n=500
STORM_ROUNDS = 6 if quick_mode() else 12
REPEATS = 2 if quick_mode() else 3


def _storm(network: CongestNetwork):
    return network.run(
        BroadcastStormProgram,
        max_rounds=STORM_ROUNDS + 2,
        config={"storm_rounds": STORM_ROUNDS},
    )


def _time_storm(network: CongestNetwork):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = _storm(network)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def throughput_table():
    graph = nx.gnp_random_graph(N, EDGE_PROB, seed=0)
    compile_topology(graph)  # pre-compile so timings cover delivery only
    network = CongestNetwork(graph, seed=0)

    with faithful_profile():
        faithful_time, faithful = _time_storm(network)
    fast_time, fast = _time_storm(network)
    speedup = faithful_time / fast_time

    table = Table(
        f"E15: simulator throughput on G(n={N}, p={EDGE_PROB}), "
        f"{STORM_ROUNDS} storm rounds",
        ["path", "rounds", "messages", "Mbit", "wall s", "msgs/s", "speedup"],
    )
    for name, seconds, result in (
        ("faithful (oracle)", faithful_time, faithful),
        ("production", fast_time, fast),
    ):
        table.add_row(
            name,
            result.rounds,
            result.total_messages,
            round(result.total_bits / 1e6, 2),
            round(seconds, 4),
            int(result.total_messages / seconds),
            round(faithful_time / seconds, 2),
        )

    # Topology-reuse half: replay trials through the runtime engine and
    # count compilations.
    reset_topology_stats()
    specs = [
        JobSpec.make(
            "simulate_program",
            family="delaunay",
            n=256,
            seed=trial,
            graph_seed=0,
            program="storm",
            storm_rounds=STORM_ROUNDS,
        )
        for trial in range(4)
    ]
    batch = run_jobs(specs, backend=SerialBackend())
    compiled = topology_stats().compiled
    table.add_row(
        "sweep (4 trials)",
        batch.records[0]["rounds"],
        sum(r["messages"] for r in batch.records),
        round(sum(r["bits"] for r in batch.records) / 1e6, 2),
        "-",
        "-",
        f"{compiled} topology compile",
    )

    save_table(
        table,
        "e15_simulator_throughput.md",
        metrics={
            "n": N,
            "edge_prob": EDGE_PROB,
            "storm_rounds": STORM_ROUNDS,
            "repeats": REPEATS,
            "faithful_s": round(faithful_time, 6),
            "fast_s": round(fast_time, 6),
            "speedup": round(speedup, 3),
            "gate": 3.0,
        },
    )
    return speedup, faithful, fast, compiled, batch


def test_fast_profile_at_least_3x(throughput_table):
    speedup, _faithful, _fast, _compiled, _batch = throughput_table
    assert speedup >= 3.0, f"production path speedup only {speedup:.2f}x"


def test_profiles_agree_exactly(throughput_table):
    _speedup, faithful, fast, _compiled, _batch = throughput_table
    assert faithful.outputs == fast.outputs
    assert faithful.rounds == fast.rounds
    assert faithful.halted == fast.halted
    assert faithful.total_messages == fast.total_messages
    assert faithful.total_bits == fast.total_bits
    assert faithful.max_message_bits == fast.max_message_bits
    assert faithful.over_budget_messages == fast.over_budget_messages


def test_sweep_compiles_topology_once(throughput_table):
    _speedup, _faithful, _fast, compiled, batch = throughput_table
    assert compiled == 1
    assert batch.executed == 4


def test_benchmark_fast_profile_storm(benchmark, throughput_table):
    graph = nx.gnp_random_graph(N, EDGE_PROB, seed=0)
    network = CongestNetwork(graph, seed=0)
    result = benchmark(lambda: _storm(network))
    assert result.halted


TELEMETRY_GATE = 1.03  # disabled-telemetry overhead budget: <= 3%


def _storm_hooked(network: CongestNetwork, sink: list):
    def hook(round_index, active, accounting):
        sink.append((round_index, active, accounting.total_messages))

    return network.run(
        BroadcastStormProgram,
        max_rounds=STORM_ROUNDS + 2,
        config={"storm_rounds": STORM_ROUNDS},
        round_hook=hook,
    )


def _cpu_seconds(storm) -> float:
    """CPU seconds of one *storm* call, with the garbage collector paused.

    ``process_time`` leaves out the time other processes on the host
    take from this one, and a paused collector keeps a collection of a
    large heap (late in a full test run) off whichever side triggers it.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        storm()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def test_disabled_telemetry_overhead_gate(throughput_table):
    """The telemetry seams must be free when telemetry is off.

    Paired best-of-{REPEATS+3}, the side that runs first alternating per
    repeat: the production disabled path (``round_hook=None`` -- one
    predicted branch per round) against the same storm with a live
    per-round hook, on one network, each timed in CPU seconds with the
    collector paused (:func:`_cpu_seconds`).  The disabled side must run
    within :data:`TELEMETRY_GATE` of the hooked side (small absolute
    slack absorbs timer noise at quick-mode sizes); in a sane world it
    is strictly faster, so the gate catches any accidental always-on
    instrumentation in the delivery loop.
    """
    from repro.telemetry import telemetry_enabled

    assert not telemetry_enabled(), (
        "benchmarks must run with telemetry disabled -- is "
        "REPRO_TELEMETRY or REPRO_TRACE_DIR leaking into the bench "
        "environment?"
    )
    graph = nx.gnp_random_graph(N, EDGE_PROB, seed=0)
    network = CongestNetwork(graph, seed=0)
    _storm(network)  # warm the topology/plane caches
    rows: list = []
    hooked = None

    def time_disabled(_rep):
        return _cpu_seconds(lambda: _storm(network))

    def time_hooked(_rep):
        rows.clear()

        def storm():
            nonlocal hooked
            hooked = _storm_hooked(network, rows)

        return _cpu_seconds(storm)

    best = paired_best(
        {"disabled": time_disabled, "hooked": time_hooked}, REPEATS + 3
    )
    disabled_s, hooked_s = best["disabled"], best["hooked"]
    assert hooked.halted
    assert len(rows) == hooked.rounds  # the hook fired once per round
    overhead = disabled_s / hooked_s
    table = Table(
        f"E15: telemetry overhead on G(n={N}, p={EDGE_PROB}), "
        f"{STORM_ROUNDS} storm rounds",
        ["mode", "cpu s", "vs hooked"],
    )
    table.add_row("telemetry disabled", round(disabled_s, 4), round(overhead, 3))
    table.add_row("round hook active", round(hooked_s, 4), 1.0)
    save_table(
        table,
        "e15_telemetry_overhead.md",
        metrics={
            "disabled_s": round(disabled_s, 6),
            "hooked_s": round(hooked_s, 6),
            "disabled_over_hooked": round(overhead, 4),
            "gate": TELEMETRY_GATE,
        },
    )
    assert disabled_s <= hooked_s * TELEMETRY_GATE + 0.01, (
        f"disabled-telemetry storm took {disabled_s:.4f}s vs {hooked_s:.4f}s "
        "with the round hook active -- the disabled path is paying for "
        "instrumentation"
    )
