"""Differential suite: the batched tensor plane vs. the scalar dense plane.

The batched engine's contract is *bit identity* with the scalar dense
plane under the ``fast`` profile, per trial: outputs, round counts,
halting, message/bit ledger totals, ``max_message_bits``, bandwidth
budgets, and over-budget counts.  This suite certifies it across every
bundled generator (planar and far-from-planar families) for all five
vectorized programs, including ragged batches with padded CSR and
trials that halt mid-batch, plus the strict-bandwidth abort path.
"""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from _reference_paths import dict_plane
from repro.congest import (
    CongestNetwork,
    batch_kernels,
    compile_topology,
    pad_groups,
    run_batched,
)
from repro.congest.programs import (
    BFSTreeProgram,
    BarenboimElkinProgram,
    BroadcastStormProgram,
    FloodProgram,
)
from repro.congest.programs.cole_vishkin import (
    ColeVishkinProgram,
    cv_schedule,
    min_neighbor_parents,
)
from repro.congest.programs.forest_decomposition import (
    barenboim_elkin_round_budget,
)
from repro.congest.xp import int_bit_length
from repro.errors import BandwidthExceededError
from repro.graphs.far_from_planar import FAR_FAMILIES, make_far
from repro.graphs.generators import PLANAR_FAMILIES, make_planar

PROGRAMS = ("flood", "bfs", "forest", "cv", "storm")

RESULT_FIELDS = (
    "rounds",
    "halted",
    "total_messages",
    "total_bits",
    "max_message_bits",
    "bandwidth_bits",
    "over_budget_messages",
    "profile",
)

STORM_ROUNDS = 5


def scalar_reference(program, graph, bandwidth_bits=None):
    """Run *program* on the scalar dense plane exactly as jobs do."""
    network = CongestNetwork(graph, bandwidth_bits=bandwidth_bits, seed=0)
    root = min(graph.nodes())
    if program == "flood":
        return network.run(
            FloodProgram,
            max_rounds=network.n + 2,
            config={"root": root},
            strict_bandwidth=True,
            profile="fast",
        )
    if program == "bfs":
        return network.run(
            BFSTreeProgram,
            max_rounds=network.n + 2,
            config={"root": root},
            strict_bandwidth=True,
            profile="fast",
        )
    if program == "forest":
        budget = barenboim_elkin_round_budget(network.n)
        return network.run(
            BarenboimElkinProgram,
            max_rounds=budget + 3,
            config={"alpha": 3, "budget": budget},
            strict_bandwidth=True,
            profile="fast",
        )
    if program == "cv":
        schedule = cv_schedule(max(graph.nodes(), default=1))
        return network.run(
            ColeVishkinProgram,
            max_rounds=len(schedule) + 3,
            config={
                "parents": min_neighbor_parents(graph),
                "schedule": schedule,
            },
            strict_bandwidth=True,
            profile="fast",
        )
    assert program == "storm"
    return network.run(
        BroadcastStormProgram,
        max_rounds=STORM_ROUNDS + 2,
        config={"storm_rounds": STORM_ROUNDS},
        profile="fast",
    )


def assert_trial_identical(program, graph, batched, bandwidth_bits=None):
    scalar = scalar_reference(program, graph, bandwidth_bits=bandwidth_bits)
    for field in RESULT_FIELDS:
        assert getattr(batched, field) == getattr(scalar, field), (
            program,
            graph.number_of_nodes(),
            field,
            getattr(batched, field),
            getattr(scalar, field),
        )
    assert batched.outputs == scalar.outputs, (
        program,
        graph.number_of_nodes(),
    )


@pytest.fixture(scope="module")
def generator_zoo():
    """One small instance per bundled generator, two seeds each (ragged)."""
    graphs = []
    for family in sorted(PLANAR_FAMILIES):
        for seed in (0, 1):
            graphs.append(make_planar(family, 40, seed=seed))
    for family in sorted(FAR_FAMILIES):
        for seed in (0, 1):
            graph, _farness = make_far(family, 40, seed=seed)
            graphs.append(graph)
    return graphs


@pytest.mark.parametrize("program", PROGRAMS)
def test_bit_identical_across_all_generators(program, generator_zoo):
    """Every bundled generator, as one ragged batch, per-trial identical."""
    params = {"alpha": 3, "storm_rounds": STORM_ROUNDS}
    results = run_batched(program, generator_zoo, params=params)
    assert len(results) == len(generator_zoo)
    for graph, batched in zip(generator_zoo, results):
        assert_trial_identical(program, graph, batched)


@pytest.mark.parametrize("program", PROGRAMS)
def test_mid_batch_halting(program):
    """Trials of wildly different durations drop out without resizing."""
    graphs = [
        nx.path_graph(60),  # long flood: ~61 rounds
        nx.complete_graph(8),  # finishes in a handful of rounds
        nx.empty_graph(6),  # isolated nodes: degree-0 edge cases
        nx.path_graph(3),
        nx.disjoint_union(nx.path_graph(10), nx.path_graph(5)),  # unreachable
    ]
    params = {"alpha": 3, "storm_rounds": STORM_ROUNDS}
    results = run_batched(program, graphs, params=params)
    rounds = {r.rounds for r in results}
    if program in ("flood", "bfs"):
        assert len(rounds) > 2, "expected staggered halting across the batch"
    for graph, batched in zip(graphs, results):
        assert_trial_identical(program, graph, batched)


def test_identical_topologies_share_one_compilation():
    """B copies of one pinned graph batch against a single topology."""
    graph = nx.gnp_random_graph(30, 0.2, seed=5)
    topology = compile_topology(graph)
    results = run_batched("storm", [topology] * 16, params={"storm_rounds": 4})
    assert len(results) == 16
    first = results[0]
    for batched in results[1:]:
        assert batched.outputs == first.outputs
        assert batched.total_bits == first.total_bits
    scalar = CongestNetwork(graph, seed=0).run(
        BroadcastStormProgram,
        max_rounds=4 + 2,
        config={"storm_rounds": 4},
        profile="fast",
    )
    assert first.outputs == scalar.outputs
    assert first.total_messages == scalar.total_messages


def test_strict_bandwidth_raises_identically():
    """Both planes abort with the same sender/bits/budget under strict."""
    graph = nx.path_graph(8)
    topology = compile_topology(graph)
    topology.bandwidth_bits = 3  # below any flood payload
    with pytest.raises(BandwidthExceededError) as batched_exc:
        run_batched("flood", [topology])
    with pytest.raises(BandwidthExceededError) as scalar_exc:
        scalar_reference("flood", graph, bandwidth_bits=3)
    assert batched_exc.value.args == scalar_exc.value.args


def test_over_budget_counts_match_non_strict():
    """The storm (non-strict) counts over-budget messages identically."""
    graph = nx.gnp_random_graph(20, 0.3, seed=9)
    topology = compile_topology(graph)
    topology.bandwidth_bits = 3
    (batched,) = run_batched(
        "storm", [topology], params={"storm_rounds": STORM_ROUNDS}
    )
    scalar = scalar_reference("storm", graph, bandwidth_bits=3)
    assert batched.over_budget_messages == scalar.over_budget_messages > 0
    assert batched.total_bits == scalar.total_bits


def test_unknown_program_rejected():
    with pytest.raises(ValueError, match="no batch kernel"):
        run_batched("gossip", [nx.path_graph(3)])
    assert set(batch_kernels()) == set(PROGRAMS)


def test_int_bit_length_matches_python():
    values = list(range(0, 70)) + [2**k for k in range(1, 50)] + [
        2**k - 1 for k in range(2, 50)
    ]
    got = int_bit_length(np.array(values, dtype=np.int64))
    want = [v.bit_length() for v in values]
    assert got.tolist() == want


def test_pad_groups_partitions_and_bounds():
    graphs = [nx.path_graph(n) for n in (4, 5, 6, 500, 510, 7, 8)]
    topologies = [compile_topology(g) for g in graphs]
    groups = pad_groups(topologies, limit=3, waste=4.0)
    covered = sorted(i for group in groups for i in group)
    assert covered == list(range(len(topologies)))
    for group in groups:
        assert 1 <= len(group) <= 3
        slots = [max(1, 2 * topologies[i].m) for i in group]
        assert max(slots) <= 4.0 * min(slots)
    with pytest.raises(ValueError):
        pad_groups(topologies, limit=0)


def test_batched_plane_matches_dict_plane_fixture():
    """Three-way agreement: batched == dense == the dict-plane fixture."""
    graph = nx.gnp_random_graph(25, 0.2, seed=3)
    network = CongestNetwork(graph, seed=0)
    with dict_plane():
        dict_result = network.run(
            BFSTreeProgram,
            max_rounds=network.n + 2,
            config={"root": min(graph.nodes())},
            strict_bandwidth=True,
            profile="fast",
        )
    (batched,) = run_batched("bfs", [graph])
    assert batched.outputs == dict_result.outputs
    assert batched.rounds == dict_result.rounds
    assert batched.total_messages == dict_result.total_messages
    assert batched.total_bits == dict_result.total_bits


def test_dict_plane_is_a_fixture_module_now(monkeypatch):
    """The dict loop lives in _differential, not the network, and the
    test-side helper really routes runs through it."""
    import repro.congest.network as network_module
    from repro.congest import _differential

    assert callable(_differential.run_dict_plane)
    assert not hasattr(CongestNetwork, "_run_dict_plane")

    def no_dense_plane(topology):
        raise AssertionError("dense plane used")

    monkeypatch.setattr(network_module, "DenseMessagePlane", no_dense_plane)
    graph = nx.path_graph(5)

    def run():
        return CongestNetwork(graph).run(
            BFSTreeProgram, max_rounds=7, config={"root": 0}
        )

    with dict_plane():
        assert run().halted
    with pytest.raises(AssertionError, match="dense plane used"):
        run()
