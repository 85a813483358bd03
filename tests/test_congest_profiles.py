"""Differential tests: the one delivery path against the faithful oracle.

``CongestNetwork.run`` charges messages through one
:class:`~repro.congest.instrumentation.MessageAccounting`: O(1)
pure-broadcast charges and :class:`~repro.congest.plane.SlotInbox`
views.  The seed's accounting -- every message validated and sized by
the full :func:`bit_size` recursion, a per-round ledger, real inbox
dicts -- lives on as the test oracle
:class:`_reference_paths.FaithfulProfile`.  On every bundled program the
two must agree on outputs, rounds, halting, message/bit totals, max
message bits, over-budget counts and strict-bandwidth exception
arguments.
"""

from __future__ import annotations

import networkx as nx
import pytest

from _reference_paths import dict_plane, faithful_profile
from repro.congest import BROADCAST, CongestNetwork, NodeProgram
from repro.congest.programs import (
    BFSTreeProgram,
    BroadcastStormProgram,
    FloodProgram,
    cole_vishkin_coloring,
    run_forest_decomposition_simulated,
    run_stage2_verification_simulated,
)
from repro.errors import BandwidthExceededError, ProtocolError
from repro.graphs import make_planar
from repro.planarity import check_planarity

SEEDS = (0, 1, 2)


def _identical(oracle, production):
    """Assert two simulation results agree on everything observable."""
    assert oracle.outputs == production.outputs
    assert oracle.rounds == production.rounds
    assert oracle.halted == production.halted
    assert oracle.total_messages == production.total_messages
    assert oracle.total_bits == production.total_bits
    assert oracle.max_message_bits == production.max_message_bits
    assert oracle.over_budget_messages == production.over_budget_messages


def _against_oracle(run):
    """``[run() under the faithful oracle, run() on the production path]``."""
    with faithful_profile():
        reference = run()
    return [reference, run()]


def _run_both(graph, program, max_rounds, config, seed=0, strict=True):
    return _against_oracle(
        lambda: CongestNetwork(graph, seed=seed).run(
            program,
            max_rounds=max_rounds,
            config=config,
            strict_bandwidth=strict,
        )
    )


def _raised(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), info.value.args


class TestDifferentialPrograms:
    def test_bfs(self):
        for seed in SEEDS:
            graph = make_planar("delaunay", 80, seed=seed)
            faithful, fast = _run_both(
                graph, BFSTreeProgram, graph.number_of_nodes() + 2, {"root": 0}
            )
            _identical(faithful, fast)

    def test_flood(self):
        for seed in SEEDS:
            graph = make_planar("grid", 64, seed=seed)
            faithful, fast = _run_both(
                graph, FloodProgram, graph.number_of_nodes() + 2, {"root": 0}
            )
            _identical(faithful, fast)

    def test_cole_vishkin(self):
        path = nx.path_graph(90)
        parents = {i: i - 1 if i > 0 else None for i in path.nodes()}
        faithful, fast = _against_oracle(
            lambda: cole_vishkin_coloring(path, parents)
        )
        assert faithful == fast

    def test_forest_decomposition(self):
        for graph in (make_planar("tri-grid", 100, seed=1), nx.complete_graph(12)):
            faithful, fast = _against_oracle(
                lambda: run_forest_decomposition_simulated(graph, alpha=3)
            )
            assert faithful.inactive_round == fast.inactive_round
            assert faithful.out_neighbors == fast.out_neighbors
            assert faithful.rejecting_nodes == fast.rejecting_nodes
            assert faithful.rounds == fast.rounds

    def test_stage2_verification(self):
        graph = make_planar("delaunay", 60, seed=3)
        rotation = check_planarity(graph).embedding.to_dict()
        for seed in SEEDS:
            faithful, fast = _against_oracle(
                lambda: run_stage2_verification_simulated(
                    graph, 0, rotation, epsilon=0.2, seed=seed
                )
            )
            assert faithful.accepted == fast.accepted
            assert faithful.rejecting_nodes == fast.rejecting_nodes
            assert faithful.positions == fast.positions
            assert faithful.bfs_rounds == fast.bfs_rounds
            assert faithful.verification_rounds == fast.verification_rounds

    def test_broadcast_storm(self):
        graph = nx.gnp_random_graph(70, 0.15, seed=4)
        faithful, fast = _run_both(
            graph,
            BroadcastStormProgram,
            12,
            {"storm_rounds": 10},
            strict=False,
        )
        _identical(faithful, fast)


class _Sequence(NodeProgram):
    """Broadcast ``config['payloads']`` one per round, then halt."""

    def step(self, round_index, inbox):
        payloads = self.ctx.config["payloads"]
        if round_index >= len(payloads):
            self.halt()
            return None
        return self.broadcast(payloads[round_index])


class TestProfileSemantics:
    def test_faithful_round_stats_sum_to_totals(self):
        """The oracle's per-round ledger equals the production path's
        per-round deltas, read through ``round_hook``."""
        graph = nx.cycle_graph(9)
        rows = []

        def hook(round_index, active, accounting):
            rows.append((accounting.total_messages, accounting.total_bits))

        def run(round_hook=None):
            return CongestNetwork(graph).run(
                BFSTreeProgram,
                max_rounds=20,
                config={"root": 0},
                round_hook=round_hook,
            )

        with faithful_profile() as built:
            reference = run()
        stats = built[0].round_stats(reference.rounds)
        assert len(stats) == reference.rounds
        assert sum(m for m, _ in stats) == reference.total_messages
        assert sum(b for _, b in stats) == reference.total_bits
        _identical(reference, run(hook))
        deltas = [
            (m - pm, b - pb)
            for (m, b), (pm, pb) in zip(rows, [(0, 0)] + rows[:-1])
        ]
        assert tuple(deltas) == stats

    def test_fast_profile_keeps_counters_only(self):
        graph = nx.cycle_graph(9)
        result = CongestNetwork(graph).run(
            BFSTreeProgram, max_rounds=20, config={"root": 0}
        )
        assert not hasattr(result, "round_stats")
        assert not hasattr(result, "profile")
        assert result.total_messages > 0

    def test_fast_validates_first_explicit_outbox(self):
        """Every explicit target is validated, the first outbox included,
        with the oracle's exception."""

        class BadSender(NodeProgram):
            def step(self, round_index, inbox):
                target = (self.ctx.node + 2) % self.ctx.n
                return {target: ("oops",)}

        graph = nx.path_graph(4)

        def run():
            CongestNetwork(graph).run(BadSender, max_rounds=2)

        with faithful_profile():
            reference = _raised(run)
        assert reference[0] is ProtocolError
        assert _raised(run) == reference

    def test_fast_strict_bandwidth_still_raises(self):
        class HugeSender(NodeProgram):
            def step(self, round_index, inbox):
                return self.broadcast(("x" * 10_000,))

        graph = nx.path_graph(3)

        def run():
            CongestNetwork(graph).run(
                HugeSender, max_rounds=3, strict_bandwidth=True
            )

        with dict_plane():
            reference = _raised(run)
        assert reference[0] is BandwidthExceededError
        assert _raised(run) == reference

    def test_strict_bandwidth_args_on_mixed_outbox(self):
        """A broadcast with a direct override raises on the same
        (sender, target, bits, budget) as the oracle."""

        class Mixed(NodeProgram):
            def step(self, round_index, inbox):
                return {
                    BROADCAST: ("small",),
                    self.ctx.neighbors[-1]: ("y" * 5_000,),
                }

        graph = nx.star_graph(4)

        def run():
            CongestNetwork(graph).run(Mixed, max_rounds=2, strict_bandwidth=True)

        with dict_plane():
            reference = _raised(run)
        assert reference[0] is BandwidthExceededError
        assert _raised(run) == reference

    def test_fast_broadcast_with_override(self):
        class Mixed(NodeProgram):
            def step(self, round_index, inbox):
                if round_index == 0 and self.ctx.node == 0:
                    return {BROADCAST: ("b",), self.ctx.neighbors[0]: ("direct",)}
                if round_index == 1:
                    self.halt(dict(inbox))
                return self.silence()

        graph = nx.path_graph(3)
        faithful, fast = _against_oracle(
            lambda: CongestNetwork(graph).run(Mixed, max_rounds=4)
        )
        _identical(faithful, fast)
        assert fast.outputs[1][0] == ("direct",)

    def test_type_distinct_payloads_charge_exact_bits(self, monkeypatch):
        """``(1,) == (True,)`` and they hash alike, yet ``bit_size`` gives
        them 6 and 5 bits: each must be sized on its own.  The retired
        ``REPRO_SIM_PROFILE`` knob once selected a memoizing accounting
        that charged 48 bits here; it must no longer have any effect."""
        monkeypatch.setenv("REPRO_SIM_PROFILE", "fast")
        graph = nx.path_graph(3)
        config = {"payloads": [(1,), (True,)]}

        def run():
            return CongestNetwork(graph).run(_Sequence, max_rounds=4, config=config)

        result = run()
        assert result.total_bits == 44
        with dict_plane():
            reference = run()
        _identical(reference, result)

