"""Tests for the reference (dict-keyed) forest decomposition, incl.
cross-validation against the genuinely distributed protocol."""

from __future__ import annotations

import networkx as nx
import pytest

from _stage1_reference import (
    AuxiliaryGraph,
    Partition,
    forest_decomposition_emulated,
)
from repro.congest import RoundLedger
from repro.congest.programs import run_forest_decomposition_simulated


def singleton_aux(graph):
    return AuxiliaryGraph(Partition.singletons(graph))


class TestEmulated:
    def test_succeeds_on_planar(self, planar_zoo):
        for name, graph in planar_zoo:
            fd = forest_decomposition_emulated(singleton_aux(graph), alpha=3)
            assert fd.success, name

    def test_out_degree_bound(self, small_apollonian):
        fd = forest_decomposition_emulated(singleton_aux(small_apollonian), alpha=3)
        assert max(len(v) for v in fd.out_edges.values()) <= 9

    def test_orientation_acyclic(self, small_apollonian):
        fd = forest_decomposition_emulated(singleton_aux(small_apollonian), alpha=3)
        dg = nx.DiGraph(
            (u, v) for u, outs in fd.out_edges.items() for v in outs
        )
        assert nx.is_directed_acyclic_graph(dg)

    def test_rejects_high_arboricity(self):
        fd = forest_decomposition_emulated(
            singleton_aux(nx.complete_graph(14)), alpha=1
        )
        assert not fd.success
        assert len(fd.rejecting_parts) == 14

    def test_ledger_charged(self, small_grid):
        ledger = RoundLedger()
        forest_decomposition_emulated(singleton_aux(small_grid), alpha=3, ledger=ledger)
        assert ledger.total > 0
        assert "stage1.forest_decomposition" in ledger.by_category()

    def test_full_budget_vs_actual(self, small_grid):
        full = RoundLedger()
        actual = RoundLedger()
        forest_decomposition_emulated(
            singleton_aux(small_grid), alpha=3, ledger=full, charge_full_budget=True
        )
        forest_decomposition_emulated(
            singleton_aux(small_grid), alpha=3, ledger=actual, charge_full_budget=False
        )
        assert full.total >= actual.total

    def test_budget_override(self, small_grid):
        fd = forest_decomposition_emulated(singleton_aux(small_grid), alpha=3, budget=1)
        # grid: all degrees <= 4 <= 9, so one round deactivates everyone
        assert fd.success


class TestCrossValidation:
    """On singleton partitions, the emulated process must match the real
    message-passing protocol exactly (same deactivation rounds, same
    orientation)."""

    @pytest.mark.parametrize("alpha", [1, 3])
    def test_matches_simulated(self, alpha, planar_zoo):
        for name, graph in planar_zoo[:4]:
            sim = run_forest_decomposition_simulated(graph, alpha=alpha)
            emu = forest_decomposition_emulated(singleton_aux(graph), alpha=alpha)
            assert sim.success == emu.success, name
            assert sim.inactive_round == emu.inactive_round, name
            sim_out = {v: set(outs) for v, outs in sim.out_neighbors.items()}
            emu_out = {v: set(outs) for v, outs in emu.out_edges.items()}
            assert sim_out == emu_out, name

    def test_matches_simulated_on_k5(self, k5):
        sim = run_forest_decomposition_simulated(k5, alpha=3)
        emu = forest_decomposition_emulated(singleton_aux(k5), alpha=3)
        assert sim.inactive_round == emu.inactive_round
        assert {v: set(o) for v, o in sim.out_neighbors.items()} == {
            v: set(o) for v, o in emu.out_edges.items()
        }

    def test_matches_simulated_on_rejection(self):
        graph = nx.complete_graph(10)
        sim = run_forest_decomposition_simulated(graph, alpha=1)
        emu = forest_decomposition_emulated(singleton_aux(graph), alpha=1)
        assert not sim.success and not emu.success
        assert set(sim.rejecting_nodes) == set(emu.rejecting_parts)
