"""Tests for the round ledger and tree cost model."""

from __future__ import annotations

import pytest

from repro.congest import RoundLedger, TreeCostModel


class TestRoundLedger:
    def test_total_accumulates(self):
        ledger = RoundLedger()
        ledger.charge(3, "a")
        ledger.charge(4, "b")
        assert ledger.total == 7

    def test_zero_charge_not_recorded(self):
        ledger = RoundLedger()
        ledger.charge(0, "a")
        assert ledger.total == 0
        assert not ledger.records

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge(-1, "a")

    def test_by_category(self):
        ledger = RoundLedger()
        ledger.charge(1, "stage1.fd")
        ledger.charge(2, "stage1.fd")
        ledger.charge(5, "stage2.bfs")
        assert ledger.by_category() == {"stage1.fd": 3, "stage2.bfs": 5}

    def test_by_category_keeps_dotted_names_whole(self):
        ledger = RoundLedger()
        ledger.charge(1, "stage1.fd")
        ledger.charge(2, "stage1.cv")
        ledger.charge(5, "stage2.bfs")
        assert ledger.by_category() == {"stage1.fd": 1, "stage1.cv": 2, "stage2.bfs": 5}
        assert not hasattr(ledger, "by_prefix")

    def test_merge(self):
        a, b = RoundLedger(), RoundLedger()
        a.charge(1, "x")
        b.charge(2, "y")
        a.merge(b)
        assert a.total == 3

    def test_by_category_separates_a_name_from_its_dotted_children(self):
        ledger = RoundLedger()
        ledger.charge(3, "standalone")
        ledger.charge(2, "standalone.sub")
        assert ledger.by_category() == {"standalone": 3, "standalone.sub": 2}

    def test_by_category_empty_ledger(self):
        assert RoundLedger().by_category() == {}

    def test_summary_mentions_categories(self):
        ledger = RoundLedger()
        ledger.charge(2, "alpha")
        text = ledger.summary()
        assert "alpha" in text and "2" in text

    def test_summary_empty_and_indented(self):
        assert RoundLedger().summary() == "total rounds: 0"
        ledger = RoundLedger()
        ledger.charge(1, "beta.x")
        ledger.charge(2, "alpha.y")
        text = ledger.summary(indent="  ")
        lines = text.splitlines()
        assert lines[0] == "  total rounds: 3"
        # Categories render sorted, each further indented.
        assert lines[1].strip().startswith("alpha.y")
        assert lines[2].strip().startswith("beta.x")

    def test_iteration(self):
        ledger = RoundLedger()
        ledger.charge(2, "a", "note")
        records = list(ledger)
        assert records[0].rounds == 2
        assert records[0].note == "note"


class TestTreeCostModel:
    def test_broadcast_height_zero(self):
        assert TreeCostModel().broadcast(0) == 1

    def test_broadcast_pipelines_words(self):
        model = TreeCostModel()
        assert model.broadcast(5, words=3) == 7

    def test_convergecast_pipelines_messages(self):
        model = TreeCostModel()
        assert model.convergecast(5, messages=4) == 8

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            TreeCostModel().broadcast(-1)
        with pytest.raises(ValueError):
            TreeCostModel().convergecast(-2)

    def test_super_round_composition(self):
        model = TreeCostModel()
        cost = model.super_round(height=4, alpha=3)
        expected = 1 + model.convergecast(4, messages=10) + model.broadcast(4)
        assert cost == expected

    def test_aux_relay_roundtrip(self):
        model = TreeCostModel()
        assert model.aux_message_relay(3) == (
            model.broadcast(3) + 1 + model.convergecast(3)
        )

    def test_costs_monotone_in_height(self):
        model = TreeCostModel()
        for h in range(5):
            assert model.broadcast(h + 1) >= model.broadcast(h)
            assert model.super_round(h + 1, 3) > model.super_round(h, 3)
