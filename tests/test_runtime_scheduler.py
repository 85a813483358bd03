"""Cost book, cost model, and LPT shard balancing (repro.runtime.scheduler)."""

from __future__ import annotations

import pytest

from repro.runtime import (
    CostBook,
    CostModel,
    JobSpec,
    ShardedStore,
    ShardedSweep,
    SweepSpec,
    assign_shards,
    job_shard,
    run_sweep,
)
from repro.runtime.scheduler import cost_meta_key


def _specs(kind="test_planarity", ns=(36, 64), seeds=(0, 1)):
    return [
        JobSpec.make(kind, family="grid", n=n, seed=seed, epsilon=0.5)
        for n in ns
        for seed in seeds
    ]


class TestCostBook:
    def test_observe_and_flush_round_trip(self, tmp_path):
        store = ShardedStore(tmp_path / "s")
        book = CostBook(store)
        book.observe("test_planarity", 36, 0.5)
        book.observe("test_planarity", 36, 1.5)
        book.observe("test_planarity", 64, 4.0)
        assert book.observations == 3
        assert book.flush() == 2
        assert book.observations == 0
        cell = store.get_meta(cost_meta_key("test_planarity", 36))
        assert cell["count"] == 2
        assert cell["total_s"] == 2.0
        assert cell["mean_s"] == 1.0

    def test_flush_merges_across_runs(self, tmp_path):
        store = ShardedStore(tmp_path / "s")
        first = CostBook(store)
        first.observe("k", 100, 1.0)
        first.flush()
        second = CostBook(ShardedStore(tmp_path / "s"))
        second.observe("k", 100, 3.0)
        second.flush()
        cell = store.get_meta(cost_meta_key("k", 100))
        assert cell["count"] == 2
        assert cell["mean_s"] == 2.0

    def test_storeless_book_is_a_noop(self):
        book = CostBook(None)
        book.observe("k", 10, 1.0)
        assert book.flush() == 0


class TestCostModel:
    def test_exact_cells_and_power_law_interpolation(self):
        model = CostModel(samples={"k": {100: 0.1, 200: 0.2}})
        assert model.predict("k", 100) == 0.1
        # Two measured sizes fit cost ~ a*n^b with b ~ 1 here.
        assert model.predict("k", 400) == pytest.approx(0.4, rel=0.05)
        assert model.predict("unknown", 100) is None
        assert not model.empty

    def test_single_anchor_scales_linearly(self):
        model = CostModel(samples={"k": {128: 0.5}})
        assert model.predict("k", 256) == pytest.approx(1.0)

    def test_from_store_reads_flushed_history(self, tmp_path):
        store = ShardedStore(tmp_path / "s")
        book = CostBook(store)
        book.observe("test_planarity", 36, 0.25)
        book.flush()
        model = CostModel.from_store(store)
        assert model.predict("test_planarity", 36) == pytest.approx(0.25)
        assert CostModel.from_store(None).empty


class TestAssignShards:
    def test_deterministic_given_fixed_cost_table(self):
        specs = _specs(ns=(36, 64, 100), seeds=(0, 1))
        model = CostModel(samples={"test_planarity": {36: 0.1, 100: 1.0}})
        first = assign_shards(specs, 3, model=model)
        second = assign_shards(list(specs), 3, model=model)
        assert first == second
        assert all(0 <= shard < 3 for shard in first)
        # Same model rebuilt from the same table: same assignment.
        clone = CostModel(samples={"test_planarity": {36: 0.1, 100: 1.0}})
        assert assign_shards(specs, 3, model=clone) == first

    def test_empty_history_falls_back_to_hash(self):
        specs = _specs()
        assert assign_shards(specs, 4, model=CostModel()) == [
            job_shard(spec, 4) for spec in specs
        ]
        assert assign_shards(specs, 4, model=None) == [
            job_shard(spec, 4) for spec in specs
        ]

    def test_lpt_balances_known_costs(self):
        # One heavy size and many light ones: hash splitting can land
        # several heavies together; LPT never does.
        specs = _specs(ns=(1000, 64), seeds=(0, 1, 2, 3))
        model = CostModel(
            samples={"test_planarity": {1000: 10.0, 64: 0.1}}
        )
        assignment = assign_shards(specs, 4, model=model)
        heavy_shards = [
            shard
            for spec, shard in zip(specs, assignment)
            if spec.n == 1000
        ]
        assert sorted(heavy_shards) == [0, 1, 2, 3]  # one heavy each

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="positive"):
            assign_shards(_specs(), 0)


class TestCostBalancedSweeps:
    def _sweep(self):
        return SweepSpec.make(
            "test_planarity",
            families=["grid", "tree"],
            ns=[36],
            seeds=[0, 1],
            epsilon=[0.5, 0.25],
        )

    def test_cost_shards_partition_the_grid(self):
        model = CostModel(samples={"test_planarity": {36: 0.1}})
        sharded = ShardedSweep(self._sweep(), 3, balance="cost",
                               cost_model=model)
        pieces = [sharded.shard_specs(i) for i in range(3)]
        flattened = [spec for piece in pieces for spec in piece]
        assert sorted(flattened, key=lambda s: s.canonical()) == sorted(
            self._sweep().expand(), key=lambda s: s.canonical()
        )

    def test_cost_shards_reassemble_the_grid(self):
        model = CostModel(samples={"test_planarity": {36: 0.1}})
        sharded = ShardedSweep(self._sweep(), 2, balance="cost",
                               cost_model=model)
        full = run_sweep(self._sweep()).records
        for index in range(2):
            leg = run_sweep(self._sweep(), shard=(index, 2), balance="cost",
                            cost_model=model)
            assert leg.records == [
                record
                for record, shard in zip(full, sharded.assignments())
                if shard == index
            ]

    def test_invalid_balance_rejected(self):
        with pytest.raises(ValueError, match="balance"):
            ShardedSweep(self._sweep(), 2, balance="magic")

    def test_run_sweep_records_costs_into_store(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        run_sweep(self._sweep(), store=store)
        cell = store.get_meta(cost_meta_key("test_planarity", 36))
        assert cell is not None
        assert cell["count"] == self._sweep().size
        assert cell["mean_s"] > 0
        # A resume run is all hits: no new observations land.
        run_sweep(self._sweep(), store=ShardedStore(tmp_path / "store"),
                  resume=True)
        after = store.get_meta(cost_meta_key("test_planarity", 36))
        assert after["count"] == cell["count"]

    def test_cost_balanced_shards_complete_with_resume(self, tmp_path):
        """Fleet workflow: hash-split legs seed the cost table, then a
        cost-balanced split still covers the grid and resumes clean."""
        sweep = self._sweep()
        store_dir = tmp_path / "store"
        run_sweep(sweep, store=ShardedStore(store_dir))
        model = CostModel.from_store(ShardedStore(store_dir))
        assert not model.empty
        for index in range(2):
            run_sweep(
                sweep,
                store=ShardedStore(store_dir),
                shard=(index, 2),
                balance="cost",
                cost_model=model,
            )
        final = run_sweep(sweep, store=ShardedStore(store_dir), resume=True)
        assert final.batch.executed == 0
        assert final.records == run_sweep(sweep).records
