"""Grid sweeps, sharding, and table aggregation (repro.runtime.sweeps)."""

from __future__ import annotations

import pytest

from repro.runtime import (
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
    ShardedStore,
    ShardedSweep,
    SweepSpec,
    job_shard,
    run_sweep,
)


def test_cli_axis_parsing_strips_whitespace():
    from repro.cli import _parse_axis

    assert _parse_axis("grid, delaunay", str) == ["grid", "delaunay"]
    assert _parse_axis(" 64,128 ,256", int) == [64, 128, 256]
    assert _parse_axis("0.5, 0.1", float) == [0.5, 0.1]


def _small_sweep() -> SweepSpec:
    return SweepSpec.make(
        "test_planarity",
        families=["grid", "tree"],
        ns=[36],
        seeds=[0, 1],
        epsilon=[0.5, 0.25],
    )


def test_expand_size_and_order():
    sweep = _small_sweep()
    specs = sweep.expand()
    assert len(specs) == sweep.size == 2 * 1 * 2 * 2
    # graphs outermost, seeds innermost
    assert [s.family for s in specs[:4]] == ["grid"] * 4
    assert [s.seed for s in specs[:4]] == [0, 1, 0, 1]
    assert specs[0].params["epsilon"] == 0.5
    assert specs[2].params["epsilon"] == 0.25


def test_scalar_params_promoted():
    sweep = SweepSpec.make("test_planarity", ns=[36], epsilon=0.5)
    assert sweep.size == 1
    assert sweep.expand()[0].params["epsilon"] == 0.5


def test_expand_matches_make_per_spec():
    """Seeds share one frozen config, and a ``graph_seed`` param still
    lands in its own field on every spec, as make() would put it."""
    sweep = SweepSpec.make(
        "partition_randomized", families=["grid", "tree"], ns=[36],
        seeds=[1, 2, 3], epsilon=[0.5, 0.25], graph_seed=[0, 5],
    )
    expected = [
        JobSpec.make("partition_randomized", family=family, n=36, seed=seed,
                     epsilon=epsilon, graph_seed=graph_seed)
        for family in ("grid", "tree")
        for epsilon in (0.5, 0.25)
        for graph_seed in (0, 5)
        for seed in (1, 2, 3)
    ]
    assert sweep.expand() == expected
    assert {s.graph_seed for s in sweep.expand()} == {0, 5}


def test_far_axis_overrides_families():
    sweep = SweepSpec.make(
        "test_planarity", families=["grid"], fars=["planted-k5"],
        ns=[80], epsilon=0.1,
    )
    specs = sweep.expand()
    assert len(specs) == 1
    assert specs[0].far == "planted-k5"


def test_sweep_tables_identical_across_backends():
    sweep = _small_sweep()
    serial = run_sweep(sweep, backend=SerialBackend())
    pooled = run_sweep(sweep, backend=ProcessPoolBackend(max_workers=2))
    title = "backend equivalence"
    assert (
        serial.to_table(title).render() == pooled.to_table(title).render()
    )
    assert (
        serial.to_table(title).to_markdown()
        == pooled.to_table(title).to_markdown()
    )


def test_sweep_summary_and_cache(tmp_path):
    store = ShardedStore(tmp_path / "store")
    sweep = _small_sweep()
    first = run_sweep(sweep, store=store)
    summary = first.summary()
    assert summary["jobs"] == sweep.size
    assert summary["executed"] == sweep.size
    assert summary["accept_rate"] == 1.0
    assert summary["rounds_min"] <= summary["rounds_mean"] <= summary["rounds_max"]
    second = run_sweep(sweep, store=store)
    assert second.summary()["cache_hit_rate"] >= 0.9
    assert second.summary()["executed"] == 0


class TestShardedSweep:
    def test_shards_partition_the_grid(self):
        sweep = _small_sweep()
        sharded = ShardedSweep(sweep, 3)
        pieces = [sharded.shard_specs(i) for i in range(3)]
        flattened = [spec for piece in pieces for spec in piece]
        assert sorted(flattened, key=lambda s: s.canonical()) == sorted(
            sweep.expand(), key=lambda s: s.canonical()
        )
        for index, piece in enumerate(pieces):
            for spec in piece:
                assert job_shard(spec, 3) == index

    def test_shard_assignment_is_deterministic(self):
        spec = _small_sweep().expand()[0]
        assert job_shard(spec, 5) == job_shard(spec, 5)
        with pytest.raises(ValueError):
            job_shard(spec, 0)

    def test_shard_runs_reassemble_the_grid(self):
        """Each ``run_sweep(shard=(i, k))`` leg holds exactly the records
        of the full run that ``shard_specs(i)`` assigns it, in expansion
        order, so the legs together reassemble the grid."""
        sweep = _small_sweep()
        sharded = ShardedSweep(sweep, 2)
        full = run_sweep(sweep).records
        assignments = sharded.assignments()
        for index in range(2):
            leg = run_sweep(sweep, shard=(index, 2))
            assert leg.records == [
                record
                for record, shard in zip(full, assignments)
                if shard == index
            ]
            assert leg.batch.executed == len(sharded.shard_specs(index))

    def test_shards_share_one_store(self, tmp_path):
        """Shard runs against one store, then a full resume run is a
        100% hit -- the CLI's --shard/--resume workflow."""
        sweep = _small_sweep()
        store = tmp_path / "store"
        for index in range(2):
            run_sweep(sweep, store=ShardedStore(store), shard=(index, 2))
        final = run_sweep(sweep, store=ShardedStore(store), resume=True)
        assert final.batch.executed == 0
        assert final.records == run_sweep(sweep).records


class TestResume:
    def test_resume_requires_cache(self):
        with pytest.raises(ValueError, match="needs a cache"):
            run_sweep(_small_sweep(), resume=True)

    def test_resume_touches_only_missing_keys(self, tmp_path, monkeypatch):
        """Acceptance: resuming a partially-run sweep executes exactly
        the uncached jobs."""
        import repro.runtime.jobs as jobs_mod

        sweep = _small_sweep()
        store = tmp_path / "store"
        # Run one shard, abandoning the rest of the grid.
        partial = run_sweep(sweep, store=ShardedStore(store), shard=(0, 2))
        done = len(partial.records)
        assert 0 < done < sweep.size

        executed_kinds = []
        real_run = jobs_mod.run_job

        def counting_run(spec, graph=None):
            executed_kinds.append(spec)
            return real_run(spec, graph)

        # Every backend executes through jobs.run_job_timed, which
        # looks run_job up in its own module.
        monkeypatch.setattr(jobs_mod, "run_job", counting_run)
        resumed = run_sweep(sweep, store=ShardedStore(store), resume=True)
        assert resumed.batch.executed == sweep.size - done
        assert len(executed_kinds) == sweep.size - done
        missing = set(
            s.canonical() for s in ShardedSweep(sweep, 2).shard_specs(1)
        )
        assert {s.canonical() for s in executed_kinds} == missing
        assert resumed.records == run_sweep(sweep).records


def test_to_table_column_selection():
    result = run_sweep(
        SweepSpec.make("test_planarity", families=["grid"], ns=[36],
                       epsilon=0.5)
    )
    table = result.to_table("cols", columns=["family", "n", "rounds"])
    assert table.headers == ["family", "n", "rounds"]
    assert len(table.rows) == 1
    # default columns: union of record keys in first-seen order
    auto = result.to_table("auto")
    assert auto.headers[0] == "kind"
    assert "rounds" in auto.headers
