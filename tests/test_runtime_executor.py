"""Execution backends and run_jobs (repro.runtime.executor)."""

from __future__ import annotations

import pytest

from repro.runtime import (
    BACKENDS,
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
    ShardedStore,
    SweepSpec,
    make_backend,
    run_jobs,
    run_sweep,
)
from repro.runtime.store import count_record_entries

SMALL_SPECS = [
    JobSpec.make("test_planarity", family="grid", n=36, seed=seed,
                 epsilon=epsilon)
    for seed in (0, 1)
    for epsilon in (0.5, 0.25)
]


def test_make_backend_registry():
    assert set(BACKENDS) == {"serial", "process", "remote"}
    assert isinstance(make_backend("serial"), SerialBackend)
    assert isinstance(make_backend("process", max_workers=2), ProcessPoolBackend)
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("quantum")


def test_run_jobs_preserves_order():
    batch = run_jobs(SMALL_SPECS, backend=SerialBackend())
    assert len(batch) == len(SMALL_SPECS)
    for spec, record in zip(SMALL_SPECS, batch):
        assert record["seed"] == spec.seed
        assert record["epsilon"] == spec.params["epsilon"]


def test_serial_and_process_results_identical():
    serial = run_jobs(SMALL_SPECS, backend=SerialBackend())
    pooled = run_jobs(SMALL_SPECS, backend=ProcessPoolBackend(max_workers=2))
    assert serial.records == pooled.records


def test_cache_repeat_hit_rate(tmp_path):
    store = ShardedStore(tmp_path / "store")
    first = run_jobs(SMALL_SPECS, store=store)
    assert first.cache_stats.hit_rate == 0.0
    assert first.executed == len(SMALL_SPECS)
    second = run_jobs(SMALL_SPECS, store=store)
    assert second.cache_stats.hit_rate >= 0.9  # acceptance criterion
    assert second.executed == 0
    assert second.records == first.records


def test_duplicate_specs_execute_once(tmp_path):
    specs = [SMALL_SPECS[0]] * 5
    batch = run_jobs(specs, store=ShardedStore(tmp_path / "store"))
    assert batch.executed == 1
    assert len(batch) == 5
    assert all(record == batch.records[0] for record in batch.records)


@pytest.mark.parametrize("with_store", [False, True])
def test_same_key_spellings_execute_once(tmp_path, with_store):
    """Specs that differ only in spelling ``graph_seed=seed`` share a
    cache key, so they run once whether or not a store is attached."""
    implicit = JobSpec.make("test_planarity", family="grid", n=36, seed=1,
                            epsilon=0.5)
    explicit = JobSpec.make("test_planarity", family="grid", n=36, seed=1,
                            graph_seed=1, epsilon=0.5)
    assert implicit != explicit
    store = ShardedStore(tmp_path / "store") if with_store else None
    batch = run_jobs([implicit, explicit], store=store)
    assert batch.executed == 1
    assert batch.records[0] == batch.records[1]


def test_duplicates_deduplicated_without_cache():
    specs = [SMALL_SPECS[0]] * 3 + [SMALL_SPECS[1]]
    batch = run_jobs(specs)
    assert batch.executed == 2
    assert len(batch) == 4


def test_disk_cache_survives_new_run(tmp_path):
    specs = SMALL_SPECS[:2]
    run_jobs(specs, store=ShardedStore(tmp_path / "c"))
    rerun = run_jobs(specs, store=ShardedStore(tmp_path / "c"))
    assert rerun.executed == 0
    assert rerun.cache_stats.hit_rate == 1.0


def test_pool_falls_back_to_serial_for_one_worker():
    batch = run_jobs(SMALL_SPECS[:1], backend=ProcessPoolBackend(max_workers=1))
    assert len(batch) == 1


def test_cached_serial_path_builds_each_graph_once(monkeypatch, tmp_path):
    # Misses on one graph share a single prebuilt instance rather than
    # regenerating it per job.
    import repro.runtime.jobs as jobs_mod

    calls = {"count": 0}
    real_make_planar = jobs_mod.make_planar

    def counting(*args, **kwargs):
        calls["count"] += 1
        return real_make_planar(*args, **kwargs)

    monkeypatch.setattr(jobs_mod, "make_planar", counting)
    specs = [
        JobSpec.make("test_planarity", family="grid", n=36, epsilon=epsilon)
        for epsilon in (0.5, 0.25, 0.1)
    ]
    batch = run_jobs(
        specs, backend=SerialBackend(), store=ShardedStore(tmp_path / "store")
    )
    assert batch.executed == 3
    assert calls["count"] == 1  # one shared graph, built exactly once


def test_serial_backend_builds_each_graph_when_first_needed(monkeypatch):
    """The first record streams after one graph build, not after every
    graph of the batch; specs replaying a graph share one instance,
    which is released after the last of them."""
    import gc
    import weakref

    import repro.runtime.jobs as jobs_mod

    built = []
    real_make_planar = jobs_mod.make_planar

    def recording(*args, **kwargs):
        graph = real_make_planar(*args, **kwargs)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(jobs_mod, "make_planar", recording)
    specs = [
        JobSpec.make("test_planarity", family="grid", n=n, epsilon=epsilon)
        for n in (36, 64)
        for epsilon in (0.5, 0.25)
    ]
    builds_at = []
    for index, _record, _seconds in SerialBackend().run_stream(specs):
        builds_at.append(len(built))
        if index == 2:
            gc.collect()
            assert built[0]() is None  # the n=36 graph is gone
    assert builds_at == [1, 1, 2, 2]


def test_empty_batch():
    batch = run_jobs([], backend=ProcessPoolBackend())
    assert batch.records == []
    assert batch.executed == 0


@pytest.mark.parametrize("name", ["serial", "process", "remote"])
def test_backend_parity(name, tmp_path, start_workers):
    """Every backend: records identical to serial, one store line per
    job with the store shared between the run and the backend, and a
    serial ``--resume`` rerun that executes nothing."""
    sweep = SweepSpec.make(
        "test_planarity", families=["grid"], ns=[36], seeds=[0, 1],
        epsilon=[0.5, 0.25],
    )
    reference = run_sweep(sweep)
    store_dir = tmp_path / "store"
    if name == "remote":
        backend = make_backend("remote", store_dir=str(store_dir))
        start_workers(backend.bind(), count=2)
    elif name == "process":
        backend = make_backend("process", max_workers=2)
    else:
        backend = make_backend(name)
    result = run_sweep(sweep, backend=backend, store=ShardedStore(store_dir))
    assert result.records == reference.records
    assert count_record_entries(store_dir) == len(reference.records)
    resumed = run_sweep(sweep, store=ShardedStore(store_dir), resume=True)
    assert resumed.batch.executed == 0
    assert resumed.records == reference.records
