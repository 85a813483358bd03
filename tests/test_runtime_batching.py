"""Runtime-side batching: coalescing, transparent expansion, accounting.

The executor folds eligible same-cell simulator trials into
``simulate_batch`` jobs and re-expands the results, so every consumer
-- record lists, caches, cost books, all backends -- observes exactly
what a scalar run would have produced.  These tests pin the grouping
rules, the record/cache/cost transparency on the serial and process
backends, the remote backend's round-trip of batch specs through the
service, and the env-var knob.
"""

from __future__ import annotations

from repro.runtime import (
    CostBook,
    JobSpec,
    RemoteBackend,
    RunConfig,
    ShardedStore,
    batchable,
    coalesce,
    make_batch_spec,
    run_jobs,
    run_sweep,
    SweepSpec,
)
from repro.runtime.batching import expand_batch_record
from repro.runtime.jobs import run_job


def sim_spec(seed=0, program="bfs", n=30, graph_seed=7, **kw):
    return JobSpec.make(
        "simulate_program",
        family="grid",
        n=n,
        seed=seed,
        graph_seed=graph_seed,
        program=program,
        **kw,
    )


FLEET = [sim_spec(seed=s) for s in range(6)]


# -- eligibility and grouping -------------------------------------------------


def test_batchable_requires_known_program():
    for program in ("bfs", "cv", "flood", "forest", "storm"):
        assert batchable(sim_spec(program=program))
    assert not batchable(sim_spec(program="gossip"))
    assert not batchable(
        JobSpec.make("test_planarity", family="grid", n=30, seed=0)
    )


def test_coalesce_groups_chunks_and_passes_singletons_through():
    specs = (
        [sim_spec(seed=s) for s in range(5)]
        + [sim_spec(seed=9, program="gossip")]  # no batch kernel: untouched
        + [sim_spec(seed=s, program="storm", storm_rounds=4) for s in (0, 1)]
        + [sim_spec(seed=99, n=60)]  # different cell: group of one
    )
    dispatch, sources = coalesce(specs, 4)
    covered = sorted(i for group in sources for i in group)
    assert covered == list(range(len(specs)))
    kinds = [(d.kind, len(s)) for d, s in zip(dispatch, sources)]
    assert kinds == [
        ("simulate_batch", 4),  # seeds 0-3
        ("simulate_program", 1),  # seed 4: a chunk of one stays scalar
        ("simulate_program", 1),  # unbatchable passthrough
        ("simulate_batch", 2),  # the storm pair
        ("simulate_program", 1),  # the n=60 singleton
    ]
    batch = dispatch[0]
    assert batch.params["seeds"] == (0, 1, 2, 3)
    assert batch.params["program"] == "bfs"


def test_coalesce_disabled_at_limit_one():
    dispatch, sources = coalesce(FLEET, 1)
    assert dispatch == FLEET
    assert sources == [[i] for i in range(len(FLEET))]


def test_batch_spec_survives_wire_round_trip():
    batch = make_batch_spec(FLEET)
    clone = JobSpec.from_payload(batch.to_payload())
    assert clone == batch
    assert clone.params["seeds"] == tuple(s.seed for s in FLEET)


def test_batch_record_expands_to_scalar_records():
    batch = make_batch_spec(FLEET)
    record = run_job(batch)
    trials = expand_batch_record(record)
    assert record["trials_n"] == len(FLEET)
    scalar = [run_job(spec) for spec in FLEET]
    assert trials == scalar


# -- executor transparency ----------------------------------------------------


def test_run_jobs_batched_matches_unbatched():
    base = run_jobs(FLEET)
    batched = run_jobs(FLEET, config=RunConfig(sim_batch=4))
    assert batched.records == base.records
    assert batched.executed == base.executed == len(FLEET)


def test_run_jobs_batched_with_cache_then_scalar_rerun(tmp_path):
    store = ShardedStore(tmp_path / "store")
    first = run_jobs(FLEET, store=store, config=RunConfig(sim_batch=8))
    assert first.cache_stats.misses == len(FLEET)
    assert first.cache_stats.stores == len(FLEET)
    # A later *unbatched* run replays entirely from the per-trial records.
    second = run_jobs(FLEET, store=store)
    assert second.cache_stats.misses == 0
    assert second.records == first.records


def test_cost_book_gets_amortized_per_trial_samples():
    book = CostBook()
    run_jobs(FLEET, cost_book=book, config=RunConfig(sim_batch=8))
    count, total = book._pending[("simulate_program", 30)]
    assert count == len(FLEET)
    assert total > 0
    assert ("simulate_batch", 30) not in book._pending


def test_process_backend_ships_batches():
    base = run_jobs(FLEET)
    batched = run_jobs(FLEET, backend="process", config=RunConfig(sim_batch=3))
    assert batched.records == base.records


def test_remote_backend_ships_batches(tmp_path, start_workers):
    base = run_jobs(FLEET)
    store_dir = tmp_path / "store"
    store = ShardedStore(store_dir)
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    start_workers(backend.bind(), count=2)
    batched = run_jobs(
        FLEET, backend=backend, store=store, config=RunConfig(sim_batch=3)
    )
    assert batched.records == base.records
    # The expanded per-trial records landed in the store despite the
    # service persisting only batch records.
    rerun = run_jobs(FLEET, store=store)
    assert rerun.cache_stats.misses == 0


def test_env_var_enables_batching(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BATCH", "4")
    dispatch, _sources = coalesce(FLEET, RunConfig().resolve("sim_batch"))
    assert [d.kind for d in dispatch] == ["simulate_batch", "simulate_batch"]
    base = run_jobs(FLEET)
    batched = run_jobs(FLEET)  # picks the env knob up inside iter_jobs
    assert batched.records == base.records


def test_run_sweep_batched_matches_unbatched():
    sweep = SweepSpec.make(
        "simulate_program",
        families=["grid"],
        ns=[30],
        seeds=[0, 1, 2, 3],
        program=["flood", "storm"],
        storm_rounds=[4],
    )
    base = run_sweep(sweep)
    batched = run_sweep(sweep, config=RunConfig(sim_batch=4))
    assert batched.records == base.records
    assert batched.summary()["jobs"] == base.summary()["jobs"]


# -- auto batch sizing --------------------------------------------------------


def test_auto_batch_fixed_default_without_history():
    from repro.runtime import AUTO_BATCH_DEFAULT, auto_batch_size

    assert auto_batch_size(None, FLEET) == AUTO_BATCH_DEFAULT
    from repro.runtime.scheduler import CostModel

    assert auto_batch_size(CostModel(), FLEET) == AUTO_BATCH_DEFAULT


def test_auto_batch_sizes_from_measured_trial_cost():
    from repro.runtime import (
        AUTO_BATCH_MAX,
        AUTO_TARGET_SECONDS,
        auto_batch_size,
    )
    from repro.runtime.scheduler import CostModel

    cheap = CostModel(samples={"simulate_program": {30: 0.01}})
    assert auto_batch_size(cheap, FLEET) == int(AUTO_TARGET_SECONDS / 0.01)
    slow = CostModel(samples={"simulate_program": {30: 2.0}})
    assert auto_batch_size(slow, FLEET) == 1  # batching would not amortize
    free = CostModel(samples={"simulate_program": {30: 1e-6}})
    assert auto_batch_size(free, FLEET) == AUTO_BATCH_MAX


def test_run_jobs_resolves_auto_batch(monkeypatch, tmp_path):
    """``"auto"`` (explicit or from the env) reaches ``coalesce`` as an
    int: the fixed default without a store or history, and the size
    the store's measured per-trial cost implies with one."""
    import repro.runtime.executor as executor_mod
    from repro.runtime import AUTO_BATCH_DEFAULT, AUTO_TARGET_SECONDS

    limits = []
    real_coalesce = executor_mod.coalesce

    def recording(specs, limit):
        limits.append(limit)
        return real_coalesce(specs, limit)

    monkeypatch.setattr(executor_mod, "coalesce", recording)
    monkeypatch.delenv("REPRO_SIM_BATCH", raising=False)
    base = run_jobs(FLEET)
    assert run_jobs(FLEET, config=RunConfig(sim_batch="auto")).records == (
        base.records
    )
    monkeypatch.setenv("REPRO_SIM_BATCH", "auto")
    run_jobs(FLEET)
    store = ShardedStore(tmp_path / "store")
    book = CostBook(store)
    book.observe("simulate_program", 30, 0.01)
    book.flush()
    assert run_jobs(FLEET, store=store).records == base.records
    assert limits == [
        1, AUTO_BATCH_DEFAULT, AUTO_BATCH_DEFAULT,
        int(AUTO_TARGET_SECONDS / 0.01),
    ]


def test_run_sweep_auto_batch_matches_unbatched(tmp_path):
    """``sim_batch="auto"``: first run seeds the cost table, second run
    sizes batches from it -- records identical to scalar runs and the
    resume is a 100% hit (auto sizing cannot perturb cache keys)."""
    sweep = SweepSpec.make(
        "simulate_program",
        families=["grid"],
        ns=[30],
        seeds=[0, 1, 2, 3],
        program=["bfs"],
    )
    base = run_sweep(sweep)
    store = ShardedStore(tmp_path / "store")
    first = run_sweep(sweep, store=store, config=RunConfig(sim_batch="auto"))
    assert first.records == base.records
    assert first.batch.executed == len(first.records)
    second = run_sweep(
        sweep, store=ShardedStore(tmp_path / "store"),
        config=RunConfig(sim_batch="auto"), resume=True,
    )
    assert second.records == base.records
    assert second.batch.executed == 0


# -- padding-waste bound ------------------------------------------------------


def test_pad_groups_waste_bound():
    import networkx as nx
    import pytest

    from repro.congest import compile_topology, pad_groups

    topologies = [compile_topology(nx.path_graph(n)) for n in (4, 8, 64)]
    default_groups = pad_groups(topologies, limit=8)
    tight = pad_groups(topologies, limit=8, waste=1.0)
    # A waste bound of 1 forbids any padding: every distinct slot count
    # lands in its own group, tighter than the 4.0 default's split.
    assert len(tight) == 3
    assert len(default_groups) < len(tight)
    with pytest.raises(ValueError, match="waste"):
        pad_groups(topologies, limit=8, waste=0.5)


def test_ragged_batch_respects_waste_bound(monkeypatch):
    """A ragged (unpinned-graph) batch splits through ``pad_groups``
    inside the job; under the tightest bound the record still expands
    to exactly the scalar per-trial records."""
    from repro.congest import batch as batch_module

    members = [
        JobSpec.make(
            "simulate_program",
            family="delaunay",
            n=24,
            seed=s,
            program="bfs",
        )
        for s in range(4)
    ]
    scalar = [run_job(spec) for spec in members]
    batch = make_batch_spec(members)
    pad_groups = batch_module.pad_groups
    groups = []

    def tight_groups(topologies, limit):
        groups.append(pad_groups(topologies, limit, waste=1.0))
        return groups[-1]

    monkeypatch.setattr(batch_module, "pad_groups", tight_groups)
    assert expand_batch_record(run_job(batch)) == scalar
    assert len(groups) == 1 and len(groups[0]) > 1  # the batch did split
