"""Streaming delivery, spec payloads, and the worker's job protocol."""

from __future__ import annotations

from repro.runtime import (
    JobSpec,
    RemoteBackend,
    ResultCache,
    SerialBackend,
    iter_jobs,
    run_job,
    run_jobs,
)
from repro.runtime.codec import encode_record
from repro.runtime.worker import handle_request

SPECS = [
    JobSpec.make("test_planarity", family="grid", n=36, seed=seed,
                 epsilon=epsilon)
    for seed in (0, 1)
    for epsilon in (0.5, 0.25)
]


def test_payload_round_trip():
    for spec in SPECS:
        clone = JobSpec.from_payload(spec.to_payload())
        assert clone == spec
        assert clone.canonical() == spec.canonical()
    pinned = JobSpec.make(
        "partition_randomized", family="delaunay", n=64, seed=3,
        graph_seed=0, epsilon=0.2, delta=0.1,
    )
    assert JobSpec.from_payload(pinned.to_payload()) == pinned


def test_shared_store_records_land_once(tmp_path, start_workers):
    """The service appends storeless workers' records to the shared
    store; the orchestrator must not append them a second time."""
    store_dir = tmp_path / "shared"
    cache = ResultCache(disk_dir=store_dir)
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    start_workers(backend.bind(), count=2)
    run_jobs(SPECS, backend=backend, cache=cache)
    from repro.runtime.store import count_record_entries

    # One physical entry per record, not two.
    assert count_record_entries(store_dir) == len(SPECS)
    # And the records are still served back on a fresh run.
    rerun = run_jobs(SPECS, cache=ResultCache(disk_dir=store_dir))
    assert rerun.executed == 0


def test_worker_error_propagates():
    """A job that raises inside a worker comes back as an ``error`` +
    ``traceback`` response instead of killing the worker."""
    # Point the spec at an epsilon the tester rejects as invalid,
    # which raises inside the worker.
    invalid = JobSpec(
        kind="test_planarity", family="grid", n=36, seed=0,
        config=(("epsilon", -1.0),),
    )
    spec_pkd, _shape = encode_record(invalid.to_payload())
    response = handle_request({"spec_pkd": spec_pkd})
    assert "record_pkd" not in response
    assert "epsilon" in response["error"]
    assert "Traceback" in response["traceback"]


def test_iter_jobs_streams_hits_then_misses():
    cache = ResultCache()
    warm = run_jobs(SPECS[:2], cache=cache)
    events = list(iter_jobs(SPECS, cache=cache))
    assert len(events) == len(SPECS)
    from_cache = [cached for _i, _r, cached in events]
    assert from_cache == [True, True, False, False]
    indices = [index for index, _r, _c in events]
    assert sorted(indices) == list(range(len(SPECS)))
    by_index = {index: record for index, record, _c in events}
    assert by_index[0] == warm.records[0]


def test_iter_jobs_is_lazy():
    """Records arrive one at a time, not after a whole-batch barrier."""
    stream = iter_jobs(SPECS, backend=SerialBackend())
    first = next(stream)
    assert first[0] == 0 and first[1]["seed"] == SPECS[0].seed
    rest = list(stream)
    assert len(rest) == len(SPECS) - 1


def test_process_stream_matches_serial_records():
    from repro.runtime import ProcessPoolBackend

    backend = ProcessPoolBackend(max_workers=2, chunksize=1)
    streamed = {}
    for index, record, seconds in backend.run_stream(SPECS):
        streamed[index] = record
        assert seconds >= 0  # workers report per-job wall-time
    serial = [run_job(spec) for spec in SPECS]
    assert [streamed[i] for i in range(len(SPECS))] == serial
