"""``--backend remote``: one batch on an ephemeral SweepService
(repro.runtime.remote): handshake, dispatch, requeue, store appends."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.runtime import (
    JobSpec,
    RemoteBackend,
    SerialBackend,
    ServiceError,
    ShardedStore,
    make_backend,
    run_jobs,
)
from repro.runtime.codec import (
    STATS,
    encode_wire_frame,
    read_wire_frame,
)
from repro.runtime.remote import PROTOCOL_VERSION, parse_endpoint

SPECS = [
    JobSpec.make("test_planarity", family="grid", n=36, seed=seed,
                 epsilon=epsilon)
    for seed in (0, 1)
    for epsilon in (0.5, 0.25)
]


def _consume_in_thread(backend, specs):
    """Run *specs* on *backend* from a thread; the holder gets the
    batch (or the error that ended it)."""
    holder = {}

    def consume():
        try:
            holder["batch"] = run_jobs(specs, backend=backend)
        except Exception as exc:  # surfaced by the test
            holder["error"] = exc

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    return consumer, holder


def _hello(sock, kinds=("test_planarity",), protocol=None):
    sock.sendall(
        encode_wire_frame(
            {
                "op": "hello",
                "protocol": PROTOCOL_VERSION if protocol is None else protocol,
                "kinds": list(kinds),
                "pid": 0,
            }
        )
    )


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7341") == ("127.0.0.1", 7341)
    assert parse_endpoint("host.example:0") == ("host.example", 0)
    with pytest.raises(ValueError):
        parse_endpoint("7341")
    with pytest.raises(ValueError):
        parse_endpoint("host:port")


def test_make_backend_registry_includes_remote():
    backend = make_backend("remote", port=0)
    assert isinstance(backend, RemoteBackend)


def test_remote_matches_serial(start_workers):
    backend = RemoteBackend(port=0)
    start_workers(backend.bind(), count=2)
    remote = run_jobs(SPECS, backend=backend)
    serial = run_jobs(SPECS, backend=SerialBackend())
    assert remote.records == serial.records
    # The service lives for one batch: its socket is released.
    assert backend.bound_port is None


def test_workers_share_store_and_records_land_once(tmp_path, start_workers):
    """Storeless workers leave every append to the service: one line
    per record, and a fresh resume run is a pure merge."""
    store_dir = tmp_path / "shared"
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    start_workers(backend.bind(), count=2)
    batch = run_jobs(SPECS, backend=backend, store=ShardedStore(store_dir))
    assert batch.executed == len(SPECS)
    from repro.runtime.store import count_record_entries

    # One physical entry per record, not two.
    assert count_record_entries(store_dir) == len(SPECS)
    rerun = run_jobs(SPECS, store=ShardedStore(store_dir))
    assert rerun.executed == 0
    assert rerun.records == batch.records


def test_handshake_rejects_legacy_json_worker(start_workers):
    """A protocol-1 worker opens with a JSON line; its ``{`` fails the
    frame-magic check, so the server closes without a welcome."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    consumer, holder = _consume_in_thread(backend, SPECS[:1])
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(b'{"op":"hello","protocol":1,"kinds":[],"store":null}\n')
    assert sock.recv(4096) == b""  # closed, nothing sent back
    sock.close()
    # A conforming worker still completes the batch afterwards.
    start_workers(port)
    consumer.join(15)
    assert not consumer.is_alive()
    assert len(holder["batch"].records) == 1


@pytest.mark.parametrize("protocol", [2, 999])
def test_handshake_rejects_protocol_mismatch(start_workers, protocol):
    """A v2 worker (which still probed a store of its own) and an
    unknown version are both refused."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    consumer, holder = _consume_in_thread(backend, SPECS[:1])
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    _hello(sock, kinds=(), protocol=protocol)
    reject = read_wire_frame(reader)
    sock.close()
    assert reject["op"] == "reject"
    assert "protocol mismatch" in reject["reason"]
    # A conforming worker still completes the batch afterwards.
    start_workers(port)
    consumer.join(15)
    assert not consumer.is_alive()
    assert len(holder["batch"].records) == 1


def test_worker_missing_kinds_is_admitted_and_filtered(start_workers):
    """A worker without the batch's job kind is welcomed but never
    handed a job; a capable worker drains the batch."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    consumer, holder = _consume_in_thread(backend, SPECS[:1])
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    reader = sock.makefile("rb")
    _hello(sock, kinds=("some_other_kind",))
    assert read_wire_frame(reader)["op"] == "welcome"
    start_workers(port)
    consumer.join(15)
    assert not consumer.is_alive()
    assert len(holder["batch"].records) == 1
    ops = []
    while True:
        frame = read_wire_frame(reader)
        if frame is None or frame["op"] == "exit":
            break
        ops.append(frame["op"])
    sock.close()
    assert "job" not in ops


def test_killed_worker_requeues_its_job(start_workers):
    """A worker that dies mid-job never loses it: the job is requeued
    and a surviving worker completes the batch."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    got_job = threading.Event()

    def doomed_worker():
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        reader = sock.makefile("rb")
        _hello(sock)
        assert read_wire_frame(reader)["op"] == "welcome"
        job = read_wire_frame(reader)
        assert job["op"] == "job"
        got_job.set()
        sock.close()  # die without answering: the server must requeue

    doomed = threading.Thread(target=doomed_worker, daemon=True)
    doomed.start()
    consumer, holder = _consume_in_thread(backend, SPECS)
    assert got_job.wait(10), "doomed worker never received a job"
    start_workers(port)
    consumer.join(30)
    assert not consumer.is_alive()
    serial = run_jobs(SPECS, backend=SerialBackend())
    assert holder["batch"].records == serial.records


def test_worker_job_error_propagates(start_workers):
    backend = RemoteBackend(port=0)
    invalid = JobSpec(
        kind="test_planarity", family="grid", n=36, seed=0,
        config=(("epsilon", -1.0),),
    )
    start_workers(backend.bind())
    with pytest.raises(ServiceError, match="failed on"):
        run_jobs([SPECS[0], invalid], backend=backend)


def test_late_worker_completes_waiting_jobs(start_workers):
    """Jobs queue while no worker is connected; a late joiner drains
    them (fleet elasticity)."""
    backend = RemoteBackend(port=0)
    port = backend.bind()
    consumer, holder = _consume_in_thread(backend, SPECS[:2])
    time.sleep(0.5)  # batch is underway with zero workers
    assert consumer.is_alive()
    start_workers(port)
    consumer.join(30)
    assert not consumer.is_alive()
    assert len(holder["batch"].records) == 2


def test_abort_wakes_a_blocked_stream():
    """Stopping the service mid-batch (a ctrl-C'd CLI's cleanup) must
    wake a consumer blocked with jobs queued and zero workers."""
    backend = RemoteBackend(port=0)
    backend.bind()
    consumer, holder = _consume_in_thread(backend, SPECS)
    time.sleep(0.5)  # blocked: jobs pending, no worker will ever join
    assert consumer.is_alive()
    backend.service.stop()
    consumer.join(10)
    assert not consumer.is_alive(), "stopping did not wake the stream"
    assert isinstance(holder.get("error"), ServiceError)
    # The listen socket is released for the next run.
    assert backend.bound_port is None


def test_server_appends_result_bytes_without_reencode(tmp_path, start_workers):
    """Zero-copy pin: the service appends each worker's result *bytes*
    to the store verbatim.  Workers run in-process here, so
    ``codec.STATS`` sees every side: per job there is exactly one spec
    encode (service), one spec decode (worker), one record encode
    (worker), and one record decode (client, for the consumer stream).
    A service that re-encoded for the store append, or a decode too
    many anywhere, breaks the exact count.  The only other encode is
    the service's cost-table flush: one meta cell per ``(kind, n)``."""
    store_dir = tmp_path / "server-store"
    backend = RemoteBackend(port=0, store_dir=str(store_dir))
    # Workers are storeless: every result rides the wire and the
    # service persists it via put_raw.
    start_workers(backend.bind(), count=2)
    encoded_before = STATS.encoded_records
    decoded_before = STATS.decoded_records
    batch = run_jobs(SPECS, backend=backend, store=ShardedStore(store_dir))
    assert batch.executed == len(SPECS)
    cost_cells = len({(spec.kind, spec.n) for spec in SPECS})
    assert STATS.encoded_records - encoded_before == 2 * len(SPECS) + cost_cells
    assert STATS.decoded_records - decoded_before == 2 * len(SPECS)
    # The spliced bytes decode back to exactly what the workers sent.
    from repro.runtime.cache import KeyDeriver

    store = ShardedStore(store_dir)
    deriver = KeyDeriver()
    for spec, record in zip(SPECS, batch.records):
        assert store.get(deriver.key_for(spec)) == record
    # The extra encodes are exactly the flushed cost cells.
    assert len(list(store.meta_keys())) == cost_cells


def test_worker_reports_seconds_for_executed_jobs(start_workers):
    backend = RemoteBackend(port=0)
    start_workers(backend.bind())
    seen = [seconds for _i, _record, seconds in backend.run_stream(SPECS[:2])]
    assert len(seen) == 2
    assert all(value is not None and value >= 0 for value in seen)
