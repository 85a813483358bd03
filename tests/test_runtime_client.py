"""The remote ``Client``'s receive contract: routing, errors, cancel.

A scripted raw-socket server sends fixed frame sequences (duplicate or
out-of-range indices, EOF before the verdict, short verdicts, unknown
ops, rejects); a real ``SweepService`` answers a 300-hit sweep from a
prefilled store for the cancel, per-submission task-count and session
checks.
"""

from __future__ import annotations

import asyncio
import json
import queue
import shutil
import socket
import threading
import time

import pytest

from repro.runtime import Client, ServiceError, SweepService, SweepSpec
from repro.runtime.client import HANDOFF_CAP, _Handoff, _in_order
from repro.runtime.codec import (
    FRAME_HEADER_SIZE,
    decode_wire_body,
    encode_record,
    encode_wire_frame,
    parse_frame_header,
    read_wire_frame,
)
from repro.runtime.remote import PROTOCOL_VERSION
from repro.runtime.service import HIT_CHUNK
from repro.runtime.store import count_record_entries
from test_runtime_service import start_worker, wait_until


def hit_sweep(seeds):
    return SweepSpec.make(
        "test_planarity", families=["grid"], ns=[16], seeds=list(seeds),
        epsilon=0.5,
    )


def record_frame(index, total=3):
    payload, shape = encode_record({"index": index, "accepted": True})
    return {
        "op": "record", "index": index, "record_pkd": payload,
        "shapes": [shape.block], "hit": True, "seconds": None,
        "done": index + 1, "total": total,
    }


VERDICT_OK = {"op": "verdict", "ok": True, "jobs": 3, "executed": 0,
              "hits": 3, "speculated": 0, "cancelled": False}


READ = object()
"""In a script: read one frame from the client into ``received``."""


class ScriptedService:
    """Accepts one client, reads its submit frame, sends *frames* under
    that submission's id (a ``READ`` entry waits for one client frame
    instead), shuts its side down, then reads until the client hangs up
    (so no unread bytes turn the close into a reset)."""

    def __init__(self, frames):
        self.frames = frames
        self.received = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.endpoint = f"127.0.0.1:{self.sock.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn, self.sock:
            conn.settimeout(15.0)
            reader = conn.makefile("rb")
            self.received.append(read_wire_frame(reader))
            sub = self.received[0]["sub"]
            for frame in self.frames:
                if frame is READ:
                    self.received.append(read_wire_frame(reader))
                else:
                    # "op" first, then "sub": a record keeps its layout.
                    frame = {"op": None, "sub": sub, **frame}
                    conn.sendall(encode_wire_frame(frame))
            try:
                conn.shutdown(socket.SHUT_WR)
                while conn.recv(4096):
                    pass
            except OSError:
                pass

    def join(self):
        self.thread.join(timeout=15.0)
        assert not self.thread.is_alive()

    def run(self, total=3):
        try:
            return Client(endpoint=self.endpoint).run(hit_sweep(range(total)))
        finally:
            self.join()


class TestScriptedReceive:
    def test_in_order_delivery(self):
        frames = [record_frame(2), {"op": "progress", "done": 1},
                  record_frame(0), record_frame(1), VERDICT_OK]
        server = ScriptedService(frames)
        records = server.run()
        assert [r["index"] for r in records] == [0, 1, 2]
        assert server.received[0]["op"] == "submit"

    @pytest.mark.parametrize("indices, bad", [([0, 0, 2], 0), ([0, 1, 7], 7),
                                              ([-1, 0, 1], -1)])
    def test_bad_index_raises(self, indices, bad):
        frames = [record_frame(i) for i in indices] + [VERDICT_OK]
        with pytest.raises(ServiceError, match=rf"record index {bad} twice or"):
            ScriptedService(frames).run()

    @pytest.mark.parametrize("bad", [5, 40])
    def test_bad_index_inside_a_batch_raises(self, bad):
        """Frames sent back to back reach the consumer batched; every
        record of a batch is still checked."""
        indices = list(range(20)) + [bad]
        frames = [record_frame(i, total=20) for i in indices] + [VERDICT_OK]
        with pytest.raises(ServiceError, match=rf"record index {bad} twice or"):
            ScriptedService(frames).run(total=20)

    def test_eof_before_verdict(self):
        with pytest.raises(ServiceError, match="before the verdict"):
            ScriptedService([record_frame(0), record_frame(1)]).run()

    def test_short_verdict(self):
        with pytest.raises(ServiceError, match="delivered 1 of 3"):
            ScriptedService([record_frame(0), VERDICT_OK]).run()

    def test_unknown_op_ignored(self):
        frames = [record_frame(0), {"op": "from-the-future", "x": 1},
                  record_frame(1), record_frame(2), VERDICT_OK]
        assert len(ScriptedService(frames).run()) == 3

    def test_reject_raises(self):
        frames = [{"op": "reject", "reason": "admission: full"}]
        with pytest.raises(ServiceError, match="rejected submission: admission"):
            ScriptedService(frames).run()

    def test_close_mid_stream_sends_cancel(self):
        frames = [record_frame(0), READ,
                  dict(VERDICT_OK, ok=False, cancelled=True)]
        server = ScriptedService(frames)
        iterator = Client(endpoint=server.endpoint).submit(hit_sweep(range(3)))
        assert next(iterator)["index"] == 0
        start = time.monotonic()
        iterator.close()
        # Well under the 5 s the cancel path waits for a verdict.
        assert time.monotonic() - start < 4.0
        server.join()
        assert [f["op"] for f in server.received] == ["submit", "cancel"]

    def test_failed_verdict_raises(self):
        frames = [record_frame(0), dict(VERDICT_OK, ok=False, error="job 1 failed")]
        with pytest.raises(ServiceError, match="job 1 failed"):
            ScriptedService(frames).run()


def test_in_order_refuses_leftover_records():
    stream = (item for item in [(0, "a", None), (2, "c", None)])
    iterator = _in_order(stream)
    assert next(iterator) == "a"
    with pytest.raises(ServiceError, match="without index 1"):
        next(iterator)


@pytest.fixture(scope="module")
def hit_store(tmp_path_factory):
    """A store holding all 300 records of ``hit_sweep(range(300))``."""
    store = tmp_path_factory.mktemp("hits")
    records = Client(backend="serial", cache_dir=str(store)).run(
        hit_sweep(range(300))
    )
    return store, records


class TestStoreHits:
    def test_close_after_first_record(self, hit_store):
        store, reference = hit_store
        with SweepService(store_dir=store, heartbeat=2.0) as svc, Client(
            endpoint=svc.endpoint, name="leaver"
        ) as client:
            iterator = client.submit(hit_sweep(range(300)))
            assert next(iterator) == reference[0]
            start = time.monotonic()
            iterator.close()
            # Well under the 5 s the cancel path waits for a verdict.
            assert time.monotonic() - start < 4.0
            wait_until(lambda: svc.active_submissions == 0, what="cancel")
            # The session outlives the cancelled submission.
            assert svc.active_clients == 1
            assert client.run(hit_sweep(range(30))) == reference[:30]

    def test_tasks_per_submission_do_not_grow(self, hit_store, monkeypatch):
        """The session's loop creates a fixed number of tasks per
        submission, however many record frames its reader routes."""
        store, reference = hit_store
        created = []
        counts = []
        original = Client._drive_submission

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def counting(self, *args):
            asyncio.get_running_loop().set_task_factory(factory)
            before = len(created)
            try:
                await original(self, *args)
            finally:
                counts.append(len(created) - before)

        monkeypatch.setattr(Client, "_drive_submission", counting)
        with SweepService(store_dir=store, heartbeat=2.0) as svc, Client(
            endpoint=svc.endpoint
        ) as client:
            # The first submission dials (a connect task and the reader).
            for size in (1, 30, 300):
                assert client.run(hit_sweep(range(size))) == reference[:size]
        _dial, small, large = counts
        assert large == small < 30


def run_threads(*calls):
    """Run each ``(fn, *args)`` on its own thread; their results."""
    results = [None] * len(calls)
    errors = []

    def run(slot, fn, *args):
        try:
            results[slot] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot, *call))
        for slot, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    if errors:
        raise errors[0]
    return results


class TestSession:
    """One ``Client`` keeps one session: concurrent submissions share
    its connection, and it redials once the service dropped it."""

    def test_concurrent_submissions_match_serial(self, tmp_path):
        store = tmp_path / "store"
        sweep_a, sweep_b = hit_sweep(range(0, 6)), hit_sweep(range(6, 12))
        with SweepService(store_dir=store, heartbeat=2.0) as svc, Client(
            endpoint=svc.endpoint, name="both"
        ) as client:
            start_worker(svc)
            records_a, records_b = run_threads(
                (client.run, sweep_a), (client.run, sweep_b)
            )
            assert svc.active_clients == 1
        assert records_a == Client().run(sweep_a)
        assert records_b == Client().run(sweep_b)
        assert count_record_entries(store) == sweep_a.size + sweep_b.size

    def test_cancelling_one_leaves_the_other_ok(self, hit_store, tmp_path):
        store = shutil.copytree(hit_store[0], tmp_path / "store")
        leaver = hit_sweep(range(290, 310))  # 10 hits, then 10 misses
        stayer = hit_sweep(range(400, 403))
        with SweepService(store_dir=store, heartbeat=2.0) as svc, Client(
            endpoint=svc.endpoint
        ) as client:
            left = client.submit(leaver)
            kept = client.submit(stayer)
            assert next(left) == hit_store[1][290]
            left.close()
            wait_until(lambda: svc.active_submissions == 1, what="cancel")
            start_worker(svc)
            assert list(kept) == Client().run(stayer)
        # The cancelled submission's queued misses never ran.
        assert sorted(index for _name, index in svc.dispatch_log) == [0, 1, 2]

    def test_dropped_connection_cancels_every_submission(
        self, hit_store, tmp_path
    ):
        store = shutil.copytree(hit_store[0], tmp_path / "store")
        with SweepService(store_dir=store, heartbeat=2.0) as svc, Client(
            endpoint=svc.endpoint
        ) as client:
            first = client.submit(hit_sweep([0, 500, 501]))
            second = client.submit(hit_sweep([1, 502, 503]))
            assert next(first)["seed"] == 0 and next(second)["seed"] == 1
            writer, _routes = client._conn
            client._loop.call_soon_threadsafe(writer.transport.abort)
            for iterator in (first, second):
                with pytest.raises(ServiceError, match="before the verdict"):
                    list(iterator)
            wait_until(lambda: svc.active_clients == 0, what="session drop")
            assert svc.active_submissions == 0
            start_worker(svc)
            wait_until(lambda: svc.active_workers == 1, what="worker join")
            # The next submit redials, and a job the drop dequeued runs
            # afresh for it instead of waiting on the dropped submission.
            again = hit_sweep([2, 500])
            done = []
            thread = threading.Thread(
                target=lambda: done.append(client.run(again)), daemon=True
            )
            thread.start()
            thread.join(timeout=30.0)
            assert done and done[0] == Client().run(again)
        # Only that job ran; the other dropped ones never did.
        assert [index for _name, index in svc.dispatch_log] == [1]

    def test_stop_does_not_wait_for_an_idle_session(self, hit_store):
        svc = SweepService(store_dir=hit_store[0], heartbeat=2.0).start()
        with Client(endpoint=svc.endpoint) as client:
            assert client.run(hit_sweep(range(3))) == hit_store[1][:3]
            start = time.monotonic()
            svc.stop()
            assert time.monotonic() - start < 3.0

    def test_redials_after_a_restart_on_the_same_port(self, hit_store):
        store, reference = hit_store
        svc = SweepService(store_dir=store, heartbeat=2.0).start()
        with Client(endpoint=svc.endpoint) as client:
            assert client.run(hit_sweep(range(30))) == reference[:30]
            port = svc.bound_port
            svc.stop()
            # Wait until the session has seen the service go, so the next
            # submit redials instead of going out on the dead connection.
            wait_until(lambda: client._conn is None, what="drop seen")
            with SweepService(store_dir=store, port=port, heartbeat=2.0) as svc:
                # No worker: every record comes from the store.
                assert client.run(hit_sweep(range(30, 60))) == reference[30:60]
                assert svc.active_clients == 1

    def test_two_submissions_on_one_session_alternate(self, tmp_path):
        sweep_a = hit_sweep([10, 11, 12])
        sweep_b = hit_sweep([20, 21, 22])
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc, \
                Client(endpoint=svc.endpoint, name="s") as client:
            it_a = client.submit(sweep_a)
            wait_until(lambda: svc.active_submissions == 1, what="submission a")
            it_b = client.submit(sweep_b)
            wait_until(lambda: svc.active_submissions == 2, what="submission b")
            start_worker(svc)
            assert list(it_a) == Client().run(sweep_a)
            assert list(it_b) == Client().run(sweep_b)
        # One worker, two equal queues on one session: strict alternation.
        assert list(svc.dispatch_log) == [
            ("s", 0), ("s", 0), ("s", 1), ("s", 1), ("s", 2), ("s", 2)
        ]


class TestHandoff:
    """The receive loop hands the first record over alone, later ones in
    batches flushed once the loop is idle or at the cap."""

    def test_first_alone_then_one_batch_per_idle_loop(self):
        out = queue.Queue()
        loop = asyncio.new_event_loop()
        try:
            handoff = _Handoff(out, loop)
            for index in range(5):
                handoff.record((index, {}, None))
            assert out.get_nowait() == ("records", [(0, {}, None)])
            assert out.empty()  # the batch waits for the loop to go idle
            loop.call_soon(loop.stop)
            loop.run_forever()
            assert out.get_nowait() == ("records", [(i, {}, None) for i in range(1, 5)])
            handoff.record((5, {}, None))
            handoff.put(("verdict", {}))  # flushes the batch ahead of itself
            assert out.get_nowait() == ("records", [(5, {}, None)])
            assert out.get_nowait() == ("verdict", {})
        finally:
            loop.close()

    def test_cap_flushes_without_the_loop(self):
        out = queue.Queue()
        loop = asyncio.new_event_loop()
        try:
            handoff = _Handoff(out, loop)
            for index in range(1 + HANDOFF_CAP):
                handoff.record((index, {}, None))
            assert len(out.get_nowait()[1]) == 1
            assert len(out.get_nowait()[1]) == HANDOFF_CAP
        finally:
            loop.close()


class RecordingWriter:
    """Wraps a session's stream writer, logging each ``write``."""

    def __init__(self, writer, events):
        self._writer = writer
        self._events = events

    def write(self, data):
        self._events.append(("write", bytes(data)))
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


def split_frames(data):
    frames = []
    while data:
        size = FRAME_HEADER_SIZE + parse_frame_header(data[:FRAME_HEADER_SIZE])
        frames.append(decode_wire_body(data[FRAME_HEADER_SIZE:size]))
        data = data[size:]
    return frames


class TestHitWireShape:
    def test_first_record_alone_then_chunked_writes(self, hit_store, monkeypatch):
        import repro.runtime.service as service_mod
        from repro.runtime.cache import KeyDeriver

        store, reference = hit_store
        events = []
        init = service_mod._ClientSession.__init__

        def recording_init(self, uid, name, writer):
            init(self, uid, name, RecordingWriter(writer, events))

        key_for = KeyDeriver.key_for

        def logged_key_for(self, spec):
            events.append(("key", None))
            return key_for(self, spec)

        monkeypatch.setattr(service_mod._ClientSession, "__init__", recording_init)
        monkeypatch.setattr(KeyDeriver, "key_for", logged_key_for)
        with SweepService(store_dir=store, heartbeat=2.0) as svc, Client(
            endpoint=svc.endpoint
        ) as client:
            records = client.run(hit_sweep(range(300)))
        assert records == reference
        writes = [split_frames(data) for kind, data in events if kind == "write"]
        # The first record frame is written alone, before the second
        # key is derived.
        first_write = next(i for i, e in enumerate(events) if e[0] == "write")
        assert [e[0] for e in events[:first_write]] == ["key"]
        assert [f["op"] for f in writes[0]] == ["record"]
        frames = [frame for write in writes for frame in write]
        assert [f["index"] for f in frames if f["op"] == "record"] == list(range(300))
        assert [f["op"] for f in frames[-2:]] == ["progress", "verdict"]
        assert len(writes) <= -(-299 // HIT_CHUNK) + 3

    def test_cancel_mid_sweep_gets_its_verdict(self, hit_store):
        """300 hits and 10 misses with no worker: a cancel sent after the
        first record is answered with a cancelled verdict."""
        store, _reference = hit_store
        with SweepService(store_dir=store, heartbeat=2.0) as svc:
            sock = socket.create_connection(
                ("127.0.0.1", svc.bound_port), timeout=15.0
            )
            # The session stays open after the verdict until the client
            # hangs up: closing the socket needs its file closed too.
            with sock, sock.makefile("rb") as reader:
                sock.sendall(encode_wire_frame({
                    "op": "submit",
                    "sub": 7,
                    "protocol": PROTOCOL_VERSION,
                    "sweep_json": json.dumps(hit_sweep(range(310)).to_payload()),
                }))
                assert read_wire_frame(reader)["op"] == "record"
                sock.sendall(encode_wire_frame({"op": "cancel", "sub": 7}))
                frame = read_wire_frame(reader)
                records = 1
                while frame["op"] != "verdict":
                    records += frame["op"] == "record"
                    frame = read_wire_frame(reader)
            assert frame["cancelled"] is True and frame["ok"] is False
            assert frame["hits"] == records == 300
            wait_until(lambda: svc.active_clients == 0, what="session end")
