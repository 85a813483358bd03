"""The remote ``Client``'s receive contract: routing, errors, cancel.

A scripted raw-socket server sends fixed frame sequences (duplicate or
out-of-range indices, EOF before the verdict, short verdicts, unknown
ops, rejects); a real ``SweepService`` answers a 300-hit sweep from a
prefilled store for the cancel and per-submission task-count checks.
"""

from __future__ import annotations

import asyncio
import json
import queue
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
from test_runtime_service import wait_until


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
    """Accepts one client, reads its submit frame, sends *frames* (a
    ``READ`` entry waits for one client frame instead), shuts its side
    down, then reads until the client hangs up (so no unread bytes turn
    the close into a reset)."""

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
            for frame in self.frames:
                if frame is READ:
                    self.received.append(read_wire_frame(reader))
                else:
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
        with SweepService(store_dir=store, heartbeat=2.0) as svc:
            iterator = Client(endpoint=svc.endpoint, name="leaver").submit(
                hit_sweep(range(300))
            )
            assert next(iterator) == reference[0]
            start = time.monotonic()
            iterator.close()
            # Well under the 5 s the cancel path waits for a verdict.
            assert time.monotonic() - start < 4.0
            wait_until(lambda: svc.active_clients == 0, what="session end")
            again = Client(endpoint=svc.endpoint).run(hit_sweep(range(30)))
            assert again == reference[:30]

    def test_tasks_per_submission_do_not_grow(self, hit_store, monkeypatch):
        """The receive loop creates a fixed number of tasks per submission,
        however many record frames it reads."""
        store, reference = hit_store
        counts = []
        original = Client._drive_submission

        async def counting(self, body, out, ctrl):
            created = []

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            asyncio.get_running_loop().set_task_factory(factory)
            try:
                await original(self, body, out, ctrl)
            finally:
                counts.append(len(created))

        monkeypatch.setattr(Client, "_drive_submission", counting)
        with SweepService(store_dir=store, heartbeat=2.0) as svc:
            for size in (30, 300):
                records = Client(endpoint=svc.endpoint).run(hit_sweep(range(size)))
                assert records == reference[:size]
        small, large = counts
        assert large == small < 30


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

        def recording_init(self, uid, name, reader, writer):
            init(self, uid, name, reader, RecordingWriter(writer, events))

        key_for = KeyDeriver.key_for

        def logged_key_for(self, spec):
            events.append(("key", None))
            return key_for(self, spec)

        monkeypatch.setattr(service_mod._ClientSession, "__init__", recording_init)
        monkeypatch.setattr(KeyDeriver, "key_for", logged_key_for)
        with SweepService(store_dir=store, heartbeat=2.0) as svc:
            records = Client(endpoint=svc.endpoint).run(hit_sweep(range(300)))
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
            with sock:
                sock.sendall(encode_wire_frame({
                    "op": "submit",
                    "protocol": PROTOCOL_VERSION,
                    "sweep_json": json.dumps(hit_sweep(range(310)).to_payload()),
                }))
                reader = sock.makefile("rb")
                assert read_wire_frame(reader)["op"] == "record"
                sock.sendall(encode_wire_frame({"op": "cancel"}))
                frame = read_wire_frame(reader)
                records = 1
                while frame["op"] != "verdict":
                    records += frame["op"] == "record"
                    frame = read_wire_frame(reader)
            assert frame["cancelled"] is True and frame["ok"] is False
            assert frame["hits"] == records == 300
            wait_until(lambda: svc.active_clients == 0, what="session end")
