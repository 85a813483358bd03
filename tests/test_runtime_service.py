"""SweepService + Client: fairness, cancellation, speculation, parity."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.runtime import Client, ServiceError, SweepService
from repro.runtime.codec import encode_wire_frame, read_wire_frame
from repro.runtime.jobs import job_kinds
from repro.runtime.remote import PROTOCOL_VERSION
from repro.runtime.scheduler import SpeculationPolicy
from repro.runtime.store import ShardedStore
from repro.runtime.sweeps import SweepSpec
from repro.runtime.worker import _result_frame, retry_delays, serve_remote


def small_sweep(ns=(36,), seeds=(0,), epsilon=(0.5,)):
    return SweepSpec.make(
        "test_planarity", families=["grid"], ns=list(ns),
        epsilon=list(epsilon), seeds=list(seeds),
    )


def wait_until(cond, timeout=15.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def start_worker(service, reconnect=False):
    """A real in-process worker thread serving *service*'s fleet."""
    thread = threading.Thread(
        target=serve_remote,
        args=(service.host, service.bound_port),
        kwargs={"reconnect": reconnect},
        daemon=True,
    )
    thread.start()
    return thread


class ScriptedWorker:
    """A hand-rolled TCP worker with a per-job delay, for straggler tests."""

    def __init__(self, service, delay=0.0):
        self.endpoint = (service.host, service.bound_port)
        self.delay = delay
        self.jobs = 0
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        sock = socket.create_connection(self.endpoint, timeout=30.0)
        sock.settimeout(30.0)
        reader = sock.makefile("rb")
        sock.sendall(encode_wire_frame({
            "op": "hello",
            "protocol": PROTOCOL_VERSION,
            "kinds": list(job_kinds()),
            "pid": 0,
        }))
        welcome = read_wire_frame(reader)
        assert welcome is not None and welcome.get("op") == "welcome"
        sent_shapes = set()
        try:
            while True:
                frame = read_wire_frame(reader)
                if frame is None or frame.get("op") == "exit":
                    return
                op = frame.get("op")
                if op == "ping":
                    sock.sendall(encode_wire_frame({"op": "pong"}))
                elif op == "job":
                    if self.delay:
                        time.sleep(self.delay)
                    self.jobs += 1
                    sock.sendall(_result_frame(frame, sent_shapes))
        except OSError:
            pass
        finally:
            sock.close()


def raw_submit(service, sweep, name):
    """Open a bare client socket with one submit frame on the wire."""
    sock = socket.create_connection(
        (service.host, service.bound_port), timeout=15.0
    )
    sock.settimeout(15.0)
    sock.sendall(encode_wire_frame({
        "op": "submit",
        "protocol": PROTOCOL_VERSION,
        "client": name,
        "sweep_json": json.dumps(sweep.to_payload(), sort_keys=True),
    }))
    return sock


def count_put_raw(monkeypatch):
    """Count every ShardedStore.put_raw in this process (service+workers)."""
    calls = []
    original = ShardedStore.put_raw

    def counting(self, key, payload, **kwargs):
        calls.append(key)
        return original(self, key, payload, **kwargs)

    monkeypatch.setattr(ShardedStore, "put_raw", counting)
    return calls


class TestClientParity:
    def test_local_remote_records_identical(self, tmp_path, monkeypatch):
        puts = count_put_raw(monkeypatch)
        sweep = small_sweep(ns=(36, 64), epsilon=(0.5, 0.25))
        reference = Client(backend="serial").run(sweep)
        assert len(reference) == sweep.size
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            start_worker(svc, reconnect=True)
            wait_until(lambda: svc.active_workers == 1, what="worker join")
            progress = []
            remote = list(
                Client(endpoint=svc.endpoint, name="parity").submit(
                    sweep, on_progress=progress.append
                )
            )
            assert remote == reference
            assert progress and progress[0]["total"] == sweep.size
            # Workers are storeless: only the service appends, exactly
            # once per job.
            assert len(puts) == sweep.size
            # Resubmission is answered from the store: same records, no
            # dispatch, no further appends.
            again = Client(endpoint=svc.endpoint, name="parity2").run(sweep)
            assert again == reference
            assert len(puts) == sweep.size
            assert len(svc.dispatch_log) == sweep.size

    def test_local_backend_uses_cache_dir(self, tmp_path):
        sweep = small_sweep(ns=(36, 64))
        first = Client(backend="serial", cache_dir=str(tmp_path / "c")).run(
            sweep
        )
        second = Client(backend="serial", cache_dir=str(tmp_path / "c")).run(
            sweep
        )
        assert first == second == Client().run(sweep)


class TestFairness:
    def test_two_clients_alternate_on_one_worker(self, tmp_path):
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            sweep_a = small_sweep(ns=(36, 64, 100), seeds=(0,))
            sweep_b = small_sweep(ns=(36, 64, 100), seeds=(1,))
            it_a = Client(endpoint=svc.endpoint, name="a").submit(sweep_a)
            wait_until(lambda: svc.active_clients == 1, what="client a")
            it_b = Client(endpoint=svc.endpoint, name="b").submit(sweep_b)
            wait_until(lambda: svc.active_clients == 2, what="client b")
            start_worker(svc)
            records_a = list(it_a)
            records_b = list(it_b)
            assert len(records_a) == len(records_b) == 3
            # One worker, two equal queues: strict round-robin
            # alternation, however unequal the arrival times were.
            names = [name for name, _index in svc.dispatch_log]
            assert names == ["a", "b", "a", "b", "a", "b"]

    def test_identical_submissions_coalesce(self):
        # No store: deduplication must come from in-flight coalescing.
        with SweepService(heartbeat=2.0) as svc:
            sweep = small_sweep(ns=(36, 64))
            it_a = Client(endpoint=svc.endpoint, name="a").submit(sweep)
            wait_until(lambda: svc.active_clients == 1, what="client a")
            it_b = Client(endpoint=svc.endpoint, name="b").submit(sweep)
            wait_until(lambda: svc.active_clients == 2, what="client b")
            start_worker(svc)
            records_a = list(it_a)
            records_b = list(it_b)
            assert records_a == records_b
            assert len(records_a) == sweep.size
            # Each distinct job dispatched exactly once for both clients.
            assert len(svc.dispatch_log) == sweep.size


class TestCancellation:
    def test_disconnect_cancels_only_its_queued_jobs(
        self, tmp_path, monkeypatch
    ):
        puts = count_put_raw(monkeypatch)
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            doomed = raw_submit(
                svc, small_sweep(ns=(36, 64, 100), seeds=(0,)), "doomed"
            )
            wait_until(lambda: svc.active_clients == 1, what="doomed client")
            survivor_sweep = small_sweep(ns=(36, 64), seeds=(9,))
            it = Client(endpoint=svc.endpoint, name="survivor").submit(
                survivor_sweep
            )
            wait_until(lambda: svc.active_clients == 2, what="survivor")
            # The doomed client vanishes before any worker exists: all
            # of its jobs are still queued and must be dropped.
            doomed.close()
            wait_until(lambda: svc.active_clients == 1, what="drop session")
            start_worker(svc)
            records = list(it)
            assert len(records) == survivor_sweep.size
            # Only the survivor's jobs ran or reached the store.
            assert {name for name, _i in svc.dispatch_log} == {"survivor"}
            assert len(puts) == survivor_sweep.size

    def test_cancel_frame_returns_cancelled_verdict(self, tmp_path):
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            sock = raw_submit(svc, small_sweep(ns=(36, 64)), "quitter")
            reader = sock.makefile("rb")
            first = read_wire_frame(reader)
            assert first["op"] == "progress"
            assert first["total"] == 2
            sock.sendall(encode_wire_frame({"op": "cancel"}))
            frame = read_wire_frame(reader)
            while frame is not None and frame.get("op") != "verdict":
                frame = read_wire_frame(reader)
            assert frame is not None
            assert frame["ok"] is False
            assert frame["cancelled"] is True
            sock.close()
            wait_until(lambda: svc.active_clients == 0, what="session end")
            # The service survives the cancel and serves the next client.
            start_worker(svc)
            records = Client(endpoint=svc.endpoint).run(small_sweep())
            assert len(records) == 1

    def test_abandoned_iterator_cancels_session(self, tmp_path):
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            ScriptedWorker(svc, delay=0.2)
            wait_until(lambda: svc.active_workers == 1, what="worker join")
            iterator = Client(endpoint=svc.endpoint, name="leaver").submit(
                small_sweep(ns=(36, 64, 100, 144))
            )
            next(iterator)
            iterator.close()  # the generator's finally sends cancel
            wait_until(lambda: svc.active_clients == 0, what="session end")


class TestSpeculation:
    def test_straggler_redispatch_single_store_row(
        self, tmp_path, monkeypatch
    ):
        puts = count_put_raw(monkeypatch)
        policy = SpeculationPolicy(
            factor=3.0, min_seconds=0.05, no_history_seconds=0.15,
            max_copies=2,
        )
        service = SweepService(
            store_dir=tmp_path / "store",
            heartbeat=2.0,
            speculation=policy,
            speculation_interval=0.02,
        )
        with service as svc:
            slow = ScriptedWorker(svc, delay=1.2)
            wait_until(lambda: svc.active_workers == 1, what="slow worker")
            iterator = Client(endpoint=svc.endpoint, name="c").submit(
                small_sweep()
            )
            # The primary copy lands on the slow worker and stalls.
            wait_until(lambda: len(svc.dispatch_log) == 1, what="dispatch")
            fast = ScriptedWorker(svc, delay=0.0)
            records = list(iterator)
            assert len(records) == 1
            assert records[0] == Client().run(small_sweep())[0]
            # The twin went to the other worker and won the race.
            assert svc.speculation_log == [("c", 0)]
            assert fast.jobs == 1
            # Let the slow copy finish and get dropped before counting.
            wait_until(lambda: slow.jobs == 1, what="slow copy completes")
            time.sleep(0.1)
            assert len(puts) == 1
            store = ShardedStore(tmp_path / "store")
            assert len(list(store.dump())) == 1


class TestAdmissionAndErrors:
    def test_max_clients_rejects_with_service_error(self, tmp_path):
        with SweepService(
            store_dir=tmp_path / "store", heartbeat=2.0, max_clients=1
        ) as svc:
            holder = raw_submit(svc, small_sweep(ns=(36, 64)), "holder")
            wait_until(lambda: svc.active_clients == 1, what="holder")
            with pytest.raises(ServiceError, match="admission"):
                Client(endpoint=svc.endpoint).run(small_sweep(seeds=(7,)))
            holder.close()

    def test_max_pending_rejects_oversized_submission(self, tmp_path):
        with SweepService(
            store_dir=tmp_path / "store", heartbeat=2.0, max_pending=2
        ) as svc:
            with pytest.raises(ServiceError, match="max_pending"):
                Client(endpoint=svc.endpoint).run(small_sweep(ns=(36, 64, 100)))

    def test_failing_job_fails_the_sweep_not_the_service(self, tmp_path):
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            start_worker(svc)
            wait_until(lambda: svc.active_workers == 1, what="worker join")
            bad = SweepSpec.make(
                "test_planarity", families=["no-such-family"], ns=[36],
                epsilon=[0.5], seeds=[0],
            )
            with pytest.raises(ServiceError, match="failed"):
                Client(endpoint=svc.endpoint).run(bad)
            # Deterministic job failures do not take the service down.
            records = Client(endpoint=svc.endpoint).run(small_sweep())
            assert len(records) == 1

    @pytest.mark.parametrize("protocol", [2, 999])
    def test_protocol_mismatch_rejected(self, tmp_path, protocol):
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            sock = socket.create_connection(
                (svc.host, svc.bound_port), timeout=15.0
            )
            sock.settimeout(15.0)
            sock.sendall(encode_wire_frame({
                "op": "submit", "protocol": protocol, "sweep_json": "{}",
            }))
            reply = read_wire_frame(sock.makefile("rb"))
            assert reply["op"] == "reject"
            assert "protocol mismatch" in reply["reason"]
            sock.close()

    def test_malformed_hello_kinds_rejected(self, tmp_path):
        """A hello whose ``kinds`` is not a list of str is refused with
        a reason naming ``kinds``; the service keeps serving."""
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            for kinds in (5, [["a"]]):
                sock = socket.create_connection(
                    (svc.host, svc.bound_port), timeout=15.0
                )
                sock.settimeout(15.0)
                sock.sendall(encode_wire_frame({
                    "op": "hello", "protocol": PROTOCOL_VERSION,
                    "kinds": kinds, "pid": 0,
                }))
                reply = read_wire_frame(sock.makefile("rb"))
                sock.close()
                assert reply["op"] == "reject"
                assert "kinds" in reply["reason"]
            assert svc.active_workers == 0
            start_worker(svc)
            records = Client(endpoint=svc.endpoint).run(small_sweep(ns=(36, 64)))
            assert records == Client().run(small_sweep(ns=(36, 64)))


class TestWorkerReconnect:
    def test_retry_delays_backoff_and_jitter_bounds(self):
        bases = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0, 5.0]
        for base, value in zip(bases, retry_delays()):
            assert base * 0.5 <= value <= base

    def test_reconnect_redials_after_drop_and_obeys_exit(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.update(
                code=serve_remote("127.0.0.1", port, reconnect=True)
            ),
            daemon=True,
        )
        thread.start()
        # First connection: welcome, then vanish without an exit frame.
        conn, _addr = listener.accept()
        hello = read_wire_frame(conn.makefile("rb"))
        assert hello["op"] == "hello"
        conn.sendall(encode_wire_frame({"op": "welcome"}))
        conn.close()
        # The worker must redial (capped backoff) instead of exiting.
        listener.settimeout(15.0)
        conn, _addr = listener.accept()
        hello = read_wire_frame(conn.makefile("rb"))
        assert hello["op"] == "hello"
        conn.sendall(encode_wire_frame({"op": "welcome"}))
        conn.sendall(encode_wire_frame({"op": "exit"}))
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert rc["code"] == 0
        conn.close()
        listener.close()

    def test_service_stop_releases_reconnect_worker(self, tmp_path):
        svc = SweepService(store_dir=tmp_path / "store", heartbeat=2.0)
        svc.start()
        worker = start_worker(svc, reconnect=True)
        wait_until(lambda: svc.active_workers == 1, what="worker join")
        svc.stop()
        # Shutdown sends an exit frame, so a reconnect-mode worker ends
        # instead of redialing a server that is going away on purpose.
        worker.join(timeout=15.0)
        assert not worker.is_alive()
