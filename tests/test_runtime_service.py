"""SweepService + Client: fairness, cancellation, speculation, parity."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.cli import build_parser
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
    """Open a bare client socket with one submit frame (submission id 1)
    on the wire."""
    sock = socket.create_connection(
        (service.host, service.bound_port), timeout=15.0
    )
    sock.settimeout(15.0)
    sock.sendall(encode_wire_frame({
        "op": "submit",
        "sub": 1,
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
            sock.sendall(encode_wire_frame({"op": "cancel", "sub": 1}))
            frame = read_wire_frame(reader)
            while frame is not None and frame.get("op") != "verdict":
                frame = read_wire_frame(reader)
            assert frame is not None
            assert frame["ok"] is False
            assert frame["cancelled"] is True
            assert svc.active_submissions == 0
            reader.close()
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
            wait_until(lambda: svc.active_submissions == 0, what="cancel")


class TestSpeculation:
    def test_straggler_redispatch_single_store_row(
        self, tmp_path, monkeypatch
    ):
        puts = count_put_raw(monkeypatch)
        import repro.runtime.service as service_mod

        monkeypatch.setattr(service_mod, "SPECULATION_INTERVAL", 0.02)
        policy = SpeculationPolicy(
            factor=3.0, min_seconds=0.05, no_history_seconds=0.15,
            max_copies=2,
        )
        service = SweepService(
            store_dir=tmp_path / "store",
            heartbeat=2.0,
            speculation=policy,
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
            assert list(svc.speculation_log) == [("c", 0)]
            assert fast.jobs == 1
            # Let the slow copy finish and get dropped before counting.
            wait_until(lambda: slow.jobs == 1, what="slow copy completes")
            time.sleep(0.1)
            assert len(puts) == 1
            store = ShardedStore(tmp_path / "store")
            assert len(list(store.dump())) == 1


class TestAdmissionAndErrors:
    @pytest.mark.parametrize(
        "setting",
        [
            {"heartbeat": 0},  # asyncio.wait(timeout=0): a ping busy loop
            {"heartbeat": -1.0},
            {"heartbeat": float("nan")},
            {"max_clients": 0},  # would reject every submit
            {"max_pending": 0},
        ],
    )
    def test_unusable_settings_rejected(self, setting):
        with pytest.raises(ValueError, match="must be"):
            SweepService(**setting)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--listen", "127.0.0.1:0", "--heartbeat", "0"],
            ["serve", "--listen", "127.0.0.1:0", "--max-clients", "0"],
            ["serve", "--listen", "127.0.0.1:0", "--max-pending", "0"],
            ["sweep", "--kind", "test", "--workers", "-3"],
        ],
    )
    def test_cli_rejects_non_positive_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

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

    def test_submit_naming_an_undeclared_parameter_is_rejected(self, tmp_path):
        """Both submit forms build their specs through ``JobSpec.make``,
        which refuses a name the kind does not declare: the client gets a
        ``reject`` naming it, and nothing is queued."""
        bad_sweep = SweepSpec.make(
            "test_planarity", families=["grid"], ns=[36], epsilom=[0.5]
        )
        bad_spec = {"kind": "test_planarity", "n": 36, "config": [["epsilom", 0.5]]}
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            sock = raw_submit(svc, bad_sweep, "typo")
            reply = read_wire_frame(sock.makefile("rb"))
            sock.close()
            assert reply["op"] == "reject"
            assert "takes no parameter epsilom" in reply["reason"]
            sock = socket.create_connection(
                (svc.host, svc.bound_port), timeout=15.0
            )
            sock.settimeout(15.0)
            sock.sendall(encode_wire_frame({
                "op": "submit", "sub": 1, "protocol": PROTOCOL_VERSION,
                "specs_json": json.dumps([bad_spec]),
            }))
            reply = read_wire_frame(sock.makefile("rb"))
            sock.close()
            assert reply["op"] == "reject"
            assert "takes no parameter epsilom" in reply["reason"]
            with pytest.raises(ServiceError, match="takes no parameter"):
                Client(endpoint=svc.endpoint).run(bad_sweep)
            assert list(svc.dispatch_log) == []

    def test_dispatch_logs_keep_a_bounded_window(self, tmp_path, monkeypatch):
        import repro.runtime.service as service_mod

        monkeypatch.setattr(service_mod, "DISPATCH_LOG_WINDOW", 2)
        with SweepService(store_dir=tmp_path / "store", heartbeat=2.0) as svc:
            start_worker(svc)
            wait_until(lambda: svc.active_workers == 1, what="worker join")
            records = Client(endpoint=svc.endpoint, name="c").run(
                small_sweep(ns=(36, 64, 100))
            )
            assert len(records) == 3
            assert list(svc.dispatch_log) == [("c", 1), ("c", 2)]
            assert svc.speculation_log.maxlen == 2

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


def raw_run(service, sweep):
    """Submit *sweep* over a bare socket; returns (record frames, verdict)."""
    sock = raw_submit(service, sweep, "raw")
    with sock:
        reader = sock.makefile("rb")
        records = []
        frame = read_wire_frame(reader)
        while frame is not None and frame.get("op") != "verdict":
            if frame.get("op") == "record":
                records.append(frame)
            frame = read_wire_frame(reader)
    return records, frame


def serial_keys(sweep, store_dir):
    """Run *sweep* serially into the store at *store_dir*; its keys."""
    from repro.runtime.cache import KeyDeriver
    from repro.runtime.executor import run_jobs

    specs = sweep.expand()
    run_jobs(specs, store=ShardedStore(store_dir))
    deriver = KeyDeriver()
    return [deriver.key_for(spec) for spec in specs]


def shard_sizes(store_dir):
    return {p.name: p.stat().st_size for p in store_dir.glob("shard-*.rbin")}


class TestStoreVisibility:
    """The service refreshes its store once per submission: a submission
    sees the store as of its start, plus the service's own appends."""

    def test_append_by_another_handle_before_submit_is_a_hit(self, tmp_path):
        store_dir = tmp_path / "store"
        first, later = small_sweep(seeds=(0, 1)), small_sweep(seeds=(2, 3))
        serial_keys(first, store_dir)
        with SweepService(store_dir=store_dir, heartbeat=2.0) as svc:
            # The service's handle indexes the store as it is now...
            _records, verdict = raw_run(svc, first)
            assert verdict["executed"] == 0 and verdict["hits"] == 2
            # ...then a second handle appends, with no worker connected.
            serial_keys(later, store_dir)
            records, verdict = raw_run(svc, later)
        assert verdict["ok"] and verdict["executed"] == 0
        assert verdict["hits"] == 2
        assert [f["index"] for f in records] == [0, 1]

    def test_append_during_a_submit_is_served_by_the_next(
        self, tmp_path, monkeypatch
    ):
        import repro.runtime.service as service_mod

        store_dir = tmp_path / "store"
        current, next_sweep = small_sweep(seeds=(0, 1)), small_sweep(seeds=(2,))
        serial_keys(current, store_dir)
        probe = service_mod._store_payload
        appended = []

        def appending_probe(store, key):
            if not appended:  # mid-submit: another handle appends
                appended.extend(serial_keys(next_sweep, store_dir))
            return probe(store, key)

        monkeypatch.setattr(service_mod, "_store_payload", appending_probe)
        with SweepService(store_dir=store_dir, heartbeat=2.0) as svc:
            _records, verdict = raw_run(svc, current)
            assert appended and verdict["executed"] == 0
            records, verdict = raw_run(svc, next_sweep)
        assert verdict["ok"] and verdict["executed"] == 0
        assert verdict["hits"] == len(records) == 1

    @pytest.mark.parametrize("regrow", [False, True])
    def test_compaction_between_submits_never_serves_a_wrong_record(
        self, tmp_path, monkeypatch, regrow
    ):
        """Another handle compacts the store under the service's index.

        The first submission indexes the store but reads no record from
        it (its one job is a miss), so the service holds no map of the
        old files.  *regrow*: the other handle then appends until no
        shard is smaller than the service scanned it, so the refresh
        keeps the stale index and the reads must rebuild it."""
        import repro.runtime.store as store_mod

        store_dir = tmp_path / "store"
        sweep = small_sweep(ns=(36, 64), seeds=(0, 1, 2))
        fresh = small_sweep(seeds=(7,))
        reference = Client().run(sweep)
        keys = serial_keys(sweep, store_dir)
        other = ShardedStore(store_dir)
        for key in keys:  # dead duplicates: compaction moves every entry
            other.put_raw(key, other.get_raw(key))
        resets = []
        reset = store_mod._Shard.reset

        def counting_reset(shard):
            resets.append(shard.name)
            reset(shard)

        monkeypatch.setattr(store_mod._Shard, "reset", counting_reset)
        with SweepService(store_dir=store_dir, heartbeat=2.0) as svc:
            start_worker(svc)
            assert Client(endpoint=svc.endpoint).run(fresh) == Client().run(fresh)
            scanned = shard_sizes(store_dir)
            other.compact()
            filler = 0
            while regrow and any(
                shard_sizes(store_dir).get(name, 0) < size
                for name, size in scanned.items()
            ):
                other.put(f"filler-{filler}", {"filler": filler, "pad": "x" * 40})
                filler += 1
            resets.clear()
            records, verdict = raw_run(svc, sweep)
            assert Client(endpoint=svc.endpoint).run(sweep) == reference
        assert verdict["ok"] and verdict["executed"] == 0
        assert len(records) == sweep.size
        assert resets  # the stale index was noticed and rebuilt
