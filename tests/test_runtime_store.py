"""Sharded single-index disk store (repro.runtime.store)."""

from __future__ import annotations

import multiprocessing
import time

import pytest

import repro.runtime.store as store_mod
from repro.cli import main
from repro.runtime import JobSpec, ShardedStore, run_jobs
from repro.runtime.store import count_record_entries, shard_of_key

def test_round_trip_and_miss(tmp_path):
    store = ShardedStore(tmp_path / "s")
    assert store.get("missing") is None
    store.put("k1", {"rounds": 7, "ok": True})
    assert store.get("k1") == {"rounds": 7, "ok": True}
    assert len(store) == 1
    assert store.stats.appends == 1
    assert store.stats.hits == 1

def test_newest_wins_and_compaction(tmp_path):
    store = ShardedStore(tmp_path / "s", shards=1)
    for version in range(5):
        store.put("k", {"v": version})
    assert store.get("k") == {"v": 4}
    report = store.compact()
    assert report.entries_removed == 0  # dedup is not eviction
    assert report.bytes_reclaimed > 0  # four stale entries dropped
    # The shard file now holds exactly one live entry.
    assert count_record_entries(tmp_path / "s") == 1
    assert store.get("k") == {"v": 4}

def test_fresh_instance_reads_existing_store(tmp_path):
    first = ShardedStore(tmp_path / "s", shards=4)
    first.put("a", {"v": 1})
    second = ShardedStore(tmp_path / "s")
    assert second.shards == 4  # persisted in store.json
    assert second.get("a") == {"v": 1}

def test_incremental_refresh_sees_other_writers(tmp_path):
    writer = ShardedStore(tmp_path / "s", shards=1)
    reader = ShardedStore(tmp_path / "s", shards=1)
    writer.put("a", {"v": 1})
    assert reader.get("a") == {"v": 1}
    writer.put("b", {"v": 2})  # appended after the reader's first scan
    assert reader.get("b") == {"v": 2}

def test_refresh_sees_a_shard_another_writer_creates(tmp_path):
    """A miss on a shard with no file yet must not hide that shard from
    later lookups: another process may create it."""
    reader = ShardedStore(tmp_path / "s")
    assert reader.get("k") is None
    reader.refresh()
    ShardedStore(tmp_path / "s").put("k", {"v": 1})
    assert reader.get_raw("k", refresh=False) is None  # not refreshed yet
    reader.refresh()
    assert reader.get("k") == {"v": 1}
    assert reader.get_raw("k", refresh=False) is not None


def test_clear_reports_entries_and_bytes(tmp_path):
    store = ShardedStore(tmp_path / "s")
    for index in range(6):
        store.put(f"k{index}", {"v": index})
    report = store.clear()
    assert report.entries_removed == 6
    assert report.bytes_reclaimed > 0
    assert len(store) == 0
    assert store.get("k0") is None

def _writer_process(root, start, barrier, count):
    store = ShardedStore(root, shards=2)
    barrier.wait()  # maximize interleaving
    for index in range(start, start + count):
        store.put(f"key-{index}", {"writer": start, "v": index})

def test_concurrent_writers_share_one_index(tmp_path):
    """Two processes appending to the same shards: no torn or lost lines."""
    root = tmp_path / "s"
    ShardedStore(root, shards=2).put("seed", {"v": -1})
    count = 200
    barrier = multiprocessing.Barrier(2)
    procs = [
        multiprocessing.Process(
            target=_writer_process, args=(root, start, barrier, count)
        )
        for start in (0, count)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
        assert proc.exitcode == 0
    store = ShardedStore(root)
    assert len(store) == 2 * count + 1
    for index in range(2 * count):
        assert store.get(f"key-{index}") == {
            "writer": 0 if index < count else count,
            "v": index,
        }
    # Every persisted entry parses (no interleaved or torn writes):
    # one physical record per append, nothing lost to resync.
    assert count_record_entries(root) == 2 * count + 1

def _sweep_process(root, queue):
    specs = [
        JobSpec.make("test_planarity", family="grid", n=36, seed=seed,
                     epsilon=0.5)
        for seed in (0, 1)
    ]
    batch = run_jobs(specs, store=ShardedStore(root))
    queue.put((batch.executed, batch.cache_stats.hits))

def test_two_pool_workers_share_hits_from_one_disk_index(tmp_path):
    """Acceptance: a second process is served from the first's entries."""
    root = tmp_path / "cache"
    ctx = multiprocessing.get_context()
    queue = ctx.Queue()
    first = ctx.Process(target=_sweep_process, args=(root, queue))
    first.start()
    first.join()
    assert first.exitcode == 0
    executed, hits = queue.get()
    assert executed == 2 and hits == 0
    second = ctx.Process(target=_sweep_process, args=(root, queue))
    second.start()
    second.join()
    assert second.exitcode == 0
    executed, hits = queue.get()
    assert executed == 0 and hits == 2  # shared via the on-disk index

def test_shard_placement_is_stable():
    assert shard_of_key("abc", 8) == shard_of_key("abc", 8)
    spread = {shard_of_key(f"key-{i}", 8) for i in range(64)}
    assert len(spread) > 1  # keys actually spread over shards

class TestGC:
    def _clocked_store(self, tmp_path, monkeypatch, shards=1):
        clock = {"t": 1000.0}
        monkeypatch.setattr(store_mod, "_now", lambda: clock["t"])
        return ShardedStore(tmp_path / "s", shards=shards), clock

    def test_ttl_expires_old_entries(self, tmp_path, monkeypatch):
        store, clock = self._clocked_store(tmp_path, monkeypatch, shards=2)
        store.put("old-a", {"v": 1})
        store.put("old-b", {"v": 2})
        clock["t"] = 2000.0
        store.put("fresh", {"v": 3})
        report = store.gc(ttl=500.0, now=2100.0)
        assert report.entries_removed == 2
        assert report.expired_entries == 2
        assert report.bytes_reclaimed > 0
        assert store.get("old-a") is None
        assert store.get("old-b") is None
        assert store.get("fresh") == {"v": 3}
        # A fresh process agrees (the rewrite is on disk, not in-index).
        assert ShardedStore(tmp_path / "s").get("old-a") is None

    def test_max_bytes_keeps_newest_first(self, tmp_path, monkeypatch):
        store, clock = self._clocked_store(tmp_path, monkeypatch)
        for index in range(10):
            clock["t"] = 1000.0 + index
            store.put(f"k{index}", {"v": index})
        live = store._scan_live(store._shards[0])
        budget = sum(live[f"k{i}"][1] for i in (9, 8, 7))
        report = store.gc(max_bytes=budget, now=2000.0)
        assert report.evicted_entries == 7
        assert report.entries_kept == 3
        # Newest-wins retention: exactly the three youngest survive.
        assert sorted(store.keys()) == ["k7", "k8", "k9"]
        assert report.bytes_kept == budget

    def test_gc_without_bounds_is_compaction(self, tmp_path):
        store = ShardedStore(tmp_path / "s", shards=1)
        for version in range(5):
            store.put("k", {"v": version})
        report = store.gc()
        assert report.entries_removed == 0
        assert report.bytes_reclaimed > 0  # four dead duplicates dropped
        assert store.get("k") == {"v": 4}

    def test_concurrent_writer_during_gc_loses_nothing(self, tmp_path):
        import threading

        store = ShardedStore(tmp_path / "s", shards=2)
        store.put("seed", {"v": -1})
        stop = threading.Event()
        written = []

        def writer():
            peer = ShardedStore(tmp_path / "s")
            index = 0
            while not stop.is_set() and index < 300:
                peer.put(f"w{index}", {"v": index})
                written.append(f"w{index}")
                index += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(10):
                store.gc(ttl=3600.0)
        finally:
            stop.set()
            thread.join()
        store.gc(ttl=3600.0)
        reader = ShardedStore(tmp_path / "s")
        for key in written:
            assert reader.get(key) is not None, f"gc lost {key}"

    def test_entries_appended_mid_gc_survive_snapshot(
        self, tmp_path, monkeypatch
    ):
        """An entry stamped after the GC snapshot is always retained,
        even when the TTL would nominally cover it."""
        store = ShardedStore(tmp_path / "s", shards=1)
        store.put("early", {"v": 0})
        # now= places the snapshot before the append's real timestamp.
        report = store.gc(ttl=0.000001, now=0.5)
        assert report.entries_removed == 0
        assert store.get("early") == {"v": 0}

    def test_gc_updates_store_stats(self, tmp_path, monkeypatch):
        store, clock = self._clocked_store(tmp_path, monkeypatch)
        store.put("a", {"v": 1})
        clock["t"] = 5000.0
        store.put("b", {"v": 2})
        report = store.gc(ttl=10.0, now=5001.0)
        assert report.entries_removed == 1
        assert store.stats.evicted_entries >= 1
        assert store.stats.bytes_reclaimed >= report.bytes_reclaimed

    def test_grace_window_shields_recent_entries(self, tmp_path, monkeypatch):
        """Entries inside the grace window survive any TTL/byte bound:
        the cross-host clock-skew guard for concurrent fleet writers."""
        store, clock = self._clocked_store(tmp_path, monkeypatch)
        store.put("recent", {"v": 1})
        # TTL nominally condemns it, but it is only 5s old vs grace=60.
        report = store.gc(ttl=0.001, now=1005.0)
        assert report.entries_removed == 0
        assert store.get("recent") == {"v": 1}
        # Outside the grace window the same TTL collects it.
        report = store.gc(ttl=0.001, now=2000.0)
        assert report.entries_removed == 1
        assert store.get("recent") is None

    @pytest.mark.parametrize("bound", [{"ttl": -1.0}, {"max_bytes": -1}])
    def test_negative_bound_rejected(self, tmp_path, bound):
        """A negative TTL or byte budget is an error, not "collect
        everything outside the grace window"."""
        store = ShardedStore(tmp_path / "s", shards=1)
        for index in range(5):
            store.put(f"k{index}", {"v": index})
        with pytest.raises(ValueError, match="must be >= 0"):
            store.gc(now=time.time() + 3600.0, **bound)
        assert len(ShardedStore(tmp_path / "s")) == 5

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--max-bytes", "-1", "--grace", "0"],
            ["--ttl", "-1", "--grace", "0"],
            ["--ttl", "3600", "--grace", "-1"],
        ],
    )
    def test_cli_rejects_negative_bounds(self, tmp_path, capsys, bounds):
        root = tmp_path / "s"
        store = ShardedStore(root, shards=1)
        for index in range(5):
            store.put(f"k{index}", {"v": index})
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", "--cache-dir", str(root)] + bounds)
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert len(ShardedStore(root)) == 5

    def test_gc_compacts_meta_shard(self, tmp_path):
        store = ShardedStore(tmp_path / "s", shards=1)
        for version in range(20):
            store.put_meta("cost:k:10", {"count": version})
        meta_path = tmp_path / "s" / "meta-00.rbin"
        grown = meta_path.stat().st_size
        report = store.gc()
        assert meta_path.stat().st_size < grown
        assert report.bytes_reclaimed > 0
        assert store.get_meta("cost:k:10") == {"count": 19}
        assert list(store.meta_keys()) == ["cost:k:10"]

    def test_usage_reports_live_and_reclaimable(self, tmp_path, monkeypatch):
        # COMPACT_FACTOR high enough that the duplicates stay on disk.
        monkeypatch.setattr(store_mod, "COMPACT_FACTOR", 100.0)
        store = ShardedStore(tmp_path / "s", shards=1)
        for version in range(4):
            store.put("dup", {"v": version})
        usage = store.usage()
        assert usage["entries"] == 1
        assert usage["file_bytes"] > usage["live_bytes"] > 0
        # The three dead entries; the live one and its shape definition
        # stay.
        length = store._scan_live(store._shards[0])["dup"][1]
        assert usage["reclaimable_bytes"] == 3 * length
        assert usage["newest_t"] >= usage["oldest_t"] > 0

    def test_reclaimable_is_what_compaction_reclaims(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod, "COMPACT_FACTOR", 100.0)
        store = ShardedStore(tmp_path / "s", shards=2)
        for index in range(12):
            store.put(f"k{index}", {"v": index, "tag": "a" * (index % 3)})
        store.put("k0", {"v": -1, "tag": ""})
        before = store.usage()["reclaimable_bytes"]
        assert before == store.compact().bytes_reclaimed > 0
        assert store.usage()["reclaimable_bytes"] == 0
        # One overwritten key leaves exactly its dead entry behind.
        live = {}
        for shard in store._shards:
            live.update(store._scan_live(shard))
        store.put("k5", {"v": 55, "tag": "aa"})
        assert store.usage()["reclaimable_bytes"] == live["k5"][1]

class TestMetaShard:
    def test_round_trip_and_isolation(self, tmp_path):
        store = ShardedStore(tmp_path / "s", shards=2)
        store.put("data-key", {"v": 1})
        store.put_meta("cost:test:64", {"count": 2, "mean_s": 0.5})
        assert store.get_meta("cost:test:64") == {"count": 2, "mean_s": 0.5}
        assert list(store.meta_keys()) == ["cost:test:64"]
        # Meta entries never leak into the data surface, or vice versa.
        assert len(store) == 1
        assert list(store.keys()) == ["data-key"]
        assert store.get("cost:test:64") is None
        assert store.get_meta("data-key") is None

    def test_newest_wins_and_cross_process(self, tmp_path):
        first = ShardedStore(tmp_path / "s")
        first.put_meta("cell", {"count": 1})
        first.put_meta("cell", {"count": 2})
        second = ShardedStore(tmp_path / "s")
        assert second.get_meta("cell") == {"count": 2}

    def test_meta_survives_gc(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod, "_now", lambda: 100.0)
        store = ShardedStore(tmp_path / "s")
        store.put("data", {"v": 1})
        store.put_meta("cost:k:10", {"mean_s": 1.0})
        report = store.gc(ttl=1.0, now=10_000.0)
        assert report.entries_removed == 1  # the data entry expired
        assert store.get_meta("cost:k:10") == {"mean_s": 1.0}
