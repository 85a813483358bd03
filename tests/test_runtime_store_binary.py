"""Binary shard format: raw bytes, directory contents, torn tails.

The companion of ``test_runtime_store.py``: that file pins the store's
record-level contract; this one pins the on-disk format -- the
``store.json`` format check, raw-bytes append/read (the zero-copy
splice the wire protocol rides), the files a store directory holds,
torn-tail and garbage recovery on data and meta shards (including a
property test over every truncation offset), and the concurrent
writer and GC-during-write suites on binary shards.
"""

from __future__ import annotations

import json
import multiprocessing
import struct
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.store as store_mod
from repro.runtime import ShardedStore
from repro.runtime.codec import (
    ShapeRegistry,
    UnknownShapeError,
    decode_record,
    encode_record,
    scan_entries,
)
from repro.runtime.store import count_record_entries

# -- store.json format check --------------------------------------------------


def test_invalid_format_rejected(tmp_path):
    for fmt in ("parquet", "jsonl"):  # jsonl: the retired line format
        root = tmp_path / fmt
        root.mkdir()
        (root / "store.json").write_text(
            json.dumps({"version": 2, "shards": 2, "format": fmt})
        )
        with pytest.raises(ValueError, match="unknown store format"):
            ShardedStore(root)


def test_store_json_declares_rbin(tmp_path):
    ShardedStore(tmp_path / "s", shards=3).put("k", {"v": 1})
    meta = json.loads((tmp_path / "s" / "store.json").read_text())
    assert meta["format"] == "rbin" and meta["shards"] == 3
    assert ShardedStore(tmp_path / "s").get("k") == {"v": 1}


# -- raw byte append / read (the zero-copy splice) ----------------------------


def test_put_raw_get_raw_round_trip(tmp_path):
    store = ShardedStore(tmp_path / "s")
    record = {"rounds": 12, "planar": True, "eps": 0.5}
    payload, _shape = encode_record(record)
    store.put_raw("k", payload)
    assert bytes(store.get_raw("k")) == payload
    assert store.get("k") == record
    # and the raw bytes a fresh process reads back are the same bytes
    assert bytes(ShardedStore(tmp_path / "s").get_raw("k")) == payload


def test_put_raw_rejects_unregistered_shape(tmp_path):
    store = ShardedStore(tmp_path / "s")
    foreign = ShapeRegistry()
    payload, _shape = encode_record({"zz": 1}, foreign)
    # the shape never reached the process-global registry via a wire
    # frame or a shard scan: appending would write undecodable bytes
    local_payload = bytes(payload[:8][::-1]) + payload[8:]  # unknown id
    with pytest.raises(UnknownShapeError):
        store.put_raw("k", local_payload)


# -- compaction ---------------------------------------------------------------


def _fill(store, count=30):
    expected = {}
    for i in range(count):
        record = {"v": i, "family": "grid", "rounds": float(i) / 3}
        store.put(f"key-{i}", record)
        expected[f"key-{i}"] = record
    store.put_meta("cost:test:36", {"kind": "test", "n": 36, "count": 2.0,
                                    "total_s": 1.0, "mean_s": 0.5})
    return expected


def test_compaction_preserves_records_and_stamps(tmp_path, monkeypatch):
    """A bound-less GC is the one rewrite: newest-wins, stamps kept."""
    monkeypatch.setattr(store_mod, "COMPACT_FACTOR", 100.0)
    store = ShardedStore(tmp_path / "s", shards=2)
    expected = _fill(store)
    store.put("key-0", expected["key-0"])  # a dead duplicate to drop
    stamps = {key: stamp for key, stamp, _r in store.dump()}
    report = store.gc()
    assert report.entries_kept == len(expected)
    assert count_record_entries(tmp_path / "s") == len(expected)
    fresh = ShardedStore(tmp_path / "s")
    assert {key: record for key, _s, record in fresh.dump()} == expected
    assert {key: stamp for key, stamp, _r in fresh.dump()} == stamps
    assert fresh.get_meta("cost:test:36")["mean_s"] == 0.5
    for key in expected:
        assert fresh.get_raw(key) is not None


# -- directory contents -------------------------------------------------------


def _store_files(root):
    return {p.name for p in Path(root).iterdir()}


def _only_store_files(root) -> bool:
    return all(
        name == "store.json" or name.endswith((".rbin", ".lock"))
        for name in _store_files(root)
    )


def test_store_directory_holds_only_json_rbin_and_lock(tmp_path):
    root = tmp_path / "s"
    store = ShardedStore(root, shards=2)
    _fill(store, count=20)
    assert _only_store_files(root)
    store.put("key-0", {"v": -1})
    store.compact()
    assert _only_store_files(root)
    store.gc(ttl=3600.0)
    store.gc()
    assert _only_store_files(root)
    store.clear()
    assert _only_store_files(root)
    assert not any(name.startswith("shard-") and name.endswith(".rbin")
                   for name in _store_files(root))


def test_leftover_idx_files_are_never_read(tmp_path):
    """A store an older version compacted keeps its ``shard-SS.idx``
    sidecars.  Each one here claims a well-formed, empty index for its
    shard (magic, covered size, head echo); a reader that trusted it
    would lose every key."""
    root = tmp_path / "s"
    store = ShardedStore(root, shards=2)
    expected = _fill(store, count=20)
    store.gc()
    for shard in root.glob("shard-*.rbin"):
        data = shard.read_bytes()
        head = data[:16]
        sidecar = b"RIDX\x01" + struct.pack(
            "<QB16s", len(data), len(head), head.ljust(16, b"\x00")
        )
        shard.with_suffix(".idx").write_bytes(sidecar + b"\x00\x00")
    fresh = ShardedStore(root)
    assert len(fresh) == len(expected)
    for key, record in expected.items():
        assert fresh.get(key) == record


@pytest.mark.parametrize("rewrite", ["compact", "clear"])
def test_rewrite_deletes_leftover_idx_files(tmp_path, rewrite):
    """Sidecars an older version left beside a data shard and the
    metadata shard go with the next rewrite of their shard."""
    root = tmp_path / "s"
    store = ShardedStore(root, shards=2)
    _fill(store, count=20)
    store.put_meta("cost:test:36", {"count": 1})
    stray = [root / "shard-00.idx", root / "meta-00.idx"]
    for path in stray:
        path.write_bytes(b"RIDX\x01")
    getattr(store, rewrite)()
    assert not [path.name for path in stray if path.exists()]
    assert _only_store_files(root)
    assert store.get_meta("cost:test:36") == {"count": 1}


def test_fresh_open_after_rewrite_and_appends_serves_every_key(tmp_path):
    store = ShardedStore(tmp_path / "s", shards=1)
    _fill(store, count=10)
    store.gc()
    store.put("late", {"v": 99})
    fresh = ShardedStore(tmp_path / "s")
    assert fresh.get("late") == {"v": 99}
    for i in range(10):
        assert fresh.get(f"key-{i}") is not None


# -- torn tails and corruption ------------------------------------------------


def test_torn_binary_tail_degrades_to_miss(tmp_path):
    store = ShardedStore(tmp_path / "s", shards=1)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    path = tmp_path / "s" / "shard-00.rbin"
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])  # crash mid-append on the last entry
    fresh = ShardedStore(tmp_path / "s")
    assert fresh.get("a") == {"v": 1}
    assert fresh.get("b") is None  # torn, not resurrected
    fresh.put("b", {"v": 3})  # overwrite repairs the shard
    assert ShardedStore(tmp_path / "s").get("b") == {"v": 3}


def test_garbage_between_entries_resyncs(tmp_path):
    store = ShardedStore(tmp_path / "s", shards=1)
    store.put("a", {"v": 1})
    path = tmp_path / "s" / "shard-00.rbin"
    with path.open("ab") as handle:
        handle.write(b"\x00\xffgarbage-from-a-crashed-writer")
    store2 = ShardedStore(tmp_path / "s")
    store2.put("b", {"v": 2})
    fresh = ShardedStore(tmp_path / "s")
    assert fresh.get("a") == {"v": 1}
    assert fresh.get("b") == {"v": 2}


def test_torn_meta_tail_degrades_to_miss(tmp_path):
    """A meta append after a crashed writer's torn entry must not let
    the torn header swallow the new entry's bytes as its body."""
    root = tmp_path / "s"
    store = ShardedStore(root, shards=1)
    store.put_meta("a", {"v": 1})
    store.put_meta("torn", {"v": 2})
    path = root / "meta-00.rbin"
    path.write_bytes(path.read_bytes()[:-3])  # crash mid-append
    ShardedStore(root).put_meta("b", {"v": 3})  # a fresh writer
    fresh = ShardedStore(root)
    assert fresh.get_meta("torn") is None
    assert fresh.get_meta("a") == {"v": 1}
    assert fresh.get_meta("b") == {"v": 3}


# Two record shapes, so a cut can fall inside either shape definition.
_TORN_RECORDS = {
    f"k{i}": (
        {"v": i, "rounds": i * 7}
        if i % 2
        else {"family": "grid", "eps": i / 8, "planar": bool(i % 3)}
    )
    for i in range(7)
}


@settings(max_examples=25, deadline=None)
@given(
    cut=st.floats(min_value=0.0, max_value=1.0),
    junk=st.binary(max_size=32),
)
def test_truncated_shard_serves_intact_keys_only(cut, junk):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "s"
        store = ShardedStore(root, shards=1)
        for key, record in _TORN_RECORDS.items():
            store.put(key, record)
        path = root / "shard-00.rbin"
        data = path.read_bytes()
        entries, _ = scan_entries(data, 0, len(data), ShapeRegistry())
        offset = int(cut * len(data))
        intact = {e.key for e in entries if e.offset + e.length <= offset}
        path.write_bytes(data[:offset])
        (root / "shard-00.idx").write_bytes(b"RIDX\x01" + junk)

        fresh = ShardedStore(root)
        for key, record in _TORN_RECORDS.items():
            assert fresh.get(key) == (record if key in intact else None)
        assert len(fresh) == len(intact)

        lost = sorted(set(_TORN_RECORDS) - intact)
        if lost:
            ShardedStore(root).put(lost[0], _TORN_RECORDS[lost[0]])
            intact.add(lost[0])
        reopened = ShardedStore(root)
        for key in intact:
            assert reopened.get(key) == _TORN_RECORDS[key]
        assert len(reopened) == len(intact)


@pytest.mark.xfail(
    strict=True,
    reason="the entry checksum covers only the header's length field; "
    "catching a damaged payload needs a body checksum (a format change)",
)
def test_flipped_payload_byte_never_reads_as_a_record(tmp_path):
    store = ShardedStore(tmp_path / "s", shards=1)
    store.put("k", {"rounds": 1234})
    path = tmp_path / "s" / "shard-00.rbin"
    blob = bytearray(path.read_bytes())
    blob[-4] ^= 0x01  # the low byte of the int column: 1234 -> 1235
    path.write_bytes(bytes(blob))
    assert ShardedStore(tmp_path / "s").get("k") in ({"rounds": 1234}, None)


# -- concurrent writers -------------------------------------------------------


def _bin_writer_process(root, start, barrier, count):
    store = ShardedStore(root, shards=2)
    barrier.wait()  # maximize interleaving
    for index in range(start, start + count):
        store.put(f"key-{index}", {"writer": start, "v": index})


def test_concurrent_binary_writers_share_one_index(tmp_path):
    root = tmp_path / "s"
    ShardedStore(root, shards=2).put("seed", {"v": -1})
    count = 200
    barrier = multiprocessing.Barrier(2)
    procs = [
        multiprocessing.Process(
            target=_bin_writer_process, args=(root, start, barrier, count)
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
    # every persisted entry parses: no interleaved or torn appends
    assert count_record_entries(root) == 2 * count + 1


def test_concurrent_binary_writer_during_gc_loses_nothing(tmp_path):
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
    assert reader.get("seed") == {"v": -1}

def test_raw_appends_decode_identically_cross_process(tmp_path):
    """put_raw bytes written by one process decode in another purely
    from the shard stream (shape defs travel inside the file)."""
    payloads = {}
    store = ShardedStore(tmp_path / "s")
    for i in range(10):
        record = {"idx": i, "label": f"r{i}", "frac": i / 7}
        payload, _shape = encode_record(record)
        store.put_raw(f"k{i}", payload)
        payloads[f"k{i}"] = (payload, record)

    def reader_process(root, queue):
        peer = ShardedStore(root)
        raws = {}
        for i in range(10):
            raw = peer.get_raw(f"k{i}")
            raws[f"k{i}"] = bytes(raw) if raw is not None else None
        queue.put(raws)

    queue = multiprocessing.Queue()
    proc = multiprocessing.Process(
        target=reader_process, args=(tmp_path / "s", queue)
    )
    proc.start()
    raws = queue.get(timeout=30)
    proc.join()
    assert proc.exitcode == 0
    for key, (payload, record) in payloads.items():
        assert raws[key] == payload
        assert decode_record(raws[key]) == record
