"""E18 -- binary columnar store + zero-copy wire format vs JSONL.

Claim reproduced (engineering, not paper): packing fleet records into
shape-addressed binary entries makes every byte-bound runtime path
cheaper than the legacy JSONL encoding while decoding to identical
records.  Four legs, each gated against the JSONL control on the same
record population:

* **resume merge** -- a fresh store open scans every shard to rebuild
  the key index (the ``sweep --resume`` hot path).  Binary scans read
  7-byte entry headers and skip the payloads; JSONL must
  ``json.loads`` every line.  Gate: >= 3x.
* **GC / compaction** -- newest-wins shard rewrites splice entry bytes
  for binary sources; JSONL parses and re-serializes each survivor.
  Gate: >= 3x.
* **shard bytes** -- live on-disk footprint after compaction.
  Gate: >= 2x smaller.
* **wire bytes** -- one result frame per record, binary
  length-prefixed frames with packed payloads vs the retired
  JSON-line protocol.  Gate: >= 2x smaller.

Decode identity across formats is part of the claim: both stores must
dump equal ``(key, record)`` pairs.  The runtime store is binary-only;
the JSONL side is the test-only control in ``_jsonl_control.py``,
which does the work the retired JSONL store did on each leg.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time

import pytest

from _harness import paired_best, quick_mode, save_table
from _jsonl_control import JsonlControl
from repro.analysis.tables import Table
from repro.runtime import ShardedStore
from repro.runtime.codec import (
    GLOBAL_SHAPES,
    encode_record,
    encode_wire_frame,
    frame_shapes,
)

ENTRIES = 1500 if quick_mode() else 6000
REPEATS = 3 if quick_mode() else 7
SHARDS = 4
RESUME_GATE = 3.0
GC_GATE = 3.0
SHARD_BYTES_GATE = 2.0
WIRE_BYTES_GATE = 2.0

FAMILIES = ("grid", "triangulation", "erdos_renyi")
EPSILONS = (0.5, 0.25, 0.125)


def _key(i: int) -> str:
    return hashlib.sha256(b"e18:%d" % i).hexdigest()


def _record(i: int) -> dict:
    """A sweep-shaped record: the field mix real stores hold."""
    n = 64 + (i % 40) * 16
    return {
        "kind": "test_planarity",
        "family": FAMILIES[i % 3],
        "n": n,
        "seed": i % 25,
        "graph_seed": i % 25,
        "epsilon": EPSILONS[i % 3],
        "far": (i % 3) == 0,
        "planar": (i % 3) != 0,
        "accepted": (i % 5) != 0,
        "rounds": 2 + (i % 7) + (i % 89) / 89.0,
        "queries": 12 * n + i % 97,
        "messages": 40 * n + i % 1013,
        "seconds": (i % 211 + 1) / 8191.0,
        "method": "combinatorial" if i % 2 else "kuratowski",
        "fingerprint": hashlib.sha256(b"g:%d" % (i % 50)).hexdigest(),
        "config_digest": hashlib.sha256(b"c:%d" % (i % 9)).hexdigest(),
    }


def _data_bytes(root) -> int:
    suffixes = (".rbin", ".jsonl")
    return sum(
        p.stat().st_size
        for p in root.iterdir()
        if p.suffix in suffixes
    )


OPENERS = {"jsonl": JsonlControl, "rbin": ShardedStore}


def _time_resume(fmt, root) -> float:
    start = time.perf_counter()
    reopened = OPENERS[fmt](root, shards=SHARDS)
    count = len(reopened)  # forces the full shard scan
    elapsed = time.perf_counter() - start
    assert count == ENTRIES
    return elapsed


def _gc(store) -> int:
    """Bound-less GC (newest-wins rewrite); returns bytes reclaimed."""
    if isinstance(store, JsonlControl):
        return store.gc()
    return store.gc(ttl=None, max_bytes=None).bytes_reclaimed


def _time_gc(fmt, root, tmp_path, rep: int) -> float:
    copy = tmp_path / f"gc-{root.name}-{rep}"
    shutil.copytree(root, copy)
    victim = OPENERS[fmt](copy, shards=SHARDS)
    start = time.perf_counter()
    reclaimed = _gc(victim)
    elapsed = time.perf_counter() - start
    assert reclaimed > 0  # the dups really burned off
    return elapsed


def _wire_bytes_binary(records) -> int:
    sent = set()
    total = 0
    for i, record in enumerate(records):
        payload, _shape = encode_record(record, GLOBAL_SHAPES)
        frame = {
            "op": "result",
            "id": i,
            "key": _key(i),
            "record_pkd": payload,
            "seconds": 0.01,
            "hit": False,
            "shapes": frame_shapes(iter((payload,)), sent, GLOBAL_SHAPES),
        }
        total += len(encode_wire_frame(frame))
    return total


def _wire_bytes_json(records) -> int:
    total = 0
    for i, record in enumerate(records):
        line = json.dumps(
            {
                "op": "result",
                "id": i,
                "key": _key(i),
                "record": record,
                "seconds": 0.01,
                "hit": False,
            },
            separators=(",", ":"),
        )
        total += len(line.encode("utf-8")) + 1
    return total


@pytest.fixture(scope="module")
def store_wire_table(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e18")
    roots = {}
    for fmt in ("jsonl", "rbin"):
        root = tmp_path / fmt
        store = OPENERS[fmt](root, shards=SHARDS)
        for i in range(ENTRIES):
            store.put(_key(i), _record(i))
        # Every key again, newer: the GC leg then times one newest-wins
        # rewrite of a half-dead file.  Two appends per live key stay
        # below the automatic compaction trigger (COMPACT_FACTOR: appends
        # reaching 4x the live count), so these puts never compact.
        for i in range(ENTRIES):
            store.put(_key(i), _record(i))
        roots[fmt] = root
    resume_s = paired_best(
        {
            fmt: lambda _rep, f=fmt, r=root: _time_resume(f, r)
            for fmt, root in roots.items()
        },
        REPEATS,
    )
    gc_s = paired_best(
        {
            fmt: lambda rep, f=fmt, r=root: _time_gc(f, r, tmp_path, rep)
            for fmt, root in roots.items()
        },
        REPEATS,
    )
    shard_bytes = {}
    for fmt, root in roots.items():
        # Footprint after compaction: live entries only.
        _gc(OPENERS[fmt](root, shards=SHARDS))
        shard_bytes[fmt] = _data_bytes(root)

    records = [_record(i) for i in range(ENTRIES)]
    wire_bytes = {
        "jsonl": _wire_bytes_json(records),
        "rbin": _wire_bytes_binary(records),
    }

    ratios = {
        "resume_speedup": resume_s["jsonl"] / resume_s["rbin"],
        "gc_speedup": gc_s["jsonl"] / gc_s["rbin"],
        "shard_bytes_ratio": shard_bytes["jsonl"] / shard_bytes["rbin"],
        "wire_bytes_ratio": wire_bytes["jsonl"] / wire_bytes["rbin"],
    }

    dumps = {
        fmt: sorted(OPENERS[fmt](root, shards=SHARDS).dump())
        for fmt, root in roots.items()
    }

    table = Table(
        f"E18: binary store + wire vs JSONL ({ENTRIES} records, "
        f"{SHARDS} shards, best of {REPEATS})",
        ["format", "resume ms", "gc ms", "shard KiB", "wire KiB"],
    )
    for fmt in ("jsonl", "rbin"):
        table.add_row(
            fmt,
            round(resume_s[fmt] * 1e3, 2),
            round(gc_s[fmt] * 1e3, 2),
            round(shard_bytes[fmt] / 1024, 1),
            round(wire_bytes[fmt] / 1024, 1),
        )
    table.add_row(
        "jsonl/rbin",
        f"{ratios['resume_speedup']:.2f}x",
        f"{ratios['gc_speedup']:.2f}x",
        f"{ratios['shard_bytes_ratio']:.2f}x",
        f"{ratios['wire_bytes_ratio']:.2f}x",
    )

    save_table(
        table,
        "e18_store_wire.md",
        metrics={
            "entries": ENTRIES,
            "shards": SHARDS,
            "repeats": REPEATS,
            "resume_jsonl_s": round(resume_s["jsonl"], 6),
            "resume_rbin_s": round(resume_s["rbin"], 6),
            "gc_jsonl_s": round(gc_s["jsonl"], 6),
            "gc_rbin_s": round(gc_s["rbin"], 6),
            "shard_bytes_jsonl": shard_bytes["jsonl"],
            "shard_bytes_rbin": shard_bytes["rbin"],
            "wire_bytes_jsonl": wire_bytes["jsonl"],
            "wire_bytes_rbin": wire_bytes["rbin"],
            "resume_speedup": round(ratios["resume_speedup"], 3),
            "gc_speedup": round(ratios["gc_speedup"], 3),
            "shard_bytes_ratio": round(ratios["shard_bytes_ratio"], 3),
            "wire_bytes_ratio": round(ratios["wire_bytes_ratio"], 3),
            "resume_gate": RESUME_GATE,
            "gc_gate": GC_GATE,
            "shard_bytes_gate": SHARD_BYTES_GATE,
            "wire_bytes_gate": WIRE_BYTES_GATE,
        },
    )
    return ratios, dumps


def test_resume_scan_at_least_3x(store_wire_table):
    ratios, _dumps = store_wire_table
    speedup = ratios["resume_speedup"]
    assert speedup >= RESUME_GATE, f"resume scan only {speedup:.2f}x"


def test_gc_at_least_3x(store_wire_table):
    ratios, _dumps = store_wire_table
    speedup = ratios["gc_speedup"]
    assert speedup >= GC_GATE, f"gc rewrite only {speedup:.2f}x"


def test_shard_bytes_at_least_2x_smaller(store_wire_table):
    ratios, _dumps = store_wire_table
    ratio = ratios["shard_bytes_ratio"]
    assert ratio >= SHARD_BYTES_GATE, f"shards only {ratio:.2f}x smaller"


def test_wire_bytes_at_least_2x_smaller(store_wire_table):
    ratios, _dumps = store_wire_table
    ratio = ratios["wire_bytes_ratio"]
    assert ratio >= WIRE_BYTES_GATE, f"frames only {ratio:.2f}x smaller"


def test_formats_decode_identically(store_wire_table):
    _ratios, dumps = store_wire_table
    assert len(dumps["rbin"]) == ENTRIES
    jsonl_view = [(key, record) for key, _stamp, record in dumps["jsonl"]]
    rbin_view = [(key, record) for key, _stamp, record in dumps["rbin"]]
    assert jsonl_view == rbin_view
