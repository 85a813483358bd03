"""Sharded on-disk record store: append-only binary shards + an index.

* records append to one of ``shards`` data files (``shard-SS.rbin``,
  packed entries from :mod:`repro.runtime.codec`); the shard is chosen
  by a stable hash of the key, so every process agrees on placement
  without coordination;
* each process keeps a **compact in-memory index** per shard (key ->
  byte offset of the newest entry), built by scanning the shard once
  and refreshed *incrementally*: when another process appends, only
  the new tail is read, never the whole file;
* appends hold an ``fcntl`` exclusive lock on a per-shard lock file,
  so any number of pool workers / CLI invocations / fleet workers can
  write to one store concurrently without tearing entries;
* **zero-parse reads**: lookups memory-map the shard file and slice
  the record payload at its indexed offset; compaction, GC, and
  resume merges splice entry *bytes* between files (shape-packed
  payloads are position-independent, so splicing is safe);
* **zero-copy hand-off**: :meth:`ShardedStore.put_raw` appends an
  already-encoded payload (e.g. bytes received from a remote worker)
  without decode/re-encode, and :meth:`ShardedStore.get_raw` returns
  the stored bytes for the symmetric send path;
* **one rewrite path**: compaction, GC, the metadata shard's dedup and
  ``clear`` all rewrite a shard newest-wins through one locked helper
  that drops dead duplicates (and whatever the caller's keep rule
  rejects) and reports the bytes reclaimed;
* every entry carries an **append timestamp** for TTL/size
  :meth:`ShardedStore.gc`; one **metadata shard** (``meta-00``, same
  append path and locking, exempt from caps/GC) holds small
  operational records.

A store directory holds only ``store.json``, ``*.rbin`` shards and
``*.lock`` files.  (``*.idx`` files an older version wrote beside the
shards are never read; the next rewrite of their shard deletes them.)

Durability model: an entry is the unit of persistence.  A torn entry
(crash mid-append) or a damaged entry header degrades to a miss at
scan time, never to a crash: scans resynchronize on the entry magic +
header checksum, and the next locked append neutralizes a torn tail
before writing after it.  The checksum covers only the header's length
field, not the entry body: a flipped byte inside a stored payload is
not detected and can decode to a wrong value.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

try:  # POSIX advisory locks; other platforms use an O_EXCL lock file.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import telemetry_enabled
from .codec import (
    ENTRY_HEADER_SIZE,
    GLOBAL_SHAPES,
    CorruptEntry,
    ShapeRegistry,
    TruncatedEntry,
    UnknownShapeError,
    decode_record,
    encode_record,
    pack_record_entry,
    pack_shape_entry,
    read_entry,
    scan_entries,
    shape_of_payload,
)

Record = Dict[str, object]

LiveRef = Tuple[int, int, float, int]
"""A live entry's ``(offset, length, stamp, payload_start)`` in its shard."""

DEFAULT_SHARDS = 8

COMPACT_FACTOR = 4.0
"""A shard compacts automatically once its appends since the last
rewrite reach this many times its live entries (the file is mostly dead
newest-wins duplicates) and twice the store's shard count."""

META_SHARD = "meta-00"
"""Basename of the metadata shard (cost tables, operational records)."""

FORMAT_RBIN = "rbin"
"""The record format ``store.json`` declares; the only one there is."""


def _now() -> float:
    """Wall-clock used for entry timestamps (monkeypatchable in tests)."""
    return time.time()


def shard_of_key(key: str, shards: int) -> int:
    """Stable shard placement: independent of Python's hash seed."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass
class StoreStats:
    """Counters for one :class:`ShardedStore` instance."""

    appends: int = 0
    lookups: int = 0
    hits: int = 0
    compactions: int = 0
    evicted_entries: int = 0
    bytes_reclaimed: int = 0


@dataclass
class GCReport:
    """Outcome of one shard rewrite pass (gc, compact or clear).

    ``entries_removed`` counts live entries dropped (TTL-expired plus
    byte-budget evictions, or every entry for ``clear``);
    ``bytes_reclaimed`` additionally includes dead newest-wins
    duplicates rewritten away.
    """

    entries_removed: int = 0
    bytes_reclaimed: int = 0
    entries_kept: int = 0
    bytes_kept: int = 0
    expired_entries: int = 0
    evicted_entries: int = 0

    def __iadd__(self, other: "GCReport") -> "GCReport":
        self.entries_removed += other.entries_removed
        self.bytes_reclaimed += other.bytes_reclaimed
        self.entries_kept += other.entries_kept
        self.bytes_kept += other.bytes_kept
        self.expired_entries += other.expired_entries
        self.evicted_entries += other.evicted_entries
        return self


class _Shard:
    """One logical shard: its data file plus this process's index.

    ``index`` maps key -> byte offset of the newest entry holding it.
    ``scanned_bin`` is how far into the file the index is valid;
    anything past it was appended by another process and is folded in
    lazily.  Reads go through a persistent read-only ``mmap`` so
    steady-state lookups cost a slice, not an ``open``/``seek``/
    ``read`` cycle.
    """

    __slots__ = (
        "name",
        "bin_path",
        "index",
        "scanned_bin",
        "bin_end",
        "shapes_written",
        "appends",
        "_mmap",
    )

    def __init__(self, root: Path, name: str):
        self.name = name
        self.bin_path = root / f"{name}.rbin"
        self.index: Dict[str, int] = {}
        self.scanned_bin = 0
        # Writer-side state: the binary file's size after our last
        # locked append.  A later append that finds the file *smaller*
        # knows another process rewrote it and re-emits shape
        # definitions (duplicates are harmless, missing ones are not).
        self.bin_end = 0
        self.shapes_written: set = set()
        # Appends since the last rewrite: the auto-compaction trigger.
        self.appends = 0
        self._mmap: Optional[mmap.mmap] = None

    def reset(self) -> None:
        """Forget everything scanned; the next refresh starts over."""
        self.index.clear()
        self.scanned_bin = 0
        self.close_mmap()

    # -- file plumbing ----------------------------------------------

    def stat_bin(self) -> int:
        # A missing file is statted again next time: another process
        # may create it.
        try:
            return os.stat(self.bin_path).st_size
        except OSError:
            return 0

    def close_mmap(self) -> None:
        if self._mmap is not None:
            try:
                self._mmap.close()
            except OSError:  # pragma: no cover - close never fails here
                pass
            self._mmap = None

    def remap(self) -> Optional[mmap.mmap]:
        self.close_mmap()
        try:
            with open(self.bin_path, "rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError):  # ValueError: empty file
            self._mmap = None
        return self._mmap

    def ensure_mmap(self, need: int) -> Optional[mmap.mmap]:
        """A read map covering at least ``need`` bytes, if possible."""
        current = self._mmap
        if current is not None and len(current) >= need:
            return current
        return self.remap()

    def bin_entry_at(self, offset: int, registry: ShapeRegistry):
        """Parse the record entry at *offset* via the mmap.

        Returns ``(entry, buf)`` (slice ``buf`` for the payload) or
        ``None`` when the bytes there are not a complete record entry
        -- a stale index, a torn write, or a rewritten file; callers
        treat all three as "rescan and retry".
        """
        for attempt in (0, 1):
            buf = self.ensure_mmap(offset + ENTRY_HEADER_SIZE)
            if buf is None:
                return None
            try:
                entry, _ = read_entry(buf, offset, len(buf), registry)
            except TruncatedEntry:
                if attempt:
                    return None
                # The map may predate an append that completed this
                # entry: remap once and retry.
                self.close_mmap()
                continue
            except CorruptEntry:
                return None
            if entry is None:
                return None
            return entry, buf
        return None  # pragma: no cover - loop always returns

    # -- scanning ---------------------------------------------------

    def refresh(self) -> None:
        """Fold in entries appended since the last scan (cheap when none)."""
        size = self.stat_bin()
        if size < self.scanned_bin:
            # The file vanished or shrank behind our back (clear or
            # compaction in another process): rescan from scratch.
            self.reset()
            size = self.stat_bin()
        if size <= self.scanned_bin:
            return
        try:
            with open(self.bin_path, "rb") as handle:
                handle.seek(self.scanned_bin)
                data = handle.read(size - self.scanned_bin)
        except OSError:
            self.reset()
            return
        base = self.scanned_bin
        entries, scanned = scan_entries(data, 0, len(data), GLOBAL_SHAPES)
        index = self.index
        for entry in entries:
            index[entry.key] = base + entry.offset
        # A trailing truncated entry (writer mid-append) stays
        # unscanned so the next refresh picks it up once complete.
        self.scanned_bin = base + scanned


def count_record_entries(root) -> int:
    """Physical record entries across every data shard file in *root*.

    Counts one per append (newest-wins duplicates included, shape
    definitions and the meta shard excluded) -- tests use it to assert
    how many records actually landed on disk.
    """
    total = 0
    for path in Path(root).glob("shard-*.rbin"):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        entries, _ = scan_entries(data, 0, len(data), ShapeRegistry())
        total += len(entries)
    return total


def _scan(shard: _Shard) -> Tuple[bytes, Dict[str, LiveRef]]:
    """One shard's data file (``b""`` when missing) and its live entries.

    The newest-wins map is ``key -> (offset, length, timestamp,
    payload_start)`` over every complete entry, later entries overriding
    earlier ones.  Entries are parsed header-only -- no payload decode;
    ``payload_start`` is the absolute file offset of the entry's packed
    payload, so a rewrite can splice entry bytes without re-parsing them.
    """
    try:
        data = shard.bin_path.read_bytes()
    except OSError:
        return b"", {}
    entries, _ = scan_entries(data, 0, len(data), GLOBAL_SHAPES)
    live = {
        entry.key: (entry.offset, entry.length, entry.stamp, entry.payload_slice[0])
        for entry in entries
    }
    return data, live


def _splice_plan(
    data: bytes, keep: List[Tuple[str, LiveRef]]
) -> Iterator[Tuple[str, bytes, bytes, int, int]]:
    """What a rewrite of *data* to the *keep* entries writes, in order.

    Yields ``(key, shape_id, shape_entry, start, end)`` per written
    entry: ``shape_entry`` is the shape definition that goes just ahead
    of the shape's first use (``b""`` after it), then ``data[start:end]``
    is the entry itself.  Entries past the end of *data*, or whose shape
    definition is lost, are skipped (they were unreadable in place too).
    """
    shapes_written: set = set()
    for key, (offset, length, _stamp, payload_start) in keep:
        end = offset + length
        if end > len(data):
            continue
        shape_id = data[payload_start : payload_start + 8]
        shape_entry = b""
        if shape_id not in shapes_written:
            shape = GLOBAL_SHAPES.get(shape_id)
            if shape is None:
                continue
            shape_entry = pack_shape_entry(shape.block)
            shapes_written.add(shape_id)
        yield key, shape_id, shape_entry, offset, end


@dataclass
class ShardedStore:
    """Multi-process-safe sharded record store under one directory.

    Args:
        root: store directory; created on first write.
        shards: number of shard files (fixed at creation; persisted in
            ``store.json`` so every opener agrees).

    Raises:
        ValueError: ``store.json`` declares a record format other
            than ``rbin``.
    """

    root: Path
    shards: int = DEFAULT_SHARDS
    stats: StoreStats = field(default_factory=StoreStats)
    _shards: List[_Shard] = field(default_factory=list, repr=False)
    _meta: _Shard = field(init=False, repr=False)

    def __post_init__(self):
        self.root = Path(self.root)
        meta = self.root / "store.json"
        persisted_format: object = FORMAT_RBIN
        if meta.is_file():
            try:
                persisted = json.loads(meta.read_text())
                self.shards = int(persisted.get("shards", self.shards))
                persisted_format = persisted.get("format", FORMAT_RBIN)
            except (ValueError, OSError):
                pass
        if persisted_format != FORMAT_RBIN:
            raise ValueError(
                f"unknown store format {persisted_format!r} in {meta} "
                f"(expected {FORMAT_RBIN!r})"
            )
        self._shards = [
            _Shard(self.root, f"shard-{i:02d}") for i in range(self.shards)
        ]
        self._meta = _Shard(self.root, META_SHARD)

    # -- layout helpers ---------------------------------------------

    def _ensure_root(self) -> None:
        if not self.root.is_dir():
            self.root.mkdir(parents=True, exist_ok=True)
        meta = self.root / "store.json"
        if not meta.is_file():
            tmp = meta.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(
                    {"version": 2, "shards": self.shards, "format": FORMAT_RBIN}
                )
                + "\n"
            )
            os.replace(tmp, meta)

    @contextmanager
    def _lock_named(self, name: str):
        """Exclusive named lock: ``flock`` on POSIX, else O_EXCL file.

        The fallback spins on atomically creating ``.mutex``; a mutex
        older than 30s is presumed leaked by a dead process and
        broken.  Multi-writer appends are therefore serialized on
        every platform.
        """
        self._ensure_root()
        lock_path = self.root / f"{name}.lock"
        if fcntl is not None:
            handle = open(lock_path, "a+b")
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                handle.close()
            return
        mutex = lock_path.with_suffix(".mutex")  # pragma: no cover
        deadline = time.monotonic() + 30.0
        while True:
            try:
                fd = os.open(str(mutex), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                break
            except FileExistsError:
                try:
                    if mutex.stat().st_mtime + 30.0 < time.time():
                        mutex.unlink()  # break a leaked lock
                        continue
                except OSError:
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire store lock {mutex}"
                    ) from None
                time.sleep(0.005)
        try:
            yield
        finally:
            try:
                mutex.unlink()
            except OSError:
                pass

    # -- store API --------------------------------------------------

    def get(self, key: str) -> Optional[Record]:
        """Return the newest record stored under *key*, or ``None``."""
        return self._get(key, raw=False)

    def get_raw(self, key: str, refresh: bool = True) -> Optional[bytes]:
        """The stored binary payload for *key*, or ``None``.

        The service uses this to send cache hits over the wire without
        a decode/encode cycle.  ``refresh=False`` skips the shard's
        ``stat`` and answers from the index as of the last
        :meth:`refresh` plus this handle's own appends (the service
        refreshes once per submission).
        """
        return self._get(key, raw=True, refresh=refresh)

    def refresh(self) -> None:
        """Fold every data shard's new entries into the index."""
        for shard in self._shards:
            shard.refresh()

    def _get(
        self, key: str, raw: bool, refresh: bool = True
    ) -> Optional[object]:
        self.stats.lookups += 1
        shard = self._shards[shard_of_key(key, self.shards)]
        found = self._lookup(shard, key, raw, refresh)
        if found is not None:
            self.stats.hits += 1
        return found

    def _lookup(
        self, shard: _Shard, key: str, raw: bool = False, refresh: bool = True
    ) -> Optional[object]:
        """Read *key* from *shard*: the lookup path of every getter.

        A stale offset (another process rewrote the shard without
        shrinking it below our scan pointer) rebuilds the index from
        scratch and retries once.
        """
        if refresh:
            shard.refresh()
        for attempt in (0, 1):
            offset = shard.index.get(key)
            if offset is None:
                return None
            found = self._record_at(shard, offset, key, raw=raw)
            if found is not None or attempt:
                return found
            shard.reset()
            shard.refresh()
        return None  # pragma: no cover - loop always returns

    @staticmethod
    def _record_at(
        shard: _Shard, offset: int, key: str, raw: bool = False
    ) -> Optional[object]:
        """Read *key*'s payload at *offset*; None if stale or torn."""
        hit = shard.bin_entry_at(offset, GLOBAL_SHAPES)
        if hit is None:
            return None
        entry, buf = hit
        if entry.key != key:
            # Entry at this offset belongs to a different key: the
            # file was rewritten behind our back.  Never serve it.
            return None
        start, end = entry.payload_slice
        payload = buf[start:end]
        if raw:
            return payload
        try:
            return decode_record(payload)
        except (UnknownShapeError, CorruptEntry, TruncatedEntry):
            # Shape definitions live earlier in the file; the reset +
            # full rescan the caller performs registers them.
            return None

    def put(self, key: str, record: Record) -> None:
        """Append *record* under *key* (newest-wins on repeated keys).

        Each entry is stamped with the append wall-clock time, which
        is what :meth:`gc` ages entries by.
        """
        payload, shape = encode_record(record)
        self._put_payload(key, payload, shape)

    def put_raw(self, key: str, payload: bytes) -> None:
        """Append an already-encoded payload without re-encoding.

        The zero-copy ingest path: bytes received from a worker (or
        read from another store) land verbatim.  The payload's shape
        must already be registered (wire frames and shard scans both
        register definitions before any payload referencing them).
        """
        shape = shape_of_payload(payload)
        if shape is None:
            raise UnknownShapeError(bytes(payload[:8]).hex())
        self._put_payload(key, payload, shape)
        if telemetry_enabled():
            get_metrics().inc("store.raw_appends")

    def _put_payload(self, key: str, payload: bytes, shape) -> None:
        shard_id = shard_of_key(key, self.shards)
        shard = self._shards[shard_id]
        self._append(shard, key, payload, shape)
        self.stats.appends += 1
        if telemetry_enabled():
            get_metrics().inc("store.appends")
        # Estimate dead weight from append counts since the last
        # rewrite: compact when the file is mostly dead.
        shard.appends += 1
        if (
            shard.appends >= max(1, len(shard.index)) * COMPACT_FACTOR
            and shard.appends >= 2 * self.shards
        ):
            self.compact(shard_id)

    def _append(self, shard: _Shard, key: str, payload: bytes, shape) -> None:
        """Append one stamped record entry to *shard* under its lock.

        The one append path for data and metadata shards alike.
        """
        entry = pack_record_entry(key, round(_now(), 3), payload)
        with self._lock_named(shard.name):
            with open(shard.bin_path, "ab") as handle:
                offset = handle.tell()
                if offset < shard.bin_end:
                    # Another process rewrote the file since our last
                    # append: our record of which shape definitions it
                    # holds is void.  (Rewrites only ever shrink.)
                    shard.shapes_written.clear()
                if offset not in (shard.bin_end, shard.scanned_bin):
                    # Bytes we have never validated precede our append
                    # point (another writer, a rewrite, or a crashed
                    # writer's torn tail).  Absorb them now, while the
                    # exclusive lock guarantees they are stable: a torn
                    # tail MUST be neutralized before we append, or its
                    # intact header would claim the start of our entry
                    # as the rest of its body on the next scan.
                    self._absorb_unscanned(shard, offset)
                prefix = b""
                if shape.shape_id not in shard.shapes_written:
                    prefix = pack_shape_entry(shape.block)
                handle.write(prefix + entry)
                shard.bin_end = offset + len(prefix) + len(entry)
        shard.shapes_written.add(shape.shape_id)
        shard.index[key] = shard.bin_end - len(entry)
        # Our scan pointer advances past our own entry only when no
        # other writer interleaved; otherwise the next refresh re-reads
        # the gap (idempotent).
        if offset == shard.scanned_bin:
            shard.scanned_bin = shard.bin_end

    def _absorb_unscanned(self, shard: _Shard, size: int) -> None:
        """Validate the bytes in ``[scanned_bin, size)`` (lock held).

        Entries other writers appended merge into the index; shape
        definitions register as a side effect.  The load-bearing part:
        a torn tail left by a crashed writer gets its first byte
        zeroed, so the half-written entry reads as corrupt (resync
        skips it) instead of as a complete entry whose body happens to
        end inside whatever is appended next -- without this, a
        fixed-column record appended right after a crash could decode
        to silently wrong values.
        """
        start = shard.scanned_bin
        if start > size or size < shard.bin_end:
            start = 0  # the file was rewritten (shrunk) under us
        with open(shard.bin_path, "rb") as reader:
            reader.seek(start)
            gap = reader.read(size - start)
        entries, scanned = scan_entries(gap, 0, len(gap), GLOBAL_SHAPES)
        for entry in entries:
            shard.index[entry.key] = start + entry.offset
        if start + scanned < size:
            with open(shard.bin_path, "r+b") as patcher:
                patcher.seek(start + scanned)
                patcher.write(b"\x00")  # kill the torn entry's magic
        shard.scanned_bin = start + scanned

    def __len__(self) -> int:
        self.refresh()
        return sum(len(shard.index) for shard in self._shards)

    def keys(self) -> Iterator[str]:
        for shard in self._shards:
            shard.refresh()
            yield from list(shard.index)

    # -- compaction -------------------------------------------------

    def compact(self, shard_id: Optional[int] = None) -> GCReport:
        """Rewrite shards newest-wins, dropping dead duplicates.

        With no *shard_id*, every data shard and the metadata shard.
        Returns a :class:`GCReport` of the bytes reclaimed (no live
        entry is removed, so ``entries_removed`` is 0).
        """
        if shard_id is None:
            report = self._rewrite_all(lambda _sid, _key, _ref: True)
        else:
            report = self._rewrite_locked(self._shards[shard_id])
        self.stats.compactions += 1
        self.stats.bytes_reclaimed += report.bytes_reclaimed
        if telemetry_enabled():
            metrics = get_metrics()
            metrics.inc("store.compactions")
            metrics.inc("store.bytes_reclaimed", report.bytes_reclaimed)
        return report

    # -- garbage collection -----------------------------------------

    @staticmethod
    def _scan_live(shard: _Shard) -> Dict[str, LiveRef]:
        """Newest-wins scan of one shard's data file (see :func:`_scan`)."""
        return _scan(shard)[1]

    def gc(
        self,
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
        grace: float = 60.0,
    ) -> GCReport:
        """Expire old entries and shrink the store to a byte budget.

        Args:
            ttl: drop entries whose newest entry is older than this
                many seconds (``None`` = no age limit).
            max_bytes: keep only the newest entries whose on-disk
                bytes fit in this budget store-wide, newest-first by
                timestamp (``None`` = no size limit).
            now: reference wall-clock (defaults to ``time.time()``;
                injectable for tests).
            grace: entries stamped within this many seconds of the
                snapshot are never collected.  This is the
                concurrent-writer guard across *hosts*: a fleet
                worker whose clock trails the collector's by less
                than the grace can re-put a condemned key mid-GC
                without losing the fresh record.

        Entries appended *while* the GC runs (newer stamp than the
        snapshot, a key the snapshot never saw, or anything inside
        the grace window) are always retained, so concurrent writers
        never lose fresh records.  With both limits ``None`` this
        degenerates to a full newest-wins compaction.  The metadata
        shard is exempt from TTL/size limits (cost history outlives
        result TTLs) but is deduplicated newest-wins on every GC so
        it cannot grow without bound either.

        Returns a :class:`GCReport`; the removal counters also land
        in ``stats.evicted_entries`` / ``stats.bytes_reclaimed``.

        Raises:
            ValueError: *ttl* or *max_bytes* is negative (either would
                collect every entry outside the grace window).
        """
        for name, bound in (("ttl", ttl), ("max_bytes", max_bytes)):
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be >= 0, got {bound}")
        snapshot_now = _now() if now is None else now
        keep_floor = snapshot_now - max(0.0, grace)
        ttl_cut = (snapshot_now - ttl) if ttl is not None else None
        # Phase 1: snapshot live entries across all shards and decide
        # which keys survive.  (sid, key) -> timestamp/length.  With no
        # limit every live entry survives, so the snapshot is skipped
        # and phase 2 keeps whatever its locked rescan finds.
        limited = ttl is not None or max_bytes is not None
        survivors: Dict[Tuple[int, str], float] = {}
        candidates: List[Tuple[float, int, int, str]] = []
        seen: List[set] = [set() for _ in range(self.shards)]
        expired = 0
        for sid in range(self.shards if limited else 0):
            for key, (_offset, length, stamp, _pay) in self._scan_live(
                self._shards[sid]
            ).items():
                seen[sid].add(key)
                if ttl_cut is not None and stamp < ttl_cut:
                    expired += 1
                    continue
                candidates.append((stamp, sid, length, key))
        evicted_by_size = 0
        if max_bytes is not None:
            # Newest-wins retention: keep newest-first until the byte
            # budget is spent.  Deterministic given the timestamps
            # (ties broken by shard id, then key).
            candidates.sort(key=lambda item: (-item[0], item[1], item[3]))
            budget = max_bytes
            for stamp, sid, length, key in candidates:
                if budget - length >= 0:
                    budget -= length
                    survivors[(sid, key)] = stamp
                else:
                    evicted_by_size += 1
        else:
            for stamp, sid, length, key in candidates:
                survivors[(sid, key)] = stamp
        # Phase 2: rewrite each shard under its lock.  The locked
        # rescan folds in entries appended since the snapshot; keep
        # phase-1 survivors, anything stamped after the grace floor
        # (covers appends during the GC, timestamp rounding, and
        # cross-host clock skew up to *grace*), and keys phase 1 never
        # saw (with no limit, that is every key).
        def survives(sid: int, key: str, ref: LiveRef) -> bool:
            return (
                (sid, key) in survivors
                or ref[2] > keep_floor
                or key not in seen[sid]
            )

        report = GCReport(
            expired_entries=expired, evicted_entries=evicted_by_size
        )
        report += self._rewrite_all(survives)
        self.stats.compactions += 1
        self.stats.evicted_entries += report.entries_removed
        self.stats.bytes_reclaimed += report.bytes_reclaimed
        if telemetry_enabled():
            metrics = get_metrics()
            metrics.inc("store.gc_runs")
            metrics.inc("store.gc_entries_removed", report.entries_removed)
            metrics.inc("store.bytes_reclaimed", report.bytes_reclaimed)
        return report

    # -- shard rewriting --------------------------------------------

    def _rewrite_all(self, keep: Callable[[int, str, LiveRef], bool]) -> GCReport:
        """Rewrite every data shard to the entries ``keep(sid, key, ref)``
        accepts, then the metadata shard, which is exempt from every keep
        rule: only its dead duplicates (one per read-modify-write
        update) go."""
        report = GCReport()
        for sid, shard in enumerate(self._shards):
            report += self._rewrite_locked(shard, partial(keep, sid))
        report.bytes_reclaimed += self._rewrite_locked(self._meta).bytes_reclaimed
        return report

    def _rewrite_locked(
        self,
        shard: _Shard,
        keep: Optional[Callable[[str, LiveRef], bool]] = None,
    ) -> GCReport:
        """Rewrite *shard* to the live entries *keep* accepts.

        The one rewrite path of :meth:`compact`, :meth:`gc` and
        :meth:`clear`.  Under the shard lock, a newest-wins
        :func:`_scan` lists the live entries and
        ``keep(key, ref)`` picks the survivors (``None`` keeps every
        one).  The shard is rewritten to exactly those, or its data
        file is deleted when none survive.
        """
        with self._lock_named(shard.name):
            data, live = _scan(shard)
            kept = [
                (key, ref)
                for key, ref in live.items()
                if keep is None or keep(key, ref)
            ]
            try:  # an older version's index sidecar: never read
                shard.bin_path.with_suffix(".idx").unlink()
            except OSError:
                pass
            if kept:
                new_size = self._rewrite_shard(shard, data, kept)
            else:
                new_size = 0
                try:
                    shard.bin_path.unlink()
                except OSError:
                    pass
                shard.reset()
                shard.bin_end = 0
                shard.shapes_written.clear()
                shard.appends = 0
        # bytes_kept counts record-entry bytes (what the gc byte
        # budget is spent on); shape-definition entries are amortized
        # overhead outside the budget.
        return GCReport(
            entries_removed=len(live) - len(kept),
            bytes_reclaimed=max(0, len(data) - new_size),
            entries_kept=len(shard.index),
            bytes_kept=sum(ref[1] for _key, ref in kept),
        )

    def _rewrite_shard(
        self, shard: _Shard, data: bytes, keep: List[Tuple[str, LiveRef]]
    ) -> int:
        """Rewrite *shard* from its *data* to exactly the *keep* entries.

        The caller holds the shard lock and made the ``(key, scan ref)``
        pairs from *data*, so each entry's length and payload offset
        splice its bytes with no re-parse (shape-packed payloads are
        position independent); :func:`_splice_plan` lays them out.  The
        result atomically replaces the shard.  Adopts the new index/scan
        state on *shard* and returns the new data size.
        """
        fd, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        new_index: Dict[str, int] = {}
        shapes_written: set = set()
        offset_out = 0
        try:
            with os.fdopen(fd, "wb") as dst:
                for key, shape_id, shape_entry, start, end in _splice_plan(data, keep):
                    dst.write(shape_entry)
                    dst.write(data[start:end])
                    shapes_written.add(shape_id)
                    new_index[key] = offset_out + len(shape_entry)
                    offset_out += len(shape_entry) + end - start
            os.replace(tmp_name, shard.bin_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        shard.close_mmap()
        shard.index = new_index
        shard.scanned_bin = offset_out
        shard.bin_end = offset_out
        shard.shapes_written = shapes_written
        shard.appends = len(new_index)
        return offset_out

    # -- usage / dump -----------------------------------------------

    def usage(self) -> Dict[str, object]:
        """Store-wide usage summary for ``repro-planarity cache stats``.

        Scans every shard (newest-wins): live entry count, live record
        bytes, on-disk bytes, the bytes a compaction would reclaim (the
        on-disk bytes less what it would write: the live records plus
        one shape definition per distinct live shape and shard), and
        the age range of the live entries.
        """
        entries = 0
        live_bytes = 0
        file_bytes = 0
        compacted_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for shard in self._shards:
            data, live = _scan(shard)
            file_bytes += len(data)
            for _offset, length, stamp, _pay in live.values():
                entries += 1
                live_bytes += length
                if stamp > 0:
                    oldest = stamp if oldest is None else min(oldest, stamp)
                    newest = stamp if newest is None else max(newest, stamp)
            plan = _splice_plan(data, list(live.items()))
            compacted_bytes += sum(
                len(shape) + end - start for _k, _i, shape, start, end in plan
            )
        meta_entries = sum(1 for _ in self.meta_keys())
        return {
            "root": str(self.root),
            "shards": self.shards,
            "entries": entries,
            "live_bytes": live_bytes,
            "file_bytes": file_bytes,
            "reclaimable_bytes": max(0, file_bytes - compacted_bytes),
            "oldest_t": oldest,
            "newest_t": newest,
            "meta_entries": meta_entries,
            "meta_bytes": self._meta.stat_bin(),
        }

    def dump(self) -> Iterator[Tuple[str, float, Record]]:
        """Yield every live ``(key, stamp, record)`` (debug view).

        Powers ``repro-planarity cache dump --json``: a human-readable
        view of the store contents (and the rewrite round-trip check
        in CI).
        """
        for shard in self._shards:
            for key, (offset, _length, stamp, _pay) in self._scan_live(
                shard
            ).items():
                record = self._record_at(shard, offset, key)
                if isinstance(record, dict):
                    yield key, stamp, record

    # -- metadata shard ---------------------------------------------

    def put_meta(self, key: str, record: Record) -> None:
        """Append an operational record to the metadata shard.

        Same append path and lock discipline as data shards;
        excluded from ``len()`` / ``keys()`` / caps / GC.  Used by
        the scheduler for the per-kind/per-n wall-time cost table.
        """
        payload, shape = encode_record(record)
        self._append(self._meta, key, payload, shape)

    def get_meta(self, key: str) -> Optional[Record]:
        """Return the newest metadata record under *key*, or ``None``."""
        record = self._lookup(self._meta, key)
        return record if isinstance(record, dict) else None

    def meta_keys(self) -> Iterator[str]:
        """All keys present in the metadata shard."""
        meta = self._meta
        meta.refresh()
        yield from list(meta.index)

    def clear(self) -> GCReport:
        """Delete every data shard file; report entries and bytes removed.

        The metadata shard keeps its records; like :meth:`gc`, this drops
        only its dead duplicates.
        """
        report = self._rewrite_all(lambda _sid, _key, _ref: False)
        self.stats.evicted_entries += report.entries_removed
        self.stats.bytes_reclaimed += report.bytes_reclaimed
        return report
