"""JSONL store control for E18: the line format the binary store replaced.

A test-only oracle, kept outside ``src/``: the runtime store reads and
writes packed ``.rbin`` shards only, and E18 gates that format against
this one on the same record population.  It does the work the retired
JSONL store did on each path E18 times:

* **append** -- one ``{"k", "r", "t"}`` JSON line per record, written
  to ``shard-SS.jsonl`` (placed with the store's own
  :func:`~repro.runtime.store.shard_of_key`) under an ``fcntl`` lock;
* **resume** -- a fresh open runs ``json.loads`` on every line to
  rebuild the key -> offset index;
* **GC** -- a newest-wins ``json.loads`` scan, then each surviving line
  is read back at its offset and rewritten under the shard lock via
  ``tempfile`` + ``os.replace``;
* :meth:`JsonlControl.dump` yields the live ``(key, stamp, record)``
  triples, for decode identity against ``ShardedStore.dump``.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.runtime.store import shard_of_key

Record = Dict[str, object]


class JsonlControl:
    """Sharded JSONL store: newest-wins lines, one lock per shard."""

    def __init__(self, root, shards: int):
        self.root = Path(root)
        self.shards = shards
        self.paths = [
            self.root / f"shard-{sid:02d}.jsonl" for sid in range(shards)
        ]

    @contextmanager
    def _lock(self, sid: int):
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / f"shard-{sid:02d}.lock", "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def put(self, key: str, record: Record) -> None:
        line = json.dumps(
            {"k": key, "r": record, "t": round(time.time(), 3)},
            separators=(",", ":"),
        ) + "\n"
        sid = shard_of_key(key, self.shards)
        with self._lock(sid):
            with open(self.paths[sid], "ab") as handle:
                handle.write(line.encode("utf-8"))

    def __len__(self) -> int:
        """Resume: rebuild every shard's key -> offset index."""
        total = 0
        for path in self.paths:
            index: "OrderedDict[str, int]" = OrderedDict()
            for key, offset, _stamp in _scan(path):
                index[key] = offset
                index.move_to_end(key)
            total += len(index)
        return total

    def _live(self, path: Path) -> "OrderedDict[str, Tuple[int, float]]":
        """Newest-wins scan: key -> (offset, stamp) of its last line."""
        live: "OrderedDict[str, Tuple[int, float]]" = OrderedDict()
        for key, offset, stamp in _scan(path):
            live[key] = (offset, stamp)
            live.move_to_end(key)
        return live

    def gc(self) -> int:
        """Rewrite every shard to its live lines; returns bytes reclaimed."""
        reclaimed = 0
        for sid, path in enumerate(self.paths):
            with self._lock(sid):
                live = self._live(path)
                if not live:
                    continue
                old_size = path.stat().st_size
                fd, tmp_name = tempfile.mkstemp(
                    dir=str(self.root), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as dst:
                        for offset, _stamp in live.values():
                            with open(path, "rb") as src:
                                src.seek(offset)
                                dst.write(src.readline())
                    os.replace(tmp_name, path)
                except BaseException:
                    os.unlink(tmp_name)
                    raise
                reclaimed += max(0, old_size - path.stat().st_size)
        return reclaimed

    def dump(self) -> Iterator[Tuple[str, float, Record]]:
        for path in self.paths:
            live = self._live(path)
            if not live:
                continue
            with open(path, "rb") as handle:
                for key, (offset, stamp) in live.items():
                    handle.seek(offset)
                    yield key, stamp, json.loads(handle.readline())["r"]


def _scan(path: Path) -> Iterator[Tuple[str, int, float]]:
    """Every complete, parseable line: ``(key, offset, stamp)``."""
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        offset = 0
        for line in handle:
            if line.endswith(b"\n"):
                try:
                    payload = json.loads(line)
                except (ValueError, UnicodeDecodeError):
                    payload = None
                if isinstance(payload, dict) and isinstance(
                    payload.get("k"), str
                ):
                    stamp = payload.get("t")
                    yield payload["k"], offset, (
                        float(stamp) if isinstance(stamp, (int, float))
                        else 0.0
                    )
            offset += len(line)
