"""Packed binary record codec for the store and wire planes.

Every store append, lookup, compaction splice, resume merge, and
remote result ship goes through this stdlib-``struct`` binary codec
-- msgpack-style framing with no new dependency -- in three layers:

* a **generic value codec** (tag byte + payload) covering ``None``,
  bools, arbitrary-precision ints (zigzag varint, so >64-bit values
  survive exactly), IEEE doubles (NaN/inf bit-exact), UTF-8 strings,
  bytes, lists, and string-keyed dicts; 64-char lowercase hex strings
  (cache keys) pack to 32 raw bytes;

* a **shape-packed record codec**: the flat job records the runtime
  stores share a handful of field layouts ("shapes"), so each record
  is encoded as an 8-byte content-addressed shape id plus one
  ``struct.pack`` of its fixed-width columns (int32/int64/float64/
  bool) and a varlen tail for everything else.  Field names are
  stored once per shape, not once per record, and decode is a single
  ``Struct.unpack_from`` plus ``dict(zip(...))`` on the fast path.
  Because shape ids are content hashes, encoded payloads are
  **position-independent**: bytes can be spliced between shard files
  and wire frames without re-encoding, as long as the shape
  definition travels ahead of the first payload that uses it;

* **framing**: length-prefixed store entries (record and
  shape-definition bodies) and length-prefixed wire frames whose body
  is one generic-codec dict.  Both carry a 2-byte magic so readers
  can detect torn writes and resynchronize.

Always-on cheap counters live in :data:`STATS` (tests pin zero-copy
paths on them); byte/nanosecond metrics flow to the telemetry
registry only when tracing is enabled.
"""

from __future__ import annotations

import hashlib
import re
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..telemetry.metrics import get_metrics
from ..telemetry.spans import telemetry_enabled

Record = Dict[str, object]


class CodecError(ValueError):
    """A value cannot be encoded (unsupported type, non-str dict key)."""


class CorruptEntry(ValueError):
    """Bytes at an entry offset are not a valid store entry."""


class TruncatedEntry(Exception):
    """An entry extends past the end of the buffer (writer mid-append)."""


class UnknownShapeError(KeyError):
    """A payload references a shape id the registry has not seen."""


class WireProtocolError(ValueError):
    """A wire frame failed to parse (bad magic, truncated body)."""


@dataclass
class CodecStats:
    """Always-on process-wide codec counters (cheap ints, no gating).

    Zero-copy tests pin on these: a server that appends worker result
    bytes verbatim must show ``encoded_records == 0`` no matter how
    many results it stores.
    """

    encoded_records: int = 0
    decoded_records: int = 0
    encoded_record_bytes: int = 0
    decoded_record_bytes: int = 0
    encoded_frames: int = 0
    decoded_frames: int = 0
    encoded_frame_bytes: int = 0
    decoded_frame_bytes: int = 0


STATS = CodecStats()


# -- varints ------------------------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    """Append *value* (non-negative, unbounded) as a LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Read a LEB128 varint at *pos*; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    try:
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise TruncatedEntry("varint runs past end of buffer") from None


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


# -- generic value codec ------------------------------------------------------

T_NONE = 0x00
T_TRUE = 0x01
T_FALSE = 0x02
T_INT = 0x03  # zigzag LEB128, arbitrary precision
T_FLOAT = 0x04  # IEEE 754 double, little-endian, NaN/inf bit-exact
T_STR = 0x05  # uvarint byte length + UTF-8
T_BYTES = 0x06  # uvarint length + raw bytes
T_LIST = 0x07  # uvarint count + items (tuples decode as lists)
T_DICT = 0x08  # uvarint count + (str key, value) pairs
T_HEX32 = 0x09  # 64-char lowercase hex string packed to 32 raw bytes

_F64 = struct.Struct("<d")
_HEX64 = re.compile(r"[0-9a-f]{64}\Z")


def encode_value(value: object, out: bytearray) -> None:
    """Append the tagged encoding of *value* to *out*.

    Mirrors the JSON value model: tuples become lists, dict keys
    must be strings, and anything else raises :class:`CodecError`.
    """
    if value is None:
        out.append(T_NONE)
    elif isinstance(value, bool):
        out.append(T_TRUE if value else T_FALSE)
    elif isinstance(value, int):
        out.append(T_INT)
        write_uvarint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        if len(value) == 64 and _HEX64.match(value):
            out.append(T_HEX32)
            out += bytes.fromhex(value)
        else:
            raw = value.encode("utf-8")
            out.append(T_STR)
            write_uvarint(out, len(raw))
            out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(T_BYTES)
        write_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(T_LIST)
        write_uvarint(out, len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(T_DICT)
        write_uvarint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key)!r}")
            raw = key.encode("utf-8")
            write_uvarint(out, len(raw))
            out += raw
            encode_value(item, out)
    else:
        raise CodecError(f"cannot encode {type(value)!r}")


def decode_value(buf: bytes, pos: int) -> Tuple[object, int]:
    """Decode one tagged value at *pos*; returns ``(value, next_pos)``."""
    try:
        tag = buf[pos]
    except IndexError:
        raise TruncatedEntry("value tag past end of buffer") from None
    pos += 1
    if tag == T_NONE:
        return None, pos
    if tag == T_TRUE:
        return True, pos
    if tag == T_FALSE:
        return False, pos
    if tag == T_INT:
        raw, pos = read_uvarint(buf, pos)
        return _unzigzag(raw), pos
    if tag == T_FLOAT:
        end = pos + 8
        if end > len(buf):
            raise TruncatedEntry("float body past end of buffer")
        return _F64.unpack_from(buf, pos)[0], end
    if tag == T_STR:
        length, pos = read_uvarint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise TruncatedEntry("str body past end of buffer")
        return bytes(buf[pos:end]).decode("utf-8"), end
    if tag == T_BYTES:
        length, pos = read_uvarint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise TruncatedEntry("bytes body past end of buffer")
        return bytes(buf[pos:end]), end
    if tag == T_LIST:
        count, pos = read_uvarint(buf, pos)
        items: List[object] = []
        for _ in range(count):
            item, pos = decode_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == T_DICT:
        count, pos = read_uvarint(buf, pos)
        mapping: Dict[str, object] = {}
        for _ in range(count):
            length, pos = read_uvarint(buf, pos)
            end = pos + length
            if end > len(buf):
                raise TruncatedEntry("dict key past end of buffer")
            key = bytes(buf[pos:end]).decode("utf-8")
            mapping[key], pos = decode_value(buf, end)
        return mapping, pos
    if tag == T_HEX32:
        end = pos + 32
        if end > len(buf):
            raise TruncatedEntry("hex32 body past end of buffer")
        return bytes(buf[pos:end]).hex(), end
    raise CorruptEntry(f"unknown value tag 0x{tag:02x}")


# -- shape-packed record codec ------------------------------------------------

SHAPE_ID_SIZE = 8

# Per-field column codes, chosen per record at encode time:
#   i  int32    q  int64    d  float64    ?  bool
#   N  None (zero bytes)    V  varlen tail (generic codec)
_FIXED_CODES = frozenset("iqd?")
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _code_of(value: object) -> str:
    if value is None:
        return "N"
    if isinstance(value, bool):
        return "?"
    if isinstance(value, int):
        if _INT32_MIN <= value <= _INT32_MAX:
            return "i"
        if _INT64_MIN <= value <= _INT64_MAX:
            return "q"
        return "V"
    if isinstance(value, float):
        return "d"
    return "V"


class Shape:
    """One record layout: ordered field names + per-field column codes.

    ``shape_id`` is the first 8 bytes of the SHA-256 of the packed
    shape block, so identical layouts hash identically in every
    process -- payloads referencing a shape are portable bytes.  The
    constructor precomputes the decode plan (fixed/None/varlen key
    tuples) so decoding is ``unpack_from`` + ``dict(zip(...))`` plus
    one generic decode per varlen field -- no per-field branching.
    """

    __slots__ = (
        "shape_id",
        "block",
        "keys",
        "codes",
        "fixed_struct",
        "all_fixed",
        "fixed_keys",
        "none_keys",
        "var_keys",
        "var_start",
    )

    def __init__(self, keys: Tuple[str, ...], codes: str):
        if len(keys) != len(codes):
            raise CodecError("shape keys/codes length mismatch")
        self.keys = keys
        self.codes = codes
        self.block = _pack_shape_block(keys, codes)
        self.shape_id = hashlib.sha256(self.block).digest()[:SHAPE_ID_SIZE]
        fmt = "<" + "".join(code for code in codes if code in _FIXED_CODES)
        self.fixed_struct = struct.Struct(fmt)
        self.all_fixed = len(fmt) - 1 == len(keys)
        self.fixed_keys = tuple(
            key for key, code in zip(keys, codes) if code in _FIXED_CODES
        )
        self.none_keys = tuple(
            key for key, code in zip(keys, codes) if code == "N"
        )
        self.var_keys = tuple(
            key for key, code in zip(keys, codes) if code == "V"
        )
        self.var_start = SHAPE_ID_SIZE + self.fixed_struct.size


def _pack_shape_block(keys: Tuple[str, ...], codes: str) -> bytes:
    out = bytearray()
    write_uvarint(out, len(keys))
    for key, code in zip(keys, codes):
        raw = key.encode("utf-8")
        write_uvarint(out, len(raw))
        out += raw
        out.append(ord(code))
    return bytes(out)


def _parse_shape_block(block: bytes) -> Tuple[Tuple[str, ...], str]:
    count, pos = read_uvarint(block, 0)
    keys: List[str] = []
    codes: List[str] = []
    for _ in range(count):
        length, pos = read_uvarint(block, pos)
        end = pos + length
        if end + 1 > len(block):
            raise CorruptEntry("shape block truncated")
        keys.append(bytes(block[pos:end]).decode("utf-8"))
        code = chr(block[end])
        if code not in _FIXED_CODES and code not in ("N", "V"):
            raise CorruptEntry(f"unknown field code {code!r}")
        codes.append(code)
        pos = end + 1
    if pos != len(block):
        raise CorruptEntry("trailing bytes after shape block")
    return tuple(keys), "".join(codes)


class ShapeRegistry:
    """Content-addressed shape table, shared by store and wire layers.

    Registration is idempotent (the id is a content hash), so every
    shard file and every connection can redundantly carry definitions
    without coordination; readers register whatever they see.
    """

    def __init__(self):
        self._by_id: Dict[bytes, Shape] = {}
        self._by_sig: Dict[Tuple[Tuple[str, ...], str], Shape] = {}
        self._lock = threading.Lock()

    def get(self, shape_id: bytes) -> Optional[Shape]:
        return self._by_id.get(bytes(shape_id))

    def shape_for(self, keys: Tuple[str, ...], codes: str) -> Shape:
        """The (memoized) shape for one ``keys``/``codes`` signature."""
        shape = self._by_sig.get((keys, codes))
        if shape is None:
            shape = Shape(keys, codes)
            with self._lock:
                shape = self._by_id.setdefault(shape.shape_id, shape)
                self._by_sig[(keys, codes)] = shape
        return shape

    def register_block(self, block: bytes) -> Shape:
        """Register a shape definition received from a file or frame."""
        shape_id = hashlib.sha256(bytes(block)).digest()[:SHAPE_ID_SIZE]
        shape = self._by_id.get(shape_id)
        if shape is None:
            keys, codes = _parse_shape_block(bytes(block))
            shape = self.shape_for(keys, codes)
        return shape

    def __len__(self) -> int:
        return len(self._by_id)


GLOBAL_SHAPES = ShapeRegistry()
"""Process-global registry; the default for every codec entry point."""


def encode_record(
    record: Record, registry: Optional[ShapeRegistry] = None
) -> Tuple[bytes, Shape]:
    """Encode *record* as ``shape_id + fixed columns + varlen tail``.

    Returns ``(payload, shape)``; the caller owns making sure the
    shape definition (``shape.block``) reaches every container the
    payload is written to before the payload itself.
    """
    timed = telemetry_enabled()
    start = time.perf_counter() if timed else 0.0
    registry = GLOBAL_SHAPES if registry is None else registry
    keys = tuple(record)
    codes = "".join(_code_of(record[key]) for key in keys)
    shape = registry.shape_for(keys, codes)
    out = bytearray(shape.shape_id)
    fixed = [
        record[key]
        for key, code in zip(keys, codes)
        if code in _FIXED_CODES
    ]
    out += shape.fixed_struct.pack(*fixed)
    if not shape.all_fixed:
        for key, code in zip(keys, codes):
            if code == "V":
                encode_value(record[key], out)
    payload = bytes(out)
    STATS.encoded_records += 1
    STATS.encoded_record_bytes += len(payload)
    if timed:
        metrics = get_metrics()
        metrics.inc(
            "codec.encode_ns",
            (time.perf_counter() - start) * 1e9,
        )
        metrics.inc("codec.encoded_records")
        metrics.inc("codec.encoded_record_bytes", len(payload))
    return payload, shape


def decode_record(
    payload: bytes, registry: Optional[ShapeRegistry] = None
) -> Record:
    """Decode a shape-packed payload back into its record dict.

    Raises :class:`UnknownShapeError` when the shape definition has
    not reached *registry* yet (store scans treat that as a stale
    index and rescan; wire peers always ship definitions first).
    """
    timed = telemetry_enabled()
    start = time.perf_counter() if timed else 0.0
    registry = GLOBAL_SHAPES if registry is None else registry
    shape = registry.get(bytes(payload[:SHAPE_ID_SIZE]))
    if shape is None:
        raise UnknownShapeError(bytes(payload[:SHAPE_ID_SIZE]).hex())
    fixed = shape.fixed_struct.unpack_from(payload, SHAPE_ID_SIZE)
    if shape.all_fixed:
        record: Record = dict(zip(shape.keys, fixed))
    else:
        # Decoded field order follows the precomputed plan, not the
        # encoded order; records are plain dicts, so only membership
        # and values matter for equality.
        record = dict(zip(shape.fixed_keys, fixed))
        for key in shape.none_keys:
            record[key] = None
        pos = shape.var_start
        for key in shape.var_keys:
            record[key], pos = decode_value(payload, pos)
    STATS.decoded_records += 1
    STATS.decoded_record_bytes += len(payload)
    if timed:
        metrics = get_metrics()
        metrics.inc(
            "codec.decode_ns",
            (time.perf_counter() - start) * 1e9,
        )
        metrics.inc("codec.decoded_records")
        metrics.inc("codec.decoded_record_bytes", len(payload))
    return record


def shape_of_payload(
    payload: bytes, registry: Optional[ShapeRegistry] = None
) -> Optional[Shape]:
    """The registered shape a payload references, if known."""
    registry = GLOBAL_SHAPES if registry is None else registry
    return registry.get(bytes(payload[:SHAPE_ID_SIZE]))


# -- store entry framing ------------------------------------------------------

ENTRY_MAGIC = b"\xa7R"
_ENTRY_HEADER = struct.Struct("<2sIB")
ENTRY_HEADER_SIZE = _ENTRY_HEADER.size


def _header_check(body_len: int) -> int:
    """1-byte checksum over the length field.

    A 2-byte magic alone has a ~1/65k false-positive rate per scanned
    byte during :func:`resync`; requiring the 4 length bytes to
    checksum correctly (and the body kind to validate) makes a stray
    match vanishingly unlikely to derail a torn-tail recovery.
    """
    return (
        0xA5
        ^ (body_len & 0xFF)
        ^ ((body_len >> 8) & 0xFF)
        ^ ((body_len >> 16) & 0xFF)
        ^ ((body_len >> 24) & 0xFF)
    )

BODY_RECORD = 0x01
BODY_SHAPE = 0x02

_KEY_UTF8 = 0x00  # uvarint length + UTF-8 bytes
_KEY_HEX32 = 0x01  # 64-char lowercase hex key packed to 32 bytes
_KEY_COORD = 0x02  # "coord:" + 64-char hex key packed to 32 bytes

_COORD_PREFIX = "coord:"
# kind + key flag + 32 key bytes + f64 stamp + shape id.
_PACKED_RECORD_MIN_BODY = 2 + 32 + 8 + SHAPE_ID_SIZE


def _pack_key(out: bytearray, key: str) -> None:
    if len(key) == 64 and _HEX64.match(key):
        out.append(_KEY_HEX32)
        out += bytes.fromhex(key)
    elif (
        len(key) == 70
        and key.startswith(_COORD_PREFIX)
        and _HEX64.match(key[6:])
    ):
        out.append(_KEY_COORD)
        out += bytes.fromhex(key[6:])
    else:
        raw = key.encode("utf-8")
        out.append(_KEY_UTF8)
        write_uvarint(out, len(raw))
        out += raw


def _read_key(buf: bytes, pos: int) -> Tuple[str, int]:
    try:
        flag = buf[pos]
    except IndexError:
        raise TruncatedEntry("key flag past end of buffer") from None
    pos += 1
    if flag == _KEY_HEX32 or flag == _KEY_COORD:
        end = pos + 32
        if end > len(buf):
            raise TruncatedEntry("packed key past end of buffer")
        key = bytes(buf[pos:end]).hex()
        if flag == _KEY_COORD:
            key = _COORD_PREFIX + key
        return key, end
    if flag == _KEY_UTF8:
        length, pos = read_uvarint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise TruncatedEntry("key bytes past end of buffer")
        return bytes(buf[pos:end]).decode("utf-8"), end
    raise CorruptEntry(f"unknown key flag 0x{flag:02x}")


def pack_record_entry(key: str, stamp: float, payload: bytes) -> bytes:
    """Frame one record payload as a store entry."""
    body = bytearray((BODY_RECORD,))
    _pack_key(body, key)
    body += _F64.pack(stamp)
    body += payload
    header = _ENTRY_HEADER.pack(
        ENTRY_MAGIC, len(body), _header_check(len(body))
    )
    return header + bytes(body)


def pack_shape_entry(block: bytes) -> bytes:
    """Frame one shape definition as a store entry."""
    body = bytes((BODY_SHAPE,)) + bytes(block)
    header = _ENTRY_HEADER.pack(
        ENTRY_MAGIC, len(body), _header_check(len(body))
    )
    return header + body


class RecordEntry:
    """Parsed header of one record entry (payload *not* decoded)."""

    __slots__ = ("key", "stamp", "offset", "length", "payload_slice")

    def __init__(
        self,
        key: str,
        stamp: float,
        offset: int,
        length: int,
        payload_slice: Tuple[int, int],
    ):
        self.key = key
        self.stamp = stamp
        self.offset = offset
        self.length = length
        self.payload_slice = payload_slice


def read_entry(
    buf: bytes,
    offset: int,
    end: int,
    registry: Optional[ShapeRegistry] = None,
) -> Tuple[Optional[RecordEntry], int]:
    """Parse the store entry starting at *offset* in ``buf[:end]``.

    Returns ``(entry, next_offset)``; *entry* is ``None`` for a shape
    definition (registered into *registry* as a side effect).  Raises
    :class:`TruncatedEntry` when the entry runs past *end* (a writer
    mid-append -- stop scanning and retry later) and
    :class:`CorruptEntry` on bad bytes (resynchronize via
    :func:`resync`).
    """
    if offset + ENTRY_HEADER_SIZE > end:
        raise TruncatedEntry("entry header past end of buffer")
    magic, body_len, check = _ENTRY_HEADER.unpack_from(buf, offset)
    if magic != ENTRY_MAGIC:
        raise CorruptEntry(f"bad entry magic {magic!r} at {offset}")
    if check != _header_check(body_len):
        raise CorruptEntry(f"entry header checksum mismatch at {offset}")
    body_start = offset + ENTRY_HEADER_SIZE
    body_end = body_start + body_len
    if body_end > end:
        raise TruncatedEntry("entry body past end of buffer")
    if body_len < 1:
        raise CorruptEntry("empty entry body")
    kind = buf[body_start]
    if kind == BODY_SHAPE:
        registry = GLOBAL_SHAPES if registry is None else registry
        registry.register_block(bytes(buf[body_start + 1 : body_end]))
        return None, body_end
    if kind != BODY_RECORD:
        raise CorruptEntry(f"unknown entry kind 0x{kind:02x}")
    key, pos = _read_key(buf, body_start + 1)
    if pos + 8 > body_end:
        raise CorruptEntry("record entry too short for timestamp")
    stamp = _F64.unpack_from(buf, pos)[0]
    pos += 8
    if body_end - pos < SHAPE_ID_SIZE:
        raise CorruptEntry("record entry too short for payload")
    entry = RecordEntry(
        key, stamp, offset, body_end - offset, (pos, body_end)
    )
    return entry, body_end


def scan_entries(
    buf: bytes,
    start: int,
    end: int,
    registry: Optional[ShapeRegistry] = None,
) -> Tuple[List[RecordEntry], int]:
    """Parse every entry in ``buf[start:end]``, resyncing over garbage.

    Shape definitions are registered into *registry* as a side
    effect; record entries are returned in file order.  The second
    return value is how far the scan validated: a truncated tail
    entry (writer mid-append) stays unscanned so a later pass can
    finish it once complete.

    Record entries with a packed 32-byte key (every cache key) are
    parsed inline; anything else -- shape definitions, UTF-8 keys,
    torn or corrupt bytes -- goes through :func:`read_entry`, which
    yields the same :class:`RecordEntry` for a well-formed entry.
    """
    entries: List[RecordEntry] = []
    append = entries.append
    unpack_header = _ENTRY_HEADER.unpack_from
    unpack_f64 = _F64.unpack_from
    offset = start
    while offset < end:
        body_start = offset + ENTRY_HEADER_SIZE
        if body_start <= end:
            magic, body_len, check = unpack_header(buf, offset)
            body_end = body_start + body_len
            if (
                magic == ENTRY_MAGIC
                and body_len >= _PACKED_RECORD_MIN_BODY
                and body_end <= end
                and buf[body_start] == BODY_RECORD
                and check == _header_check(body_len)
            ):
                flag = buf[body_start + 1]
                if flag == _KEY_HEX32 or flag == _KEY_COORD:
                    pos = body_start + 34
                    key = buf[body_start + 2 : pos].hex()
                    if flag == _KEY_COORD:
                        key = _COORD_PREFIX + key
                    append(
                        RecordEntry(
                            key,
                            unpack_f64(buf, pos)[0],
                            offset,
                            body_end - offset,
                            (pos + 8, body_end),
                        )
                    )
                    offset = body_end
                    continue
        try:
            entry, next_offset = read_entry(buf, offset, end, registry)
        except TruncatedEntry:
            break
        except CorruptEntry:
            found = resync(buf, offset + 1, end)
            if found is None:
                offset = end
                break
            offset = found
            continue
        if entry is not None:
            entries.append(entry)
        offset = next_offset
    return entries, offset


def resync(buf: bytes, offset: int, end: int) -> Optional[int]:
    """Find the next plausible entry start at or after *offset*.

    Scans for the entry magic and validates that a parseable entry
    (or a truncated tail, which a later scan will finish) starts
    there.  Returns ``None`` when no candidate exists before *end*.
    Recovers the bytes appended after a torn write from a crashed
    writer.
    """
    while True:
        found = buf.find(ENTRY_MAGIC, offset, end)
        if found < 0:
            return None
        try:
            read_entry(buf, found, end)
        except CorruptEntry:
            offset = found + 1
            continue
        except TruncatedEntry:
            return found
        return found


# -- wire frames --------------------------------------------------------------

FRAME_MAGIC = b"\xa6R"
_FRAME_HEADER = struct.Struct("<2sI")
FRAME_HEADER_SIZE = _FRAME_HEADER.size

MAX_FRAME_BODY = 64 * 1024 * 1024
"""Sanity bound on one frame body; anything larger is a protocol error."""


def encode_wire_frame(frame: Dict[str, object]) -> bytes:
    """Frame one message dict as ``magic + u32 length + body``."""
    body = bytearray()
    encode_value(frame, body)
    STATS.encoded_frames += 1
    STATS.encoded_frame_bytes += FRAME_HEADER_SIZE + len(body)
    if telemetry_enabled():
        metrics = get_metrics()
        metrics.inc("wire.frames_out")
        metrics.inc("wire.bytes_out", FRAME_HEADER_SIZE + len(body))
    return _FRAME_HEADER.pack(FRAME_MAGIC, len(body)) + bytes(body)


def decode_wire_body(body: bytes) -> Dict[str, object]:
    """Decode one frame body back into its message dict."""
    try:
        frame, pos = decode_value(body, 0)
    except (CorruptEntry, TruncatedEntry) as exc:
        raise WireProtocolError(f"bad frame body: {exc}") from exc
    if not isinstance(frame, dict) or pos != len(body):
        raise WireProtocolError("frame body is not a single dict")
    STATS.decoded_frames += 1
    STATS.decoded_frame_bytes += FRAME_HEADER_SIZE + len(body)
    if telemetry_enabled():
        metrics = get_metrics()
        metrics.inc("wire.frames_in")
        metrics.inc("wire.bytes_in", FRAME_HEADER_SIZE + len(body))
    return frame


def parse_frame_header(header: bytes) -> int:
    """Validate a 6-byte frame header; returns the body length."""
    if len(header) != FRAME_HEADER_SIZE:
        raise WireProtocolError("short frame header")
    magic, body_len = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise WireProtocolError(f"bad frame magic {magic!r}")
    if body_len > MAX_FRAME_BODY:
        raise WireProtocolError(f"oversized frame body ({body_len} bytes)")
    return body_len


def read_wire_frame(stream) -> Optional[Dict[str, object]]:
    """Read one frame from a blocking binary *stream* (file-like).

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`WireProtocolError` on torn or malformed frames.
    """
    header = _read_exact(stream, FRAME_HEADER_SIZE)
    if header is None:
        return None
    body_len = parse_frame_header(header)
    body = _read_exact(stream, body_len)
    if body is None:
        raise WireProtocolError("stream closed mid-frame")
    return decode_wire_body(body)


def _read_exact(stream, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; ``None`` on EOF before the first."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise WireProtocolError("stream closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame_shapes(
    payloads: Iterator[bytes],
    sent: set,
    registry: Optional[ShapeRegistry] = None,
) -> List[bytes]:
    """Shape blocks that must precede *payloads* on a stream.

    Collects the definitions of every referenced shape not yet in
    *sent* (a per-connection set of shape ids, updated in place).
    """
    registry = GLOBAL_SHAPES if registry is None else registry
    blocks: List[bytes] = []
    for payload in payloads:
        shape_id = bytes(payload[:SHAPE_ID_SIZE])
        if shape_id in sent:
            continue
        shape = registry.get(shape_id)
        if shape is not None:
            blocks.append(shape.block)
            sent.add(shape_id)
    return blocks
