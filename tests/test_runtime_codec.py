"""Packed binary record codec: values, shapes, entries, wire frames.

Property tests pin the codec's contract: every JSON-model value --
including the corners JSON itself fumbles (NaN/inf floats, >64-bit
ints, unicode keys, deep nesting) -- round-trips bit-faithfully
through ``encode_record``/``decode_record``, shape definitions are
content-addressed (identical layouts hash identically in every
process), and the store-entry / wire-frame framings survive garbage,
torn tails, and concatenation.
"""

from __future__ import annotations

import dataclasses
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import codec
from repro.runtime.codec import (
    ENTRY_HEADER_SIZE,
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    RECORD_FRAME_KEYS,
    STATS,
    CodecError,
    CorruptEntry,
    ShapeRegistry,
    TruncatedEntry,
    UnknownShapeError,
    WireProtocolError,
    decode_record,
    decode_value,
    decode_wire_body,
    encode_record,
    encode_value,
    encode_wire_frame,
    frame_shapes,
    pack_record_entry,
    pack_shape_entry,
    parse_frame_header,
    read_entry,
    read_uvarint,
    read_wire_frame,
    resync,
    scan_entries,
    shape_of_payload,
    write_uvarint,
)

# -- strategies ---------------------------------------------------------------

# The JSON value model the codec mirrors, plus the corners JSONL could
# not represent: NaN/inf floats, arbitrary-precision ints, bytes.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: exercises i/q columns AND bigint varlen
    st.floats(allow_nan=True, allow_infinity=True),  # bit-exact, incl. NaN
    st.text(max_size=40),  # unicode, also 64-char hex via T_HEX32 below
    st.binary(max_size=40),
    st.sampled_from(["a" * 64, "0123456789abcdef" * 4]),  # T_HEX32 packing
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=12), children, max_size=4),
    ),
    max_leaves=12,
)

_records = st.dictionaries(st.text(min_size=1, max_size=16), _values,
                           min_size=0, max_size=8)


def _canon(value):
    """Equality helper: floats by bit pattern (NaN == NaN), tuples as
    lists -- exactly the identifications the codec makes."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    return value


# -- varints ------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**200))
def test_uvarint_round_trip(value):
    out = bytearray()
    write_uvarint(out, value)
    decoded, pos = read_uvarint(bytes(out), 0)
    assert decoded == value
    assert pos == len(out)


def test_uvarint_truncation_raises():
    out = bytearray()
    write_uvarint(out, 1 << 40)
    with pytest.raises(TruncatedEntry):
        read_uvarint(bytes(out[:-1]), 0)


# -- generic values -----------------------------------------------------------


@given(_values)
def test_value_round_trip(value):
    out = bytearray()
    encode_value(value, out)
    decoded, pos = decode_value(bytes(out), 0)
    assert pos == len(out)
    assert _canon(decoded) == _canon(value)


def test_special_floats_are_bit_exact():
    for value in (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324):
        out = bytearray()
        encode_value(value, out)
        decoded, _pos = decode_value(bytes(out), 0)
        assert struct.pack("<d", decoded) == struct.pack("<d", value)


def test_big_ints_survive():
    for value in (2**63, -(2**63) - 1, 10**50, -(10**50)):
        out = bytearray()
        encode_value(value, out)
        decoded, _pos = decode_value(bytes(out), 0)
        assert decoded == value and isinstance(decoded, int)


def test_hex32_strings_pack_to_half_size():
    digest = "deadbeef" * 8  # 64 lowercase hex chars
    packed = bytearray()
    encode_value(digest, packed)
    plain = bytearray()
    encode_value(digest.upper(), plain)  # not lowercase hex: generic str
    assert len(packed) < len(plain) / 1.8
    assert decode_value(bytes(packed), 0)[0] == digest


def test_non_string_dict_keys_rejected():
    with pytest.raises(CodecError):
        encode_value({1: "x"}, bytearray())


def test_unencodable_type_rejected():
    with pytest.raises(CodecError):
        encode_value(object(), bytearray())


# -- shape-packed records -----------------------------------------------------


@given(_records)
@settings(max_examples=200)
def test_record_round_trip(record):
    registry = ShapeRegistry()
    payload, shape = encode_record(record, registry)
    assert payload[:8] == shape.shape_id
    decoded = decode_record(payload, registry)
    assert _canon(decoded) == _canon(record)


def test_shapes_are_content_addressed_across_registries():
    record = {"n": 100, "seed": 7, "planar": True, "rounds": 12.5}
    a, b = ShapeRegistry(), ShapeRegistry()
    payload_a, shape_a = encode_record(record, a)
    payload_b, shape_b = encode_record(record, b)
    assert shape_a.shape_id == shape_b.shape_id
    assert payload_a == payload_b


def test_decode_without_shape_definition_raises():
    record = {"family": "grid", "n": 36}
    payload, shape = encode_record(record, ShapeRegistry())
    fresh = ShapeRegistry()
    assert shape_of_payload(payload, fresh) is None
    with pytest.raises(UnknownShapeError):
        decode_record(payload, fresh)
    fresh.register_block(shape.block)
    assert decode_record(payload, fresh) == record


def test_same_keys_different_codes_get_distinct_shapes():
    registry = ShapeRegistry()
    _p1, s1 = encode_record({"x": 1}, registry)
    _p2, s2 = encode_record({"x": 1.0}, registry)
    _p3, s3 = encode_record({"x": None}, registry)
    assert len({s1.shape_id, s2.shape_id, s3.shape_id}) == 3


@given(_records)
@settings(max_examples=50)
def test_shape_register_block_is_idempotent(record):
    registry = ShapeRegistry()
    _payload, shape = encode_record(record, registry)
    other = ShapeRegistry()
    first = other.register_block(shape.block)
    second = other.register_block(shape.block)
    assert first.shape_id == second.shape_id == shape.shape_id


# -- store entry framing ------------------------------------------------------


def _entry_stream(records, registry):
    """Concatenated shape + record entries, like one shard file."""
    blob = bytearray()
    seen = set()
    entries = []
    for i, record in enumerate(records):
        payload, shape = encode_record(record, registry)
        if shape.shape_id not in seen:
            seen.add(shape.shape_id)
            blob += pack_shape_entry(shape.block)
        entries.append((f"k{i}", float(i), payload))
        blob += pack_record_entry(f"k{i}", float(i), payload)
    return bytes(blob), entries


@given(st.lists(_records, min_size=1, max_size=6))
@settings(max_examples=50)
def test_entry_stream_scans_back(records):
    writer = ShapeRegistry()
    blob, expected = _entry_stream(records, writer)
    reader = ShapeRegistry()  # shapes travel inside the stream
    scanned, offset = scan_entries(blob, 0, len(blob), reader)
    assert offset == len(blob)
    assert [(e.key, e.stamp) for e in scanned] == [
        (key, stamp) for key, stamp, _payload in expected
    ]
    for entry, (_key, _stamp, payload) in zip(scanned, expected):
        start, end = entry.payload_slice
        assert blob[start:end] == payload
        assert _canon(decode_record(blob[start:end], reader)) == _canon(
            records[int(entry.key[1:])]
        )


def test_truncated_tail_stays_unscanned():
    registry = ShapeRegistry()
    blob, _expected = _entry_stream([{"a": 1}, {"a": 2}], registry)
    torn = blob[:-3]  # writer mid-append on the last entry
    reader = ShapeRegistry()
    scanned, offset = scan_entries(torn, 0, len(torn), reader)
    assert [e.key for e in scanned] == ["k0"]
    # the scan stops exactly at the torn entry so a later pass resumes
    complete = torn[:offset]
    rescan, _off = scan_entries(blob, offset, len(blob), reader)
    assert [e.key for e in rescan] == ["k1"]
    assert len(complete) == offset


def test_scan_resyncs_over_garbage():
    registry = ShapeRegistry()
    blob, _expected = _entry_stream([{"a": 1}], registry)
    dirty = b"\x00garbage\xff" + blob + b"\xa7junk" + blob
    reader = ShapeRegistry()
    scanned, _offset = scan_entries(dirty, 0, len(dirty), reader)
    assert [e.key for e in scanned] == ["k0", "k0"]


def _read_all(buf):
    """Entries via read_entry alone, the reference the scan must match."""
    out, offset = [], 0
    while offset < len(buf):
        entry, offset = read_entry(buf, offset, len(buf), ShapeRegistry())
        if entry is not None:
            out.append(entry)
    return out


def _fields(entries):
    return [
        (e.key, e.stamp, e.offset, e.length, e.payload_slice)
        for e in entries
    ]


def test_scan_parses_packed_keys_like_read_entry():
    registry = ShapeRegistry()
    digest = "0123456789abcdef" * 4
    blob = bytearray()
    for i, key in enumerate((digest, "coord:" + digest, "plain", digest)):
        payload, shape = encode_record({"i": i, "f": "grid"}, registry)
        if i == 0:
            blob += pack_shape_entry(shape.block)
        blob += pack_record_entry(key, 0.5 + i, payload)
    blob = bytes(blob)
    scanned, offset = scan_entries(blob, 0, len(blob), ShapeRegistry())
    assert offset == len(blob)
    assert _fields(scanned) == _fields(_read_all(blob))
    assert [e.key for e in scanned] == [
        digest, "coord:" + digest, "plain", digest
    ]
    # A torn packed-key tail stays unscanned; a flipped length
    # checksum resyncs to the next entry.
    torn, torn_end = scan_entries(blob[:-3], 0, len(blob) - 3, registry)
    assert _fields(torn) == _fields(scanned[:-1])
    assert torn_end == scanned[-1].offset
    dirty = bytearray(blob)
    dirty[scanned[0].offset + 6] ^= 0xFF
    resynced, _ = scan_entries(bytes(dirty), 0, len(dirty), registry)
    assert _fields(resynced) == _fields(scanned[1:])


def test_read_entry_rejects_corrupt_header():
    registry = ShapeRegistry()
    blob, _expected = _entry_stream([{"a": 1}], registry)
    flipped = bytearray(blob)
    flipped[0] ^= 0xFF  # break the magic
    with pytest.raises(CorruptEntry):
        read_entry(bytes(flipped), 0, len(flipped), ShapeRegistry())


def test_resync_finds_entry_after_noise():
    registry = ShapeRegistry()
    blob, _expected = _entry_stream([{"a": 1}], registry)
    noisy = b"\x01\x02\x03" + blob
    assert resync(noisy, 0, len(noisy)) == 3
    assert resync(b"\x00" * 64, 0, 64) is None


# -- wire frames --------------------------------------------------------------


def test_wire_frame_round_trip_over_stream():
    frames = [
        {"op": "hello", "protocol": 2, "kinds": ["test"], "pid": 123},
        {"op": "job", "id": 0, "spec_pkd": b"\x00\x01", "key": None},
        {"op": "result", "id": 0, "record_pkd": b"\xff" * 10,
         "seconds": 0.25, "hit": False},
    ]
    stream = io.BytesIO(b"".join(encode_wire_frame(f) for f in frames))
    for frame in frames:
        assert read_wire_frame(stream) == frame
    assert read_wire_frame(stream) is None  # clean EOF at a boundary


def test_torn_wire_frame_raises():
    encoded = encode_wire_frame({"op": "ping"})
    with pytest.raises(WireProtocolError):
        read_wire_frame(io.BytesIO(encoded[:-1]))
    with pytest.raises(WireProtocolError):
        read_wire_frame(io.BytesIO(encoded[: FRAME_HEADER_SIZE - 2]))


def test_bad_frame_magic_raises():
    encoded = bytearray(encode_wire_frame({"op": "ping"}))
    encoded[0] ^= 0xFF
    with pytest.raises(WireProtocolError):
        parse_frame_header(bytes(encoded[:FRAME_HEADER_SIZE]))


def test_frame_shapes_dedups_per_connection():
    registry = ShapeRegistry()
    p1, s1 = encode_record({"a": 1}, registry)
    p2, s2 = encode_record({"a": 2}, registry)  # same shape
    p3, s3 = encode_record({"b": "x"}, registry)  # new shape
    sent = set()
    first = frame_shapes(iter((p1,)), sent, registry)
    assert first == [s1.block]
    assert frame_shapes(iter((p2,)), sent, registry) == []
    assert frame_shapes(iter((p3,)), sent, registry) == [s3.block]
    assert frame_shapes(iter((p1, p3)), set(), registry) == [
        s1.block,
        s3.block,
    ]


@given(_records)
@settings(max_examples=50)
def test_frames_carry_arbitrary_records(record):
    # a record rides a frame as a value too (dump/debug paths)
    stream = io.BytesIO(encode_wire_frame({"record": record}))
    decoded = read_wire_frame(stream)
    assert _canon(decoded["record"]) == _canon(record)


# -- the record frame layout --------------------------------------------------


def _generic_frame(frame):
    """``encode_wire_frame`` as the generic codec alone writes it."""
    body = bytearray()
    encode_value(frame, body)
    return struct.pack("<2sI", FRAME_MAGIC, len(body)) + bytes(body)


def _generic_decode(body):
    """``decode_wire_body`` as the generic codec alone reads it."""
    try:
        frame, pos = decode_value(body, 0)
    except (CorruptEntry, TruncatedEntry) as exc:
        raise WireProtocolError(f"bad frame body: {exc}") from exc
    if not isinstance(frame, dict) or pos != len(body):
        raise WireProtocolError("frame body is not a single dict")
    return frame


def _typed(value):
    """Exact identity: type names, key order, floats by bit pattern."""
    if isinstance(value, dict):
        return ("dict", [(key, _typed(item)) for key, item in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(item) for item in value])
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _outcome(decode, body):
    try:
        return ("returns", _typed(decode(body)))
    except Exception as exc:  # the exact exception is the contract
        return ("raises", type(exc), str(exc))


_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 63, 64, -65, 2**63, 2**64, -(2**63) - 1]),
)


@st.composite
def _record_frames(draw):
    """Record frames in the layout, and with one deviation from it."""
    frame = {
        "op": "record",
        "sub": draw(_ints),
        "index": draw(_ints),
        "record_pkd": draw(st.one_of(
            st.just(b""), st.binary(max_size=40),
            st.binary(min_size=300, max_size=600),
        )),
        "shapes": draw(st.lists(st.binary(max_size=40), max_size=3)),
        "hit": draw(st.booleans()),
        "seconds": draw(st.one_of(
            st.sampled_from([None, 0.0, -0.0, float("inf"), float("nan")]),
            st.floats(allow_nan=True, allow_infinity=True),
        )),
        "done": draw(_ints),
        "total": draw(_ints),
    }
    assert tuple(frame) == RECORD_FRAME_KEYS
    change = draw(st.sampled_from(["none", "drop", "swap", "add", "bool"]))
    keys = list(frame)
    if change == "drop":
        del frame[draw(st.sampled_from(keys))]
    elif change == "swap":
        at = draw(st.integers(min_value=0, max_value=len(keys) - 2))
        keys[at], keys[at + 1] = keys[at + 1], keys[at]
        frame = {key: frame[key] for key in keys}
    elif change == "add":
        frame[draw(st.sampled_from(["extra", "op2"]))] = draw(_ints)
    elif change == "bool":
        key = draw(st.sampled_from(["sub", "index", "done", "total"]))
        frame[key] = draw(st.booleans())
    return frame


@given(_record_frames(), st.data())
@settings(max_examples=150, deadline=None)
def test_record_layout_matches_the_generic_codec(frame, data):
    """Byte-identical frames, and the same return or the same exception
    as the generic decoder for the body, every proper prefix of it, and
    the body with one flipped byte."""
    encoded = encode_wire_frame(frame)
    assert encoded == _generic_frame(frame)
    body = encoded[FRAME_HEADER_SIZE:]
    assert _outcome(decode_wire_body, body) == ("returns", _typed(frame))
    for cut in range(len(body)):
        prefix = body[:cut]
        assert _outcome(decode_wire_body, prefix) == _outcome(
            _generic_decode, prefix
        )
    flipped = bytearray(body)
    at = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    flipped[at] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    flipped = bytes(flipped)
    assert _outcome(decode_wire_body, flipped) == _outcome(
        _generic_decode, flipped
    )


def test_record_frames_skip_the_generic_codec(monkeypatch):
    """The service's record frames (no shape block after the first) take
    the layout path: the generic codec never sees the frame dict on the
    way out, nor any byte of the body on the way in.  The frame counters
    move as for any frame."""
    frame = {
        "op": "record", "sub": 3, "index": 299, "record_pkd": b"\x01" * 90,
        "shapes": [], "hit": True, "seconds": None, "done": 12, "total": 300,
    }
    encode_one = codec.encode_value

    def encode_no_dict(value, out):
        assert not isinstance(value, dict), "frame took the generic encoder"
        encode_one(value, out)

    def refuse(*_args):
        raise AssertionError("body took the generic decoder")

    monkeypatch.setattr(codec, "encode_value", encode_no_dict)
    monkeypatch.setattr(codec, "decode_value", refuse)
    before = dataclasses.replace(STATS)
    encoded = encode_wire_frame(frame)
    assert decode_wire_body(encoded[FRAME_HEADER_SIZE:]) == frame
    assert STATS.encoded_frames == before.encoded_frames + 1
    assert STATS.encoded_frame_bytes == before.encoded_frame_bytes + len(encoded)
    assert STATS.decoded_frames == before.decoded_frames + 1
    assert STATS.decoded_frame_bytes == before.decoded_frame_bytes + len(encoded)


def test_entry_header_size_constant_matches_struct():
    blob = pack_record_entry("k", 0.0, b"\x00" * 8)
    assert blob[:2] == b"\xa7R"
    assert len(blob) > ENTRY_HEADER_SIZE
