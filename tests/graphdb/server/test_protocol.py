"""Wire protocol unit tests: framing, codecs, and error mapping."""

from __future__ import annotations

import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    GraphError,
    QuerySyntaxError,
    QueryTimeoutError,
    ResourceLimitError,
    TransactionError,
)
from repro.graphdb.query.executor import EdgeBinding, VertexBinding
from repro.graphdb.server import protocol as wire


def roundtrip(payload: bytes):
    frame = wire.pack_frame(payload)
    header, body = frame[:wire.FRAME_HEADER_BYTES], frame[
        wire.FRAME_HEADER_BYTES:
    ]
    assert wire.frame_length(header) == len(body)
    return wire.decode_message(wire.check_frame(header, body))


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_frame_roundtrip_and_crc():
    payload = wire.encode_run("MATCH (n) RETURN n", {"x": 1}, {})
    frame = wire.pack_frame(payload)
    header, body = frame[:8], frame[8:]
    assert wire.check_frame(header, body) == payload


def test_corrupt_payload_fails_crc():
    payload = wire.encode_success({"ok": True})
    frame = bytearray(wire.pack_frame(payload))
    frame[-1] ^= 0xFF
    with pytest.raises(wire.ProtocolError, match="checksum"):
        wire.check_frame(bytes(frame[:8]), bytes(frame[8:]))


def test_length_mismatch_rejected():
    payload = wire.encode_success({})
    header = wire.pack_frame(payload)[:8]
    with pytest.raises(wire.ProtocolError, match="bytes"):
        wire.check_frame(header, payload + b"\x00")


def test_oversized_frame_rejected_both_directions():
    with pytest.raises(wire.ProtocolError, match="exceeds"):
        wire.pack_frame(b"\x00" * (wire.MAX_FRAME_BYTES + 1))
    huge = struct.pack("<II", wire.MAX_FRAME_BYTES + 1, 0)
    with pytest.raises(wire.ProtocolError, match="exceeds"):
        wire.frame_length(huge)


# ----------------------------------------------------------------------
# Message roundtrips
# ----------------------------------------------------------------------
def test_hello_roundtrip():
    msg_type, fields = roundtrip(wire.encode_hello({"app": "t"}))
    assert msg_type == wire.MSG_HELLO
    assert fields == {
        "version": wire.PROTOCOL_VERSION, "client": {"app": "t"},
    }


def test_run_roundtrip_with_params_and_options():
    msg_type, fields = roundtrip(wire.encode_run(
        "MATCH (d:Drug {id: $id}) RETURN d.name",
        {"id": 7, "names": ["a", "b"], "f": 1.5, "flag": True,
         "nothing": None},
        {"timeout": 2.5, "max_rows": 100},
    ))
    assert msg_type == wire.MSG_RUN
    assert fields["params"]["id"] == 7
    assert fields["params"]["names"] == ["a", "b"]
    assert fields["params"]["nothing"] is None
    assert fields["options"] == {"timeout": 2.5, "max_rows": 100}


def test_pull_and_simple_messages():
    assert roundtrip(wire.encode_pull(64)) == (wire.MSG_PULL, {"n": 64})
    for msg_type in (
        wire.MSG_DISCARD, wire.MSG_GOODBYE, wire.MSG_BEGIN,
        wire.MSG_COMMIT, wire.MSG_ROLLBACK,
    ):
        assert roundtrip(wire.encode_simple(msg_type)) == (msg_type, {})


def test_pull_batch_must_be_positive():
    with pytest.raises(wire.ProtocolError):
        wire.encode_pull(0)
    # The server never sees a PULL it would answer "has_more" forever.
    with pytest.raises(wire.ProtocolError, match="positive"):
        wire.decode_message(bytes((wire.MSG_PULL, 0)))


def test_trailing_bytes_rejected_for_every_message():
    messages = [
        wire.encode_hello({"app": "t"}),
        wire.encode_run("MATCH (n) RETURN n", {"x": 1}, {"pull": 5}),
        wire.encode_pull(5),
        wire.encode_mutate("remove_edge", [1]),
        wire.encode_success({"has_more": False}),
        wire.encode_record(("x", 1)),
        wire.encode_error("GraphError", "m"),
    ] + [
        wire.encode_simple(msg_type) for msg_type in (
            wire.MSG_DISCARD, wire.MSG_GOODBYE, wire.MSG_BEGIN,
            wire.MSG_COMMIT, wire.MSG_ROLLBACK,
        )
    ]
    for payload in messages:
        wire.decode_message(payload)
        with pytest.raises(wire.ProtocolError, match="trailing"):
            wire.decode_message(payload + b"junk")


def test_record_roundtrip_with_entity_refs():
    values = (
        VertexBinding(3), EdgeBinding(9), "x", 42, 2.5, None, True,
        [VertexBinding(1), [EdgeBinding(2), "deep"]],
    )
    msg_type, fields = roundtrip(wire.encode_record(values))
    assert msg_type == wire.MSG_RECORD
    assert fields["rows"] == [(
        VertexBinding(3), EdgeBinding(9), "x", 42, 2.5, None, True,
        [VertexBinding(1), [EdgeBinding(2), "deep"]],
    )]
    # Decoded refs are the executor's real binding types, so remote
    # rows compare equal to in-process rows.
    assert isinstance(fields["rows"][0][0], VertexBinding)


# ----------------------------------------------------------------------
# RECORD batches
# ----------------------------------------------------------------------
def decode_batch(payloads) -> list[tuple]:
    rows = []
    for payload in payloads:
        msg_type, fields = roundtrip(payload)
        assert msg_type == wire.MSG_RECORD
        rows += fields["rows"]
    return rows


def same(a, b) -> bool:
    """Equality that tells 0.0 from -0.0 and 1 from True."""
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(map(same, a, b))
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return type(a) is type(b) and a == b


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-70, 70),  # both sides of the one-byte inline limit
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0]),
    st.text(max_size=8),
    st.text(alphabet="a\u00e9\u4e2d", min_size=40, max_size=140),
    st.sampled_from(["x" * 127, "x" * 128, "\u00e9" * 63, "\u00e9" * 64]),
    st.builds(VertexBinding, st.integers(0, 2**40)),
    st.builds(EdgeBinding, st.integers(0, 2**40)),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=8
)


@st.composite
def batches(draw):
    width = draw(st.sampled_from([1, 2, 12]))
    return width, draw(st.lists(
        st.tuples(*[values] * width), max_size=6
    ))


@settings(max_examples=150, deadline=None)
@given(batch=batches())
def test_record_batch_roundtrip(batch):
    width, rows = batch
    payloads = wire.encode_records(rows, width)
    assert len(payloads) == (1 if rows else 0)
    assert same(decode_batch(payloads), rows)


def test_empty_batch_and_one_row_form():
    assert wire.encode_records([], 3) == []
    # An empty batch is still a well-formed message.
    assert wire.decode_message(bytes((wire.MSG_RECORD, 0, 3))) == (
        wire.MSG_RECORD, {"rows": []}
    )
    assert wire.encode_record(("a", 1)) == wire.encode_records(
        [("a", 1)], 2
    )[0]


def test_ragged_batch_rejected_on_encode():
    with pytest.raises(wire.ProtocolError, match="width 2"):
        wire.encode_records([("a", 1), ("b",)], 2)


def test_big_batch_is_chunked_into_several_frames():
    rows = [(f"name-{i:06d}", i) for i in range(20_000)]
    payloads = wire.encode_records(rows, 2)
    assert len(payloads) > 1
    # A frame closes with the row that reaches the chunk size.
    slack = 2 * len(wire.encode_record(rows[-1]))
    assert all(
        len(payload) < wire.RECORD_CHUNK_BYTES + slack
        for payload in payloads
    )
    assert decode_batch(payloads) == rows


def test_batch_header_cannot_claim_more_than_the_frame_holds():
    # 2**40 rows of width 0, and of width 1 with no bytes behind them:
    # refused before any loop runs.
    for width in (0, 1):
        payload = bytearray((wire.MSG_RECORD,))
        wire.write_uvarint(payload, 2**40)
        wire.write_uvarint(payload, width)
        with pytest.raises(wire.ProtocolError, match="malformed"):
            wire.decode_message(bytes(payload))


@settings(max_examples=60, deadline=None)
@given(batch=batches(), data=st.data())
def test_damaged_batch_is_a_protocol_error(batch, data):
    """Every strict prefix and every one-byte corruption of a frame
    fails as ProtocolError - never another exception, never a hang."""
    width, rows = batch
    if not rows:
        rows = [("x",) * width]
    payload = wire.encode_records(rows, width)[0]
    for cut in range(len(payload)):
        with pytest.raises(wire.ProtocolError):
            wire.decode_message(payload[:cut])
    frame = bytearray(wire.pack_frame(payload))
    index = data.draw(st.integers(0, len(frame) - 1))
    frame[index] ^= data.draw(st.integers(1, 255))
    header, body = bytes(frame[:8]), bytes(frame[8:])
    with pytest.raises(wire.ProtocolError):
        wire.frame_length(header)
        wire.decode_message(wire.check_frame(header, body))
    # Past the CRC (a hostile peer computes its own) the decoder
    # still only ever answers with rows or a ProtocolError.
    try:
        wire.decode_message(body)
    except wire.ProtocolError:
        pass


def test_bad_utf8_in_an_inlined_string():
    payload = bytes((wire.MSG_RECORD, 1, 1, 5, 2, 0xC3, 0x28))
    with pytest.raises(wire.ProtocolError, match="utf-8"):
        wire.decode_message(payload)


def test_mutate_roundtrip_with_props_map():
    msg_type, fields = roundtrip(wire.encode_mutate(
        "add_vertex", [["Drug", "Generic"], {"name": "x", "tier": 2}]
    ))
    assert msg_type == wire.MSG_MUTATE
    assert fields["op"] == "add_vertex"
    assert fields["args"] == [["Drug", "Generic"],
                              {"name": "x", "tier": 2}]


def test_mutate_rejects_unknown_op_and_bad_arity():
    with pytest.raises(wire.ProtocolError):
        wire.encode_mutate("drop_table", [])
    bad = bytearray((wire.MSG_MUTATE,))
    from repro.graphdb.storage.codec import write_str

    write_str(bad, "remove_edge")
    wire.write_wire_value(bad, [1, 2, 3])  # remove_edge wants 1 arg
    with pytest.raises(wire.ProtocolError, match="expects 1"):
        wire.decode_message(bytes(bad))


def test_error_roundtrip():
    msg_type, fields = roundtrip(
        wire.encode_error("QueryTimeoutError", "took too long")
    )
    assert msg_type == wire.MSG_ERROR
    assert fields == {
        "code": "QueryTimeoutError", "message": "took too long",
    }


def test_unknown_message_type_and_truncated_body():
    with pytest.raises(wire.ProtocolError, match="unknown"):
        wire.decode_message(b"\xee")
    with pytest.raises(wire.ProtocolError, match="malformed"):
        wire.decode_message(bytes((wire.MSG_RUN,)) + b"\x05ab")
    with pytest.raises(wire.ProtocolError, match="empty"):
        wire.decode_message(b"")


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_error_code_walks_the_hierarchy():
    assert wire.error_code(QueryTimeoutError("x")) == "QueryTimeoutError"
    assert wire.error_code(ResourceLimitError("x")) == "ResourceLimitError"
    assert wire.error_code(QuerySyntaxError("x")) == "QuerySyntaxError"
    assert wire.error_code(ValueError("x")) == "GraphError"

    class CustomTxError(TransactionError):
        pass

    assert wire.error_code(CustomTxError("x")) == "TransactionError"


def test_exception_for_rehydrates_driver_classes():
    exc = wire.exception_for("TransactionError", "nope")
    assert isinstance(exc, TransactionError)
    assert str(exc) == "nope"
    assert isinstance(
        wire.exception_for("NoSuchError", "m"), GraphError
    )
    assert isinstance(
        wire.exception_for("ProtocolError", "m"), wire.ProtocolError
    )


def test_crc_is_of_payload_only():
    payload = wire.encode_success({"a": 1})
    frame = wire.pack_frame(payload)
    length, crc = struct.unpack("<II", frame[:8])
    assert length == len(payload)
    assert crc == zlib.crc32(payload)
