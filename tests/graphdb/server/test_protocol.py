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
from repro.graphdb.api.result import _Cursor
from repro.graphdb.query.executor import EdgeBinding, VertexBinding
from repro.graphdb.server import protocol as wire
from repro.graphdb.storage import columns


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
    assert fields == {"count": 1, "columns": [[v] for v in values]}
    # Decoded refs are the executor's real binding types, so remote
    # rows compare equal to in-process rows.
    assert isinstance(fields["columns"][0][0], VertexBinding)
    assert fields["columns"][6][0] is True


# ----------------------------------------------------------------------
# RECORD chunks
# ----------------------------------------------------------------------
def decode_chunk(payloads, width: int) -> tuple[int, list[list]]:
    """The frames of one encoded chunk, joined back into one."""
    count, columns = 0, [[] for _ in range(width)]
    for payload in payloads:
        msg_type, fields = roundtrip(payload)
        assert msg_type == wire.MSG_RECORD
        assert len(fields["columns"]) == width
        count += fields["count"]
        for column, part in zip(columns, fields["columns"]):
            assert len(part) == fields["count"]
            column += part
    return count, columns


def same(a, b) -> bool:
    """Equality that tells 0.0 from -0.0 and 1 from True, and finds
    NaN equal to itself."""
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b) and len(a) == len(b)
            and all(map(same, a, b))
        )
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return type(a) is type(b) and a == b


strings = st.one_of(
    st.text(max_size=8),  # the empty string included
    st.text(alphabet="a\u00e9\u4e2d\U0001f600", min_size=40, max_size=140),
    st.sampled_from(["x" * 127, "x" * 128, "\u00e9" * 63, "\u00e9" * 64]),
    # A NUL sends its column to the values form.
    st.text(alphabet="a\x00\u00e9", max_size=3),
)
#: Ref ids in a byte, in int64 and one past int64 (the values form).
vertex_refs = st.builds(VertexBinding, st.one_of(
    st.integers(0, 300), st.sampled_from([2**40, 2**63 - 1, 2**63]),
))
edge_refs = st.builds(EdgeBinding, st.integers(0, 2**40))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True),
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0]),
    strings,
    st.builds(VertexBinding, st.integers(0, 2**40)),
    st.builds(EdgeBinding, st.integers(0, 2**40)),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=8
)
#: Lists only, of any depth: empty, nested, holding None, refs or a
#: mix - a column of them takes the list form.  Their items are short:
#: the flattened items are an ordinary column, which the long strings
#: above already exercise.
lists = st.recursive(
    st.lists(st.one_of(
        st.none(), st.booleans(), st.integers(-70, 300),
        st.floats(allow_nan=True), st.text(alphabet="a\x00\u00e9", max_size=3),
        vertex_refs, edge_refs,
    ), max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
#: What one column may hold: the typed forms, and every neighbour that
#: must leave them - a bool beside ints (and come back a bool), an int
#: one past either end of int64 or of a byte, a None among strings, a
#: string holding a NUL, a ref id past int64.
column_values = [
    strings,
    st.integers(0, 255),
    st.integers(-70, 300),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63) - 1, -(2**63), -1, 0, 255, 256,
                     2**63 - 1, 2**63]),
    st.integers(-(2**70), 2**70),
    st.one_of(st.booleans(), st.integers(0, 3)),
    st.one_of(st.none(), strings),
    st.floats(allow_nan=True),
    values,
    vertex_refs,
    edge_refs,
    lists,
    st.lists(st.text(max_size=8), max_size=3),
    st.lists(vertex_refs, max_size=3),
]


@st.composite
def chunks(draw, min_count=0):
    width = draw(st.integers(1, 6))
    count = draw(st.sampled_from(
        [n for n in (0, 1, 2, 7) if n >= min_count]
    ))
    return count, [
        draw(st.lists(
            draw(st.sampled_from(column_values)),
            min_size=count, max_size=count,
        ))
        for _ in range(width)
    ]


@settings(max_examples=200, deadline=None)
@given(chunk=chunks())
def test_record_batch_roundtrip(chunk):
    count, columns = chunk
    payloads = wire.encode_chunk(count, columns)
    assert len(payloads) == (1 if count else 0)
    decoded = decode_chunk(payloads, len(columns))
    assert decoded[0] == count and same(decoded[1], columns)


@pytest.mark.parametrize("column, tag", [
    (["a", "", "\u4e2d"], columns.COL_STR),
    ([0, 255], columns.COL_BYTES),
    ([0, 256], columns.COL_INT64),
    ([-1, 0], columns.COL_INT64),
    ([-(2**63), 2**63 - 1], columns.COL_INT64),
    ([0, 2**63], columns.COL_VALUES),
    ([-(2**63) - 1], columns.COL_VALUES),
    ([1, True], columns.COL_VALUES),
    (["a", None], columns.COL_VALUES),
    (["a\x00", "b"], columns.COL_VALUES),
    ([1.5, 2.5], columns.COL_FLOAT64),
    ([1, "a"], columns.COL_VALUES),
    ([[], [1, None]], columns.COL_LIST),
    ([VertexBinding(1), VertexBinding(2**63 - 1)], wire.COL_VERTEX),
    ([VertexBinding(2**63)], columns.COL_VALUES),
    ([EdgeBinding(0)], wire.COL_EDGE),
    ([VertexBinding(0), EdgeBinding(0)], columns.COL_VALUES),
    ([1.5, 2], columns.COL_VALUES),
])
def test_which_form_a_column_takes(column, tag):
    payload = wire.encode_chunk(len(column), [column])[0]
    assert payload[:4] == bytes((wire.MSG_RECORD, len(column), 1, tag))
    assert same(wire.decode_message(payload)[1]["columns"], [column])


def test_the_layout_is_pinned():
    """Fixed chunks against their bytes, one per column form: the
    layout cannot drift without this test - and PROTOCOL_VERSION -
    changing."""
    golden = [
        # str (a NUL-joined blob, a 2-byte char) | bytes | int64
        ((3, [["ab", "", "d\u00e9"], [0, 7, 255], [-1, 256, 2**40]]),
         "710303" "01" "07" "616200" "00" "64c3a9" "02" "0007ff"
         "03" "ffffffffffffffff" "0001000000000000" "0000000000010000"),
        # values: None, bool, float, big int, vertex / edge ref, list
        ((2, [[None, True], [1.5, 2**64], [VertexBinding(5), [EdgeBinding(6), "x"]]]),
         "710203" "00" "0002" "00" "04000000000000f83f"
         "0380808080808080808004" "00" "4005" "4202" "4106" "050178"),
        # float64 (protocol 5; protocol 4 sent wire values)
        ((2, [[1.5, -0.25]]),
         "710201" "07" "000000000000f83f" "000000000000d0bf"),
        # str with a two-byte length (130 x "x")
        ((1, [["x" * 130]]), "710101" "01" "8201" + "78" * 130),
        # list: lengths [2, 0, 1] | items ["a", None, "b"] (values form)
        ((3, [[["a", None], [], ["b"]]]),
         "710301" "04" "02" "020001" "00" "050161" "00" "050162"),
        # list of lists of vertex refs: 2 lists of 1 and 2 items, then
        # 3 lists of 1, 0 and 1 refs
        ((1, [[[[VertexBinding(3)], [], [VertexBinding(300)]]]]),
         "710101" "04" "02" "03" "04" "02" "010001"
         "05" "03" "0300000000000000" "2c01000000000000"),
        # vertex refs in a byte | edge refs in int64
        ((2, [[VertexBinding(5), VertexBinding(6)],
              [EdgeBinding(6), EdgeBinding(2**40)]]),
         "710202" "05" "02" "0506"
         "06" "03" "0600000000000000" "0000000000010000"),
    ]
    for (count, columns), hexed in golden:
        payload, = wire.encode_chunk(count, columns)
        assert payload.hex() == hexed
        assert same(
            wire.decode_message(payload)[1],
            {"count": count, "columns": columns},
        )


def test_empty_batch_and_one_row_form():
    assert wire.encode_chunk(0, [[], [], []]) == []
    # An empty chunk is still a well-formed message: every column is
    # there, with nothing in it.
    empty = bytes(
        (wire.MSG_RECORD, 0, 2, columns.COL_STR, 0, columns.COL_VALUES)
    )
    assert wire.decode_message(empty) == (
        wire.MSG_RECORD, {"count": 0, "columns": [[], []]}
    )
    assert wire.encode_record(("a", 1)) == wire.encode_chunk(
        1, [["a"], [1]]
    )[0]


def test_ragged_batch_rejected_on_encode():
    for count, columns in [
        (2, [["a", "b"], [1]]),
        (2, [["a", "b", "c"], [1, 2]]),
        (1, [["a", "b"], [1, 2]]),
    ]:
        with pytest.raises(wire.ProtocolError, match="ragged"):
            wire.encode_chunk(count, columns)
    # And rows of two widths never become a chunk at all.
    for rows in [("a", 1), ("b",)], [("a", 1), ("b", 2, 3)]:
        cursor = _Cursor(["x", "y"])
        cursor._rows = iter(rows)
        with pytest.raises(ValueError):
            next(cursor.batches())


def test_big_batch_is_chunked_into_several_frames():
    columns = [
        [f"name-{i:06d}" for i in range(20_000)],
        list(range(20_000)),
        [None] * 20_000,
    ]
    payloads = wire.encode_chunk(20_000, columns)
    # The cut is by rows and made before anything is encoded: a piece
    # is halved until it holds at most RECORD_FRAME_VALUES values.
    counts = [wire.decode_message(p)[1]["count"] for p in payloads]
    assert counts == [20_000 // 16] * 16
    assert 3 * counts[0] <= wire.RECORD_FRAME_VALUES < 6 * counts[0]
    assert decode_chunk(payloads, 3) == (20_000, columns)
    # One row wider than the budget still travels, alone.
    wide = [[i] for i in range(wire.RECORD_FRAME_VALUES + 1)]
    assert len(wire.encode_chunk(1, wide)) == 1
    assert len(wire.encode_chunk(3, [c * 3 for c in wide])) == 3


def test_frame_over_the_limit_is_halved_by_rows(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 600)
    columns = [[f"{i:02d}" + "x" * 98 for i in range(64)], list(range(64))]
    payloads = wire.encode_chunk(64, columns)
    assert len(payloads) >= 16
    assert all(len(payload) <= 600 for payload in payloads)
    assert decode_chunk(payloads, 2) == (64, columns)
    # One row too big for a frame of its own is left to pack_frame.
    columns[0][40] = "y" * 2000
    payloads = wire.encode_chunk(64, columns)
    assert [len(p) > 600 for p in payloads].count(True) == 1
    with pytest.raises(wire.ProtocolError, match="exceeds"):
        [wire.pack_frame(payload) for payload in payloads]


def test_batch_header_cannot_claim_more_than_the_frame_holds():
    # 2**40 rows of width 0, of width 1 with no bytes behind them and
    # of width 1 with a few: refused before anything is allocated or
    # looped over.  So is a width with no room for its column tags.
    # Inside a column the same holds: a string blob too short for
    # count - 1 separators, list lengths summing past the frame.
    for count, width, tail in [
        (2**40, 0, b""), (2**40, 1, b""), (1, 0, b""),
        (2**40, 1, bytes((columns.COL_INT64,)) + b"\0" * 64),
        (2**40, 1, bytes((columns.COL_STR,)) + b"\0" * 64),
        (0, 2**40, b""), (0, 3, bytes((columns.COL_STR, 0))),
        (3, 1, bytes((columns.COL_STR, 1)) + b"a\0\0"),
        (1, 1, bytes((columns.COL_LIST, columns.COL_INT64))
         + struct.pack("<q", 2**40) + bytes((columns.COL_VALUES, 0))),
        (2, 1, bytes((columns.COL_LIST, columns.COL_BYTES, 200, 200, 0))),
    ]:
        payload = bytearray((wire.MSG_RECORD,))
        wire.write_uvarint(payload, count)
        wire.write_uvarint(payload, width)
        with pytest.raises(wire.ProtocolError, match="no room"):
            wire.decode_message(bytes(payload) + tail)


def record(count: int, width: int, *parts) -> bytes:
    return bytes((wire.MSG_RECORD, count, width)) + b"".join(
        part if isinstance(part, bytes) else bytes(part) for part in parts
    )


@pytest.mark.parametrize("payload, match", [
    # a string blob's length cut off, or past the end by one byte and
    # by 2**62
    (record(1, 1, [columns.COL_STR, 0x81]), "truncated uvarint"),
    (record(2, 1, [columns.COL_STR, 4], b"a\0b"), "truncated string"),
    (record(2, 1, [columns.COL_STR], b"\xff" * 8 + b"\x3f", b"a\0b"),
     "truncated string"),
    # a blob that splits into more or fewer values than count
    (record(2, 1, [columns.COL_STR, 1], b"a", b"\0"), "splits into 1"),
    (record(1, 1, [columns.COL_STR, 3], b"a\0b"), "splits into 2"),
    # an int column cut mid-value, a bytes column one short
    (record(2, 1, [columns.COL_INT64], b"\0" * 15), "truncated int"),
    (record(2, 2, [columns.COL_STR, 3], b"a\0b", [columns.COL_BYTES, 1]),
     "truncated int"),
    # list lengths that are not an int column, negative, or whose
    # items column ends early
    (record(1, 1, [columns.COL_LIST, columns.COL_STR, 1], b"1", [0, 0]),
     "not an int column"),
    (record(1, 1, [columns.COL_LIST, columns.COL_INT64],
            struct.pack("<q", -1), [0, 0]), "negative list length"),
    (record(1, 1, [columns.COL_LIST, columns.COL_BYTES, 2, columns.COL_BYTES, 1]),
     "truncated int"),
    # a ref column whose body is not an int column, or is cut off
    (record(1, 1, [wire.COL_VERTEX, columns.COL_STR, 1], b"a"),
     "not an int column"),
    (record(1, 1, [wire.COL_EDGE, columns.COL_VALUES, wire.WIRE_EDGE, 1]),
     "not an int column"),
    (record(2, 1, [wire.COL_VERTEX, columns.COL_INT64], b"\0" * 9),
     "truncated int"),
    (record(1, 1, [wire.COL_EDGE, columns.COL_BYTES]), "truncated int"),
    # a values column cut off, an unknown tag, a missing last column
    (record(2, 1, [columns.COL_VALUES, 0, 5, 9]), "truncated"),
    (record(1, 1, [0x7E, 0]), "unknown column tag"),
    (record(1, 2, [columns.COL_BYTES, 1, 0]), "no room"),
    (record(1, 2, [columns.COL_STR, 3], b"abc"), "truncated column"),
    # bytes left after the last column
    (record(1, 1, [columns.COL_BYTES, 1, 0]), "trailing"),
])
def test_hostile_column_frames(payload, match):
    with pytest.raises(wire.ProtocolError, match=match):
        wire.decode_message(payload)


def test_list_columns_nested_past_the_recursion_limit():
    """One list of one list ... 50,000 deep: an error, not a crash."""
    deep = record(
        1, 1, [columns.COL_LIST, columns.COL_BYTES, 1] * 50_000,
        [columns.COL_VALUES, 0],
    )
    with pytest.raises(wire.ProtocolError, match="nested too deep"):
        wire.decode_message(deep)


@settings(max_examples=60, deadline=None)
@given(chunk=chunks(min_count=1), data=st.data())
def test_damaged_batch_is_a_protocol_error(chunk, data):
    """Every strict prefix and every one-byte corruption of a frame
    fails as ProtocolError - never another exception, never a hang."""
    payload = wire.encode_chunk(*chunk)[0]
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
    # still only ever answers with a chunk or a ProtocolError.
    try:
        msg_type, fields = wire.decode_message(body)
    except wire.ProtocolError:
        return
    assert msg_type != wire.MSG_RECORD or all(
        len(column) == fields["count"] for column in fields["columns"]
    )


def test_bad_utf8_in_an_inlined_string():
    bad = record(1, 1, [columns.COL_STR, 2, 0xC3, 0x28])
    with pytest.raises(wire.ProtocolError, match="utf-8"):
        wire.decode_message(bad)
    # NUL is no byte of a multi-byte UTF-8 sequence: a separator that
    # cuts a character in two leaves a blob that does not decode, not
    # two mojibake values.
    split = record(2, 1, [columns.COL_STR, 4], b"a\xc3\0\xa9")
    with pytest.raises(wire.ProtocolError, match="utf-8"):
        wire.decode_message(split)
    whole = record(2, 1, [columns.COL_STR, 5], "a\u00e9\0b".encode())
    assert wire.decode_message(whole)[1]["columns"] == [["a\u00e9", "b"]]


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
