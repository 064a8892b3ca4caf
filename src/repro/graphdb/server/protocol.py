"""The ``repro`` wire protocol: framed binary messages, stdlib-only.

Framing reuses the ``RPGWAL01`` record idiom - every message travels
as one self-describing frame::

    frame:   length u32 LE | crc u32 LE (zlib.crc32 of payload) | payload
    payload: msg_type u8   | message-specific fields

Fields are built from the storage codec's primitives (uvarint, tagged
values, property maps - :mod:`repro.graphdb.storage.codec`), so the
protocol needs no third-party serializer and shares its compatibility
discipline: appending message types or meta keys is compatible,
renumbering is a version bump negotiated in HELLO.

Message catalog (client -> server)::

    HELLO    0x01  version uvarint | client-info props
    RUN      0x02  query str | params props | options props
    PULL     0x03  n uvarint (n >= 1)
    DISCARD  0x04  (empty)
    GOODBYE  0x0F  (empty)
    BEGIN    0x10  (empty)
    COMMIT   0x11  (empty)
    ROLLBACK 0x12  (empty)
    MUTATE   0x13  op str | args wire-value list

and (server -> client)::

    SUCCESS  0x70  meta props
    RECORD   0x71  count uvarint | width uvarint | width x column
    ERROR    0x7F  code str | message str

A ``RECORD`` carries ``count`` rows column by column - what the
executor's batch path produces and the client cursor reads - so
neither side dispatches on a value's type once per value.  A column
is a tag byte and a body in a form of the one column codec,
:mod:`repro.graphdb.storage.columns` (str, bytes, int64, float64,
list and values - here wire values), which the snapshot's property
columns use too, or in one of two ref forms::

    0x05  vertex:  int column of vids  (every value a VertexBinding)
    0x06  edge:    int column of eids  (every value an EdgeBinding)

Protocol 5 added the float64 form (protocol 4 sent floats as values).

A ``RUN`` is answered by its first pull's ``RECORD`` frames and one
``SUCCESS`` that carries ``columns``, ``epoch`` and ``mode`` with the
pull's own meta; a ``PULL`` by its ``RECORD`` frames and one
``SUCCESS``.  That meta's ``has_more`` says whether to ``PULL`` again;
once it is false the same map holds the run's summary.  Frames
are cut by rows: a piece of more than :data:`RECORD_FRAME_VALUES`
values is halved before anything is encoded, and again should a frame
still come out over :data:`MAX_FRAME_BYTES`, so a pull fails only on
a row too big for a frame of its own.  A message's fields fill its
payload exactly: trailing bytes are an error, and so is nesting too
deep for the decoder's recursion.

``RUN`` options: ``timeout`` (float seconds), ``max_rows`` (int),
``explain`` (1 = plan only, 2 = EXPLAIN ANALYZE), ``pull`` (int >= 1:
the response carries the first pull of that many rows, so a result
that fits is one round trip of two frames).  ``MUTATE`` ops use
the WAL's mutation vocabulary (``add_vertex``, ``add_edge``,
``set_property``, ``remove_property``, ``remove_edge``,
``remove_vertex``, ``create_property_index``).

Wire values extend the codec's tagged values with four tags from the
reserved range, so result rows can carry graph entity references::

    0x40  vertex ref: uvarint vid   -> VertexBinding(vid)
    0x41  edge ref:   uvarint eid   -> EdgeBinding(eid)
    0x42  wire list:  uvarint n | n wire values
    0x43  wire map:   codec props   -> dict (MUTATE property payloads)

(The codec's own ``TAG_LIST`` still decodes - parameter maps use it -
but rows are encoded with wire lists so nested entity refs survive.)

``ERROR.code`` is the exception class name; the client maps it back
onto the driver hierarchy (:data:`ERROR_CLASSES`), so a remote
``QueryTimeoutError`` raises exactly like a local one.
"""

from __future__ import annotations

import struct
import zlib
from operator import attrgetter

from repro.exceptions import (
    GraphError,
    ParameterError,
    QueryError,
    QuerySyntaxError,
    QueryTimeoutError,
    ResourceLimitError,
    StorageError,
    TransactionError,
)
from repro.graphdb.query.executor import EdgeBinding, VertexBinding
from repro.graphdb.storage.codec import (
    CodecError,
    read_props,
    read_str,
    read_uvarint,
    read_value,
    write_props,
    write_str,
    write_uvarint,
    write_value,
)
from repro.graphdb.storage.columns import Dialect, read_column, write_column

#: Protocol revision carried in HELLO; the server refuses mismatches.
PROTOCOL_VERSION = 5

#: Default TCP port (one off Bolt's 7687, to coexist with a real Neo4j).
DEFAULT_PORT = 7688

_FRAME = struct.Struct("<II")
FRAME_HEADER_BYTES = _FRAME.size

#: A frame larger than this is a protocol violation, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Values (rows x width) a RECORD frame of several rows holds at most,
#: so a big pull is many frames and none nears :data:`MAX_FRAME_BYTES`.
RECORD_FRAME_VALUES = 4096

# Client -> server.
MSG_HELLO = 0x01
MSG_RUN = 0x02
MSG_PULL = 0x03
MSG_DISCARD = 0x04
MSG_GOODBYE = 0x0F
MSG_BEGIN = 0x10
MSG_COMMIT = 0x11
MSG_ROLLBACK = 0x12
MSG_MUTATE = 0x13

# Server -> client.
MSG_SUCCESS = 0x70
MSG_RECORD = 0x71
MSG_ERROR = 0x7F

MSG_NAMES = {
    MSG_HELLO: "hello",
    MSG_RUN: "run",
    MSG_PULL: "pull",
    MSG_DISCARD: "discard",
    MSG_GOODBYE: "goodbye",
    MSG_BEGIN: "begin",
    MSG_COMMIT: "commit",
    MSG_ROLLBACK: "rollback",
    MSG_MUTATE: "mutate",
    MSG_SUCCESS: "success",
    MSG_RECORD: "record",
    MSG_ERROR: "error",
}

# RECORD ref column tags, beside the shared forms of
# :mod:`repro.graphdb.storage.columns`.
COL_VERTEX = 0x05
COL_EDGE = 0x06

# Wire value tags (alongside the codec's 0-6 range).
WIRE_VERTEX = 0x40
WIRE_EDGE = 0x41
WIRE_LIST = 0x42
WIRE_MAP = 0x43

#: Mutation ops a MUTATE message may carry, with their arities.
MUTATION_OPS = {
    "add_vertex": 2,          # labels (str list), props
    "add_edge": 4,            # src, dst, label, props
    "set_property": 3,        # vid, name, value
    "remove_property": 2,     # vid, name
    "remove_edge": 1,         # eid
    "remove_vertex": 1,       # vid
    "create_property_index": 2,  # label, prop
}

#: ERROR code -> driver exception class (client-side mapping).  Codes
#: outside the table degrade to :class:`GraphError`.
ERROR_CLASSES = {
    "GraphError": GraphError,
    "ParameterError": ParameterError,
    "ProtocolError": lambda msg: ProtocolError(msg),
    "QueryError": QueryError,
    "QuerySyntaxError": QuerySyntaxError,
    "QueryTimeoutError": QueryTimeoutError,
    "ResourceLimitError": ResourceLimitError,
    "StorageError": StorageError,
    "TransactionError": TransactionError,
}


class ProtocolError(GraphError):
    """Raised for malformed frames, bad CRCs, or out-of-order messages."""


def error_code(exc: BaseException) -> str:
    """The wire code for an exception: the nearest mapped class name."""
    for cls in type(exc).__mro__:
        if cls.__name__ in ERROR_CLASSES:
            return cls.__name__
    return "GraphError"


def exception_for(code: str, message: str) -> GraphError:
    """Rehydrate a wire ERROR into the driver exception hierarchy."""
    factory = ERROR_CLASSES.get(code, GraphError)
    return factory(message)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def pack_frame(payload: bytes) -> bytes:
    """One wire frame: length + CRC header, then the payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds limit"
        )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def frame_length(header: bytes) -> int:
    """Payload length promised by an 8-byte frame header."""
    length, _crc = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds limit")
    return length


def check_frame(header: bytes, payload: bytes) -> bytes:
    """Validate a received payload against its header CRC."""
    length, crc = _FRAME.unpack(header)
    if len(payload) != length:
        raise ProtocolError(
            f"frame payload is {len(payload)} bytes, header says {length}"
        )
    if zlib.crc32(payload) != crc:
        raise ProtocolError("frame checksum mismatch")
    return payload


# ----------------------------------------------------------------------
# Wire values (codec values + entity references)
# ----------------------------------------------------------------------
def write_wire_value(buf: bytearray, value: object) -> None:
    if isinstance(value, VertexBinding):
        buf.append(WIRE_VERTEX)
        write_uvarint(buf, value.vid)
    elif isinstance(value, EdgeBinding):
        buf.append(WIRE_EDGE)
        write_uvarint(buf, value.eid)
    elif isinstance(value, (list, tuple)):
        buf.append(WIRE_LIST)
        write_uvarint(buf, len(value))
        for item in value:
            write_wire_value(buf, item)
    elif isinstance(value, dict):
        buf.append(WIRE_MAP)
        write_props(buf, value)
    else:
        write_value(buf, value)


def read_wire_value(data: bytes, pos: int) -> tuple[object, int]:
    if pos >= len(data):
        raise CodecError("truncated wire value")
    tag = data[pos]
    if tag == WIRE_VERTEX:
        vid, pos = read_uvarint(data, pos + 1)
        return VertexBinding(vid), pos
    if tag == WIRE_EDGE:
        eid, pos = read_uvarint(data, pos + 1)
        return EdgeBinding(eid), pos
    if tag == WIRE_LIST:
        count, pos = read_uvarint(data, pos + 1)
        if count > MAX_FRAME_BYTES:
            raise CodecError(f"wire list length {count} exceeds limit")
        items = []
        for _ in range(count):
            item, pos = read_wire_value(data, pos)
            items.append(item)
        return items, pos
    if tag == WIRE_MAP:
        return read_props(data, pos + 1)
    return read_value(data, pos)


#: RECORD columns: the shared forms, wire values as the values form,
#: and vertex and edge refs.
WIRE = Dialect(write_wire_value, read_wire_value, (
    (VertexBinding, COL_VERTEX, attrgetter("vid")),
    (EdgeBinding, COL_EDGE, attrgetter("eid")),
))


# ----------------------------------------------------------------------
# Message encoders
# ----------------------------------------------------------------------
def encode_hello(client: dict | None = None) -> bytes:
    buf = bytearray((MSG_HELLO,))
    write_uvarint(buf, PROTOCOL_VERSION)
    write_props(buf, client or {})
    return bytes(buf)


def encode_run(
    query: str,
    params: dict | None = None,
    options: dict | None = None,
) -> bytes:
    buf = bytearray((MSG_RUN,))
    write_str(buf, query)
    write_props(buf, params or {})
    write_props(buf, options or {})
    return bytes(buf)


def encode_pull(n: int) -> bytes:
    if n < 1:
        raise ProtocolError(f"PULL batch size must be positive, got {n}")
    buf = bytearray((MSG_PULL,))
    write_uvarint(buf, n)
    return bytes(buf)


def encode_mutate(op: str, args: tuple | list) -> bytes:
    if op not in MUTATION_OPS:
        raise ProtocolError(f"unsupported mutation op {op!r}")
    buf = bytearray((MSG_MUTATE,))
    write_str(buf, op)
    write_wire_value(buf, list(args))
    return bytes(buf)


def encode_success(meta: dict | None = None) -> bytes:
    buf = bytearray((MSG_SUCCESS,))
    write_props(buf, meta or {})
    return bytes(buf)


def encode_chunk(count: int, columns: list[list]) -> list[bytes]:
    """RECORD payloads carrying one ``(count, columns)`` chunk - column
    ``i`` holds the ``count`` values of result column ``i`` - in row
    order, cut into frames by the rule in the module docstring."""
    if any(len(column) != count for column in columns):
        raise ProtocolError(
            f"ragged chunk: columns of {[len(c) for c in columns]} "
            f"values in a chunk of {count} rows"
        )
    return _record_frames(columns, 0, count)


def _record_frames(columns: list[list], start: int, stop: int) -> list:
    count = stop - start
    if count <= 1 or count * len(columns) <= RECORD_FRAME_VALUES:
        if not count:
            return []
        buf = bytearray((MSG_RECORD,))
        write_uvarint(buf, count)
        write_uvarint(buf, len(columns))
        for column in columns:
            write_column(buf, column[start:stop], WIRE)
        if count == 1 or len(buf) <= MAX_FRAME_BYTES:
            return [bytes(buf)]
    half = (start + stop) // 2
    return _record_frames(columns, start, half) + _record_frames(
        columns, half, stop
    )


def encode_record(values: tuple | list) -> bytes:
    """The one-row form of a RECORD chunk."""
    return encode_chunk(1, [[value] for value in values])[0]


def _read_chunk(payload: bytes, pos: int) -> tuple[int, list[list], int]:
    count, pos = read_uvarint(payload, pos)
    width, pos = read_uvarint(payload, pos)
    # A column of n values takes at least n + 1 bytes (its tag, then a
    # byte per value or, for strings, a length and n - 1 separators):
    # whatever the header claims, nothing below allocates or loops
    # past the frame.
    if width * (count + 1) > len(payload) - pos or count and not width:
        raise CodecError(f"no room for {count} rows of width {width}")
    columns = []
    for _ in range(width):
        column, pos = read_column(payload, pos, count, WIRE)
        columns.append(column)
    return count, columns, pos


def encode_error(code: str, message: str) -> bytes:
    buf = bytearray((MSG_ERROR,))
    write_str(buf, code)
    write_str(buf, message)
    return bytes(buf)


def encode_simple(msg_type: int) -> bytes:
    """DISCARD / GOODBYE / BEGIN / COMMIT / ROLLBACK: the bare opcode."""
    return bytes((msg_type,))


# ----------------------------------------------------------------------
# Message decoder
# ----------------------------------------------------------------------
def decode_message(payload: bytes) -> tuple[int, dict]:
    """One payload -> ``(msg_type, fields)``.

    Raises :class:`ProtocolError` for unknown types, malformed bodies
    (codec errors are wrapped, so transport code has a single failure
    type) and bytes left over after the last field.
    """
    if not payload:
        raise ProtocolError("empty message payload")
    msg_type = payload[0]
    pos = 1
    try:
        if msg_type == MSG_HELLO:
            version, pos = read_uvarint(payload, pos)
            client, pos = read_props(payload, pos)
            fields = {"version": version, "client": client}
        elif msg_type == MSG_RUN:
            query, pos = read_str(payload, pos)
            params, pos = read_props(payload, pos)
            options, pos = read_props(payload, pos)
            fields = {
                "query": query, "params": params, "options": options,
            }
        elif msg_type == MSG_PULL:
            n, pos = read_uvarint(payload, pos)
            if n < 1:
                raise ProtocolError("PULL batch size must be positive")
            fields = {"n": n}
        elif msg_type == MSG_MUTATE:
            op, pos = read_str(payload, pos)
            args, pos = read_wire_value(payload, pos)
            if op not in MUTATION_OPS:
                raise ProtocolError(f"unsupported mutation op {op!r}")
            if (
                not isinstance(args, list)
                or len(args) != MUTATION_OPS[op]
            ):
                raise ProtocolError(
                    f"mutation {op!r} expects {MUTATION_OPS[op]} "
                    "arguments"
                )
            fields = {"op": op, "args": args}
        elif msg_type == MSG_SUCCESS:
            meta, pos = read_props(payload, pos)
            fields = {"meta": meta}
        elif msg_type == MSG_RECORD:
            count, columns, pos = _read_chunk(payload, pos)
            fields = {"count": count, "columns": columns}
        elif msg_type == MSG_ERROR:
            code, pos = read_str(payload, pos)
            message, pos = read_str(payload, pos)
            fields = {"code": code, "message": message}
        elif msg_type in (
            MSG_DISCARD, MSG_GOODBYE, MSG_BEGIN, MSG_COMMIT, MSG_ROLLBACK
        ):
            fields = {}
        else:
            raise ProtocolError(f"unknown message type 0x{msg_type:02x}")
    except CodecError as exc:
        raise ProtocolError(
            f"malformed {MSG_NAMES.get(msg_type, hex(msg_type))} "
            f"message: {exc}"
        ) from exc
    except RecursionError:
        # Lists nested past the interpreter's recursion limit (wire
        # lists, codec lists in params, list columns): one hostile
        # frame must cost its connection an ERROR, not the handler.
        raise ProtocolError(
            f"malformed {MSG_NAMES[msg_type]} message: nested too deep"
        ) from None
    if pos != len(payload):
        raise ProtocolError(
            f"trailing bytes after {MSG_NAMES[msg_type]} message"
        )
    return msg_type, fields
