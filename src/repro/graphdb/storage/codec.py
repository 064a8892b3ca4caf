"""Binary encoding primitives shared by the snapshot codec and the WAL.

Everything on disk is built from three building blocks:

* **uvarint** - unsigned LEB128 (7 bits per byte, high bit = continue),
  the standard protobuf wire encoding for small non-negative integers;
* **svarint** - zigzag-mapped signed varint, so small negative ints stay
  short;
* **tagged values** - one tag byte followed by a tag-specific payload,
  covering every value a vertex or edge property of a
  :class:`~repro.graphdb.graph.PropertyGraph` can hold (``None``,
  bools, ints, floats, strings and nested lists thereof).

A column of values is :mod:`.columns`' job; its fallback form is
these tagged values.

Encoders append to a ``bytearray``; decoders take ``(data, pos)`` and
return ``(value, new_pos)`` so callers can walk a buffer without
slicing it.  Malformed input raises :class:`CodecError`, which the
snapshot reader and the WAL replayer translate into "corrupt record".
"""

from __future__ import annotations

import struct

from repro.exceptions import StorageError


class CodecError(StorageError):
    """Raised when a buffer cannot be decoded (truncated or malformed)."""


# Value tags.  Appending new tags is a compatible change; reusing or
# renumbering existing ones requires a snapshot/WAL version bump.
TAG_NONE = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_INT = 3
TAG_FLOAT = 4
TAG_STR = 5
TAG_LIST = 6

_FLOAT = struct.Struct("<d")

#: Decoding refuses single fields larger than this (64 MiB): a length
#: prefix beyond it means a torn or corrupt buffer, not real data.
MAX_FIELD_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    end = len(data)
    while True:
        if pos >= end:
            raise CodecError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # Property values may be arbitrary-precision Python ints; the
        # cap only guards against runaway continuation bits in corrupt
        # buffers (512 bits is far beyond any sane property value).
        if shift > 511:
            raise CodecError("uvarint too long")


def write_svarint(buf: bytearray, value: int) -> None:
    """Zigzag-encoded signed varint (-1 -> 1, 1 -> 2, -2 -> 3, ...)."""
    write_uvarint(
        buf, value << 1 if value >= 0 else ((-value) << 1) - 1
    )


def read_svarint(data: bytes, pos: int) -> tuple[int, int]:
    raw, pos = read_uvarint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


# ----------------------------------------------------------------------
# Strings
# ----------------------------------------------------------------------
def write_str(buf: bytearray, value: str) -> None:
    encoded = value.encode("utf-8")
    write_uvarint(buf, len(encoded))
    buf += encoded


def read_str(data: bytes, pos: int) -> tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    if length > MAX_FIELD_BYTES:
        raise CodecError(f"string length {length} exceeds limit")
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8: {exc}") from None


# ----------------------------------------------------------------------
# Tagged property values
# ----------------------------------------------------------------------
def write_value(buf: bytearray, value: object) -> None:
    if value is None:
        buf.append(TAG_NONE)
    elif value is True:
        buf.append(TAG_TRUE)
    elif value is False:
        buf.append(TAG_FALSE)
    elif isinstance(value, int):
        buf.append(TAG_INT)
        write_svarint(buf, value)
    elif isinstance(value, float):
        buf.append(TAG_FLOAT)
        buf += _FLOAT.pack(value)
    elif isinstance(value, str):
        buf.append(TAG_STR)
        write_str(buf, value)
    elif isinstance(value, (list, tuple)):
        buf.append(TAG_LIST)
        write_uvarint(buf, len(value))
        for item in value:
            write_value(buf, item)
    else:
        raise CodecError(
            f"unsupported property type {type(value).__name__!r}"
        )


def read_value(data: bytes, pos: int) -> tuple[object, int]:
    if pos >= len(data):
        raise CodecError("truncated value tag")
    tag = data[pos]
    pos += 1
    if tag == TAG_NONE:
        return None, pos
    if tag == TAG_TRUE:
        return True, pos
    if tag == TAG_FALSE:
        return False, pos
    if tag == TAG_INT:
        return read_svarint(data, pos)
    if tag == TAG_FLOAT:
        end = pos + 8
        if end > len(data):
            raise CodecError("truncated float")
        return _FLOAT.unpack_from(data, pos)[0], end
    if tag == TAG_STR:
        return read_str(data, pos)
    if tag == TAG_LIST:
        count, pos = read_uvarint(data, pos)
        if count > MAX_FIELD_BYTES:
            raise CodecError(f"list length {count} exceeds limit")
        items = []
        for _ in range(count):
            item, pos = read_value(data, pos)
            items.append(item)
        return items, pos
    raise CodecError(f"unknown value tag {tag}")


def write_props(buf: bytearray, props: dict[str, object]) -> None:
    """A property map: count, then (name, value) pairs in dict order."""
    write_uvarint(buf, len(props))
    for name, value in props.items():
        write_str(buf, name)
        write_value(buf, value)


def read_props(data: bytes, pos: int) -> tuple[dict[str, object], int]:
    count, pos = read_uvarint(data, pos)
    if count > MAX_FIELD_BYTES:
        raise CodecError(f"property count {count} exceeds limit")
    props: dict[str, object] = {}
    for _ in range(count):
        name, pos = read_str(data, pos)
        value, pos = read_value(data, pos)
        props[name] = value
    return props, pos
