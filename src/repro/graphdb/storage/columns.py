"""One codec for a column of values: snapshot property columns and the
wire's RECORD chunks.

A column is a tag byte and a body.  The writer takes the first form of
this table that holds every value of the column::

    0x01  str:      uvarint byte length | UTF-8 of the values joined
                    by NUL   (every value a ``str``, none holding a NUL)
    0x02  bytes:    count x u8        (every value an int in 0..255)
    0x03  int64:    count x i64 LE    (every value an int that fits)
    0x07  float64:  count x f64 LE    (every value a ``float``)
    0x04  list:     int column of lengths | column of the flattened
                    items   (every value a ``list``)
    0x00  values:   count x tagged value  (anything else: a ``bool``,
                    a ``None`` among strings, mixed columns)

An int column is the bytes or the int64 form.  A :class:`Dialect`
names the values form's codec and any ref forms (a tag, then an int
column of ids): the snapshot's writes :mod:`.codec` values, the
wire's writes wire values and adds vertex and edge refs.  Only the
values form takes a Python step per value.  The reader checks every length against the
bytes present before it allocates, and raises :class:`CodecError` on
malformed input.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, pairwise
from typing import Callable, NamedTuple

import numpy as np

from repro.graphdb.storage.codec import (
    CodecError,
    read_uvarint,
    read_value,
    write_uvarint,
    write_value,
)

COL_VALUES = 0x00
COL_STR = 0x01
COL_BYTES = 0x02
COL_INT64 = 0x03
COL_LIST = 0x04
COL_FLOAT64 = 0x07


class Dialect(NamedTuple):
    """The values form's codec, and ref forms as ``(type, tag, id
    getter)`` triples: a ref is built back by calling its type on the
    id."""

    write_value: Callable
    read_value: Callable
    refs: tuple = ()


STORAGE = Dialect(write_value, read_value)


def write_column(
    buf: bytearray, column: list, dialect: Dialect = STORAGE
) -> None:
    """Append ``column`` in the first form of the table that takes
    every value of it."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return _write_floats(buf, column)
    if kind is list:
        return _write_list(buf, column, dialect)
    if kind is str and _write_strs(buf, column):
        return
    if kind is int and write_int_column(buf, column):
        return
    for ref, tag, get_id in dialect.refs:
        if kind is ref and write_int_column(buf, [*map(get_id, column)], tag):
            return
    _write_values(buf, column, dialect)


def _write_strs(buf: bytearray, strs: list) -> bool:
    """The str form, or False (and nothing written) when a value holds
    a NUL."""
    text = "\x00".join(strs)
    if text.count("\x00") != len(strs) - 1:
        return False
    data = text.encode()
    buf.append(COL_STR)
    write_uvarint(buf, len(data))
    buf += data
    return True


def write_int_column(buf: bytearray, ints, tag: int | None = None) -> bool:
    """The bytes or the int64 form of a list or a numpy array of ints,
    after ``tag`` (a ref form's) if one is given; False, and nothing
    written, when an int does not fit in int64."""
    array = isinstance(ints, np.ndarray)
    if not len(ints):
        low = high = 0
    elif array:
        low, high = int(ints.min()), int(ints.max())
    else:
        low, high = min(ints), max(ints)
    if low < -(2**63) or high >= 2**63:
        return False
    if tag is not None:
        buf.append(tag)
    if 0 <= low and high <= 0xFF:
        buf.append(COL_BYTES)
        buf += ints.astype(np.uint8).tobytes() if array else bytes(ints)
    else:
        buf.append(COL_INT64)
        buf += ints.astype("<i8").tobytes() if array else struct.pack(
            f"<{len(ints)}q", *ints
        )
    return True


def _write_floats(buf: bytearray, floats: list) -> None:
    buf.append(COL_FLOAT64)
    buf += struct.pack(f"<{len(floats)}d", *floats)


def _write_list(buf: bytearray, lists: list, dialect: Dialect) -> None:
    buf.append(COL_LIST)
    write_int_column(buf, list(map(len, lists)))
    write_column(buf, list(chain.from_iterable(lists)), dialect)


def _write_values(buf: bytearray, values: list, dialect: Dialect) -> None:
    buf.append(COL_VALUES)
    for value in values:
        dialect.write_value(buf, value)


def read_column(
    data: bytes, pos: int, count: int, dialect: Dialect = STORAGE
) -> tuple[list, int]:
    """The column of ``count`` values at ``pos``, and the position past
    it."""
    if pos >= len(data):
        raise CodecError("truncated column")
    tag = data[pos]
    pos += 1
    if tag == COL_STR:
        return _read_strs(data, pos, count)
    if tag == COL_BYTES or tag == COL_INT64:
        return _read_ints(data, pos, count, tag)
    if tag == COL_FLOAT64:
        return _read_floats(data, pos, count)
    if tag == COL_LIST:
        return _read_list(data, pos, count, dialect)
    if tag == COL_VALUES:
        return _read_values(data, pos, count, dialect)
    for ref, ref_tag, _ in dialect.refs:
        if tag == ref_tag:
            ids, pos = read_int_column(data, pos, count)
            return list(map(ref, ids)), pos
    raise CodecError(f"unknown column tag 0x{tag:02x}")


def read_int_column(
    data: bytes, pos: int, count: int, array: bool = False
) -> tuple[list, int]:
    """A column that must be an int column (list lengths, ids): a list,
    or with ``array`` an int64 numpy array that is no view of
    ``data``."""
    if pos >= len(data):
        raise CodecError("truncated column")
    tag = data[pos]
    if tag != COL_BYTES and tag != COL_INT64:
        raise CodecError(f"column tag 0x{tag:02x} is not an int column")
    return _read_ints(data, pos + 1, count, tag, array)


def _read_strs(data: bytes, pos: int, count: int) -> tuple[list, int]:
    size, pos = read_uvarint(data, pos)
    end = pos + size
    if end > len(data):
        raise CodecError("truncated string column")
    if count > size + 1:
        raise CodecError(f"no room for {count} strings in {size} bytes")
    try:
        text = data[pos:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8: {exc}") from None
    column = text.split("\x00") if text or count else []
    if len(column) != count:
        raise CodecError(
            f"string column splits into {len(column)} values, not {count}"
        )
    return column, end


def _read_ints(
    data: bytes, pos: int, count: int, tag: int, array: bool = False
) -> tuple[list, int]:
    size = 1 if tag == COL_BYTES else 8
    end = pos + size * count
    if end > len(data):
        raise CodecError("truncated int column")
    if array:
        dtype = np.uint8 if size == 1 else "<i8"
        return np.frombuffer(data, dtype, count, pos).astype(np.int64), end
    if tag == COL_BYTES:
        return list(data[pos:end]), end
    return list(struct.unpack_from(f"<{count}q", data, pos)), end


def _read_floats(data: bytes, pos: int, count: int) -> tuple[list, int]:
    end = pos + 8 * count
    if end > len(data):
        raise CodecError("truncated float column")
    return list(struct.unpack_from(f"<{count}d", data, pos)), end


def _read_list(
    data: bytes, pos: int, count: int, dialect: Dialect
) -> tuple[list, int]:
    lengths, pos = read_int_column(data, pos, count)
    if min(lengths, default=0) < 0:
        raise CodecError("negative list length")
    total = sum(lengths)
    if total > len(data) - pos:
        raise CodecError(f"no room for {total} list items")
    items, pos = read_column(data, pos, total, dialect)
    cuts = pairwise(accumulate(lengths, initial=0))
    return [items[a:b] for a, b in cuts], pos


def _read_values(
    data: bytes, pos: int, count: int, dialect: Dialect
) -> tuple[list, int]:
    column = []
    for _ in range(count):
        value, pos = dialect.read_value(data, pos)
        column.append(value)
    return column, pos

