"""The shared column codec, called directly: round trips, the form each
column takes, and damaged input - which must fail as ``CodecError``
whatever the bytes say, with no checksum in front of the decoder."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb.storage import columns
from repro.graphdb.storage.codec import CodecError


def same(a, b) -> bool:
    """Equality that tells 0.0 from -0.0 and 1 from True, and finds
    NaN equal to itself."""
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return type(a) is type(b) and a == b


def encode(column: list) -> bytes:
    buf = bytearray()
    columns.write_column(buf, column)
    return bytes(buf)


strings = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="aé中\U0001f600", min_size=40, max_size=140),
    st.text(alphabet="a\x00é", max_size=3),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True), strings,
)
#: One column's values: every form, and every neighbour that must
#: leave it - a bool beside ints, an int past int64 or a byte, a None
#: among strings, a string holding a NUL, an int beside floats.
column_values = [
    strings,
    st.integers(0, 255),
    st.integers(-70, 300),
    st.sampled_from([-(2**63) - 1, -(2**63), -1, 0, 255, 256,
                     2**63 - 1, 2**63]),
    st.one_of(st.booleans(), st.integers(0, 3)),
    st.one_of(st.none(), strings),
    st.floats(allow_nan=True),
    st.one_of(st.floats(allow_nan=False), st.integers(0, 3)),
    st.recursive(scalars, lambda inner: st.lists(inner, max_size=4),
                 max_leaves=8),
    st.lists(st.floats(allow_nan=True), max_size=4),
    st.lists(st.integers(-70, 2**40), max_size=4),
    st.lists(st.booleans(), max_size=4),
    st.lists(strings, max_size=3),
    st.lists(st.lists(st.integers(0, 300), max_size=3), max_size=3),
]


@st.composite
def a_column(draw, min_size=0):
    values = draw(st.sampled_from(column_values))
    return draw(st.lists(values, min_size=min_size, max_size=7))


@settings(max_examples=100, deadline=None)
@given(column=a_column())
def test_roundtrip(column):
    data = encode(column)
    decoded, pos = columns.read_column(data, 0, len(column))
    assert pos == len(data) and same(decoded, column)


@pytest.mark.parametrize("column, tag", [
    (["a", "", "中"], columns.COL_STR),
    (["a\x00", "b"], columns.COL_VALUES),
    (["a", None], columns.COL_VALUES),
    ([0, 255], columns.COL_BYTES),
    ([-1, 2**63 - 1], columns.COL_INT64),
    ([0, 2**63], columns.COL_VALUES),
    ([1, True], columns.COL_VALUES),
    ([True, False], columns.COL_VALUES),
    ([1.5, -0.0, math.inf], columns.COL_FLOAT64),
    ([1.5, 2], columns.COL_VALUES),
    ([[1.5], [], [2.5, 3.5]], columns.COL_LIST),
    ([[1, 2**40]], columns.COL_LIST),
    ([[True], [False, True]], columns.COL_LIST),
    ([["x", "y"], ["z"]], columns.COL_LIST),
    ([[1], None], columns.COL_VALUES),
    ([], columns.COL_VALUES),
])
def test_which_form_a_column_takes(column, tag):
    data = encode(column)
    assert data[0] == tag
    assert same(columns.read_column(data, 0, len(column))[0], column)


def test_list_items_take_their_own_form():
    """A list column's items are one column of their own: floats pack
    as f64, ints in a byte as bytes, strings as one blob."""
    assert encode([[1.5], [], [2.5]]) == (
        bytes((columns.COL_LIST, columns.COL_BYTES, 1, 0, 1,
               columns.COL_FLOAT64)) + struct.pack("<2d", 1.5, 2.5)
    )
    assert encode([["ab", "c"]]) == bytes(
        (columns.COL_LIST, columns.COL_BYTES, 2, columns.COL_STR, 4)
    ) + b"ab\0c"


@pytest.mark.parametrize("ints", [[], [0, 255], [-1, 2**40], [7]])
def test_an_array_and_a_list_of_ints_encode_alike(ints):
    """The snapshot's edge ids go in and out as numpy arrays, in the
    same bytes as a list of the same ints."""
    as_list, as_array = bytearray(), bytearray()
    columns.write_int_column(as_list, ints)
    columns.write_int_column(as_array, np.array(ints, dtype=np.int64))
    assert as_list == as_array
    data = bytes(as_array)
    decoded, pos = columns.read_int_column(data, 0, len(ints), array=True)
    assert decoded.dtype == np.int64 and decoded.tolist() == ints
    assert pos == len(data)
    with pytest.raises(CodecError, match="truncated"):
        columns.read_int_column(data, 0, len(ints) + 1, array=True)


@settings(max_examples=50, deadline=None)
@given(column=a_column(min_size=1), data=st.data())
def test_damaged_column_is_a_codec_error(column, data):
    """Every strict prefix fails; a flipped byte or a wrong count
    either decodes to exactly ``count`` values or fails as CodecError -
    never another exception, never a hang."""
    encoded = encode(column)
    count = len(column)
    for cut in range(len(encoded)):
        with pytest.raises(CodecError):
            columns.read_column(encoded[:cut], 0, count)
    damaged = bytearray(encoded)
    index = data.draw(st.integers(0, len(damaged) - 1))
    damaged[index] ^= data.draw(st.integers(1, 255))
    bad_count = data.draw(st.sampled_from(
        [count, count + 1, count - 1, 2**40, 2**62]
    ))
    for raw, n in ((bytes(damaged), count), (encoded, bad_count)):
        try:
            decoded, pos = columns.read_column(raw, 0, n)
        except CodecError:
            continue
        assert len(decoded) == n and pos <= len(raw)


@pytest.mark.parametrize("body", [
    bytes((columns.COL_STR, 3)) + b"a\0b",
    bytes((columns.COL_STR,)) + b"\xff" * 8 + b"\x3f" + b"ab",
    bytes((columns.COL_BYTES,)) + b"\0" * 16,
    bytes((columns.COL_INT64,)) + b"\0" * 16,
    bytes((columns.COL_FLOAT64,)) + b"\0" * 16,
    bytes((columns.COL_LIST, columns.COL_BYTES, 1, columns.COL_BYTES, 1)),
    bytes((columns.COL_LIST, columns.COL_INT64))
    + struct.pack("<q", 2**40) + bytes((columns.COL_VALUES, 0)),
    bytes((columns.COL_VALUES, 0, 0)),
])
def test_a_huge_count_is_refused_before_it_is_allocated(body):
    for count in (2**40, 2**62):
        with pytest.raises(CodecError):
            columns.read_column(body, 0, count)


@pytest.mark.parametrize("body, match", [
    (bytes((columns.COL_LIST, columns.COL_STR, 1)) + b"1", "not an int"),
    (bytes((columns.COL_LIST, columns.COL_INT64))
     + struct.pack("<q", -1), "negative list length"),
    (bytes((columns.COL_STR, 2, 0xC3, 0x28)), "utf-8"),
    (bytes((columns.COL_FLOAT64,)) + b"\0" * 7, "truncated float"),
    (bytes((0x05, columns.COL_BYTES, 1)), "unknown column tag"),
])
def test_hostile_columns(body, match):
    with pytest.raises(CodecError, match=match):
        columns.read_column(body, 0, 1)
