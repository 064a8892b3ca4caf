"""``Record`` against its oracle, on drawn rows.

The driver's ``Record`` is a tuple subclass built in C; the oracle
(``record_oracle.Record``) is the two-slot Python class it replaced.
Every documented behaviour - name and index access, slices, ``get``,
the four views, ``len``, iteration, ``in``, equality against records,
tuples and lists, no hash and no order, ``repr``, pickle and copies -
must come out the same, down to the type of each value returned.
Only ``isinstance(record, tuple)`` (and tuple's own methods) differ.
"""

from __future__ import annotations

import copy
import os
import pickle
import random

import pytest

from repro.graphdb.api.result import Record
from tests.graphdb.api.record_oracle import Record as OracleRecord

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20261019"))
NAMES = ["a", "b", "name", "x y", ""]
NAN = float("nan")
#: ``True``, ``1`` and ``1.0`` are equal and must still come back as
#: themselves; ``"a"`` is also a column name, which ``in`` must not
#: find among the values.
VALUES = [None, [], [1, 2], NAN, True, 1, 1.0, False, 0, "s", "a", (1,)]


def draw(rng: random.Random) -> tuple[list[str], tuple]:
    keys = rng.sample(NAMES, rng.randint(0, 4))
    if keys and rng.random() < 0.4:  # a repeated name: the first wins
        keys.insert(rng.randint(0, len(keys)), rng.choice(keys))
    return keys, tuple(rng.choice(VALUES) for _ in keys)


def outcome(call):
    """What ``call()`` returns, or the type of what it raises."""
    try:
        return call()
    except (KeyError, IndexError, TypeError) as exc:
        return type(exc).__name__


def behaviour(make, keys: list[str], values: tuple, rng: random.Random):
    """Every documented observation of ``make(keys, values)``."""
    record = make(keys, values)
    others = [
        make(list(keys), tuple(values)),                  # equal
        make(keys[::-1], values),                         # other keys
        make(keys, tuple(rng.choice(VALUES) for _ in keys)),
        make(keys, tuple(float("nan") for _ in keys)),    # a fresh NaN
        tuple(values),
        list(values),
    ]
    n = len(values)
    fresh = record.keys()
    fresh.append("mutated")
    seen = [
        ("keys", record.keys(), record.keys() is not record.keys()),
        ("values", record.values()),
        ("items", record.items()),
        ("data", record.data()),
        ("len", len(record)),
        ("iter", list(record)),
        ("repr", repr(record)),
        ("hash", outcome(lambda: hash(record))),
    ]
    for name in NAMES + ["missing"]:
        seen.append((
            "name", name, outcome(lambda: record[name]),
            record.get(name), record.get(name, "default"), name in record,
        ))
    for i in range(-n - 1, n + 1):
        seen.append(("index", i, outcome(lambda: record[i])))
    for _ in range(4):
        cut = slice(
            rng.randint(-n - 1, n + 1), rng.randint(-n - 1, n + 1),
            rng.choice([None, 1, 2, -1]),
        )
        seen.append(("slice", cut, record[cut]))
    for value in VALUES:
        seen.append(("in", value, outcome(lambda: value in record)))
    for other in others:
        seen.append((
            "compare", record == other, other == record,
            record != other, other != record,
            outcome(lambda: record < other), outcome(lambda: other <= record),
            outcome(lambda: record > other), outcome(lambda: other >= record),
        ))
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        seen.append(("twin", twin == record, twin.keys(), twin.values()))
    return seen


@pytest.mark.parametrize("block", range(4))
def test_record_agrees_with_the_oracle(block):
    for draw_no in range(50):
        rng = random.Random(f"{SEED}-{block}-{draw_no}")
        keys, values = draw(rng)
        state = rng.getstate()
        got = behaviour(Record, keys, values, rng)
        rng.setstate(state)
        want = behaviour(OracleRecord, keys, values, rng)
        # repr keeps each value's type: True, 1 and 1.0 differ there,
        # as do a list and a tuple.
        assert repr(got) == repr(want), (keys, values)


def test_records_are_tuples_of_one_class_per_column_tuple():
    record = Record(["a", "b"], (1, 2))
    assert isinstance(record, Record) and issubclass(type(record), Record)
    assert isinstance(record, tuple) and record.index(2) == 1
    assert type(Record(("a", "b"), [3, 4])) is type(record)
    assert type(Record(["b", "a"], (1, 2))) is not type(record)
    assert not isinstance((1, 2), Record)
    assert not issubclass(tuple, Record)
    with pytest.raises(AttributeError):
        record.extra = 1
