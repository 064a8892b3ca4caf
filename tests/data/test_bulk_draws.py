"""The generator's draw object draws what ``random.Random`` draws.

One ``_Draws`` and one ``random.Random`` start from the same seed and
get the same requests in the same order: ``below(n, count)`` against
``count`` calls of ``_randbelow(n)``, ``shuffle`` against
``rng.shuffle``, and ``samples(n, k, calls)`` against ``calls`` calls
of ``rng.sample(range(n), k)``, on the pool path and on the set path.
Every step must return the scalar calls' values, so each request also
checks that the one before left the cursor where ``rng`` stands.  Each
test's fixed requests cover an edge of CPython's rules (the rejection
rule's powers of two up to ``2**32 - 1``, counts 0, 1 and 40, the
set-size threshold, calls full of repeats); as many requests of every
kind are mixed in, and the order is drawn, from ``REPRO_DIFF_SEED``,
so CI's randomized-seed step checks fresh sequences on each
interpreter it runs.
"""

from __future__ import annotations

import math
import os
import random
from array import array

import numpy as np
import pytest

from repro.data import generator
from repro.data.generator import _Draws, _sample_uses_set
from repro.data.logical import LogicalDataset
from repro.exceptions import DataGenerationError

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))

#: One word per attempt: ``n.bit_length() <= 32``.
POWERS = [
    n for j in range(1, 33) for n in (2**j - 1, 2**j, 2**j + 1) if n < 2**32
]


def setsize(k: int) -> int:
    """CPython's ``sample``: the set path is ``n > setsize(k)``."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def set_path(k: int) -> list[int]:
    """Set-path population sizes: full of repeats just past the set
    size, few far above it."""
    return [setsize(k) + 1, setsize(k) + 2, 40 * setsize(k)]


def seeded_request(picker: random.Random, kind: str | None = None) -> tuple:
    kind = kind or picker.choice(["below", "shuffle", "pool", "set"])
    if kind == "below":
        n = picker.choice([picker.randrange(1, 64), picker.randrange(2**32)])
        return ("below", n or 1, picker.randrange(300))
    if kind == "shuffle":
        return ("shuffle", picker.randrange(300))
    k = picker.choice([picker.randrange(1, 6), picker.randrange(6, 80)])
    if kind == "pool":
        n = picker.randrange(k, setsize(k) + 1)
    else:
        n = setsize(k) + picker.choice([1, picker.randrange(1, 50), 5000])
    return ("samples", n, k, picker.randrange(80))


def scalar(rng: random.Random, request: tuple) -> list[int]:
    kind, *args = request
    if kind == "below":
        n, count = args
        return [rng._randbelow(n) for _ in range(count)]
    if kind == "shuffle":
        x = list(range(args[0]))
        rng.shuffle(x)
        return x
    n, k, calls = args
    return [i for _ in range(calls) for i in rng.sample(range(n), k)]


def drawn(draws: _Draws, request: tuple) -> list[int]:
    kind, *args = request
    if kind == "shuffle":
        x = list(range(args[0]))
        draws.shuffle(x)
        return x
    values = getattr(draws, kind)(*args)
    assert values.dtype == np.int64
    return values.tolist()


def assert_in_step(requests: list[tuple], seed: int = SEED) -> None:
    """Fixed ``requests`` and as many seeded ones, in a seeded order,
    give the draw object and ``random.Random`` the same values."""
    picker = random.Random(f"{seed} {requests}")
    requests = requests + [seeded_request(picker) for _ in requests]
    picker.shuffle(requests)
    draws, rng = _Draws(random.Random(seed)), random.Random(seed)
    for step, request in enumerate(requests):
        assert drawn(draws, request) == scalar(rng, request), (step, request)


@pytest.mark.parametrize("n", [1, 2, 7] + POWERS)
def test_randbelow_equals_the_scalar_calls(n):
    assert_in_step([("below", n, count) for count in (0, 1, 40)])


def test_randbelow_seeded_cases():
    picker = random.Random(SEED)
    assert_in_step([seeded_request(picker, "below") for _ in range(20)])


def test_randbelow_refuses_what_it_cannot_draw():
    # 2**32 is a 33-bit bound: CPython draws it two words per attempt.
    draws = _Draws(random.Random(1))
    for n in (0, -1, 2**32, 2**32 + 1):
        with pytest.raises(ValueError):
            draws.below(n, 1)
        with pytest.raises(ValueError):
            draws.each([5, n])
    with pytest.raises(ValueError):  # more than the population
        draws.samples(3, 4, 1)


def test_shuffles_and_pool_samples_equal_the_scalar_calls():
    requests = [("shuffle", length) for length in (0, 1, 2, 3, 30, 500)]
    for k in (1, 3, 5, 6, 9, 22):
        assert not _sample_uses_set(setsize(k), k)
        requests += [
            ("samples", n, k, calls)
            for n in (k, k + 1, setsize(k)) for calls in (0, 1, 60)
        ]
    assert_in_step(requests)


def test_set_size_rule():
    # The threshold as CPython computes it, at k <= 5 and k > 5.
    assert [setsize(k) for k in (1, 5, 6, 21, 22)] == [21, 21, 85, 85, 277]
    for k in (1, 5, 6, 30):
        assert not _sample_uses_set(setsize(k), k)
        assert _sample_uses_set(setsize(k) + 1, k)


@pytest.mark.parametrize("k", [1, 3, 5, 6, 9, 22])
def test_sample_set_equals_the_scalar_calls(k):
    assert all(_sample_uses_set(n, k) for n in set_path(k))
    assert_in_step([
        ("samples", n, k, calls) for n in set_path(k) for calls in (0, 1, 60)
    ])


def test_sample_set_seeded_cases():
    picker = random.Random(SEED + 1)
    assert_in_step([seeded_request(picker, "set") for _ in range(20)])


def test_short_buffers_are_topped_up(monkeypatch):
    # Below the expected need, draws run out of words (or values) and
    # read again, twice as many.
    monkeypatch.setattr(generator, "_HEADROOM", -4)
    reads = []
    window = _Draws._window
    monkeypatch.setattr(
        _Draws, "_window", lambda self, size: reads.append(size)
        or window(self, size)
    )
    requests = [
        ("below", 7, 500), ("below", 2**31 + 1, 500), ("shuffle", 30),
        ("samples", 20, 9, 12), ("samples", 22, 5, 100),
        ("samples", 5000, 40, 30),
    ]
    assert_in_step(requests)
    assert len(reads) > 2 * len(requests)


class TestAddLinkIds:
    def test_ndarray_and_list_append_the_same(self, fig2):
        lists, arrays = LogicalDataset(fig2), LogicalDataset(fig2)
        lists.add_link_ids("r0001", [0, 2], [1, 0])
        lists.add_link_ids("r0001", [5], [3])
        arrays.add_link_ids("r0001", np.array([0, 2]), [1, 0])
        arrays.add_link_ids(
            "r0001", np.array([5], np.int32), np.array([3], np.int64)
        )
        assert arrays.link_ids == lists.link_ids == {
            "r0001": (array("q", [0, 2, 5]), array("q", [1, 0, 3]))
        }

    def test_empty_ndarray_adds_no_key(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_link_ids("r0001", np.empty(0, np.int64), np.empty(0))
        assert ds.link_ids == {}

    def test_length_mismatch_raises_before_adding(self, fig2):
        ds = LogicalDataset(fig2)
        with pytest.raises(DataGenerationError, match="2 link sources"):
            ds.add_link_ids("r0001", np.array([0, 1]), np.array([1]))
        assert ds.link_ids == {}
