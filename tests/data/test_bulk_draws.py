"""The generator's bulk draws equal CPython's scalar ones.

``_randbelow(rng, n, count)`` must return what ``count`` calls of
``rng._randbelow(n)`` return, and ``_sample_set(rng, n, k, calls)`` the
indices ``calls`` calls of ``rng.sample(range(n), k)`` pick; after
either, ``rng.getstate()`` must equal the scalar loop's, because the
generator's remaining scalar draws continue from it.  Fixed cases cover
the edges of CPython's rules (the rejection rule's powers of two, one
and two words per attempt, the set-size threshold, calls full of
repeats); more are drawn from ``REPRO_DIFF_SEED``, so CI's
randomized-seed step checks fresh cases on each interpreter it runs.
"""

from __future__ import annotations

import math
import os
import random
from array import array

import numpy as np
import pytest

from repro.data import generator
from repro.data.generator import _randbelow, _sample_set, _sample_uses_set
from repro.data.logical import LogicalDataset
from repro.exceptions import DataGenerationError

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))

POWERS = [n for j in range(1, 33) for n in (2**j - 1, 2**j, 2**j + 1)]


def setsize(k: int) -> int:
    """CPython's ``sample``: the set path is ``n > setsize(k)``."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def assert_randbelow(seed, n, count):
    bulk, scalar = random.Random(seed), random.Random(seed)
    got = _randbelow(bulk, n, count)
    assert got.dtype == np.int64
    assert got.tolist() == [scalar._randbelow(n) for _ in range(count)]
    assert bulk.getstate() == scalar.getstate()


def assert_sample(seed, n, k, calls):
    assert _sample_uses_set(n, k)
    bulk, scalar = random.Random(seed), random.Random(seed)
    population = range(n)
    got = _sample_set(bulk, n, k, calls)
    assert got.dtype == np.int64
    assert got.tolist() == [
        index for _ in range(calls) for index in scalar.sample(population, k)
    ]
    assert bulk.getstate() == scalar.getstate()


@pytest.mark.parametrize("n", [1, 2, 7] + POWERS)
def test_randbelow_equals_the_scalar_calls(n):
    for count in (0, 1, 40):
        assert_randbelow(n * 3 + count, n, count)


def test_randbelow_seeded_cases():
    rng = random.Random(SEED)
    for _ in range(20):
        n = rng.choice([rng.randrange(1, 64), rng.randrange(1, 2**33)])
        assert_randbelow(rng.randrange(2**32), n, rng.randrange(300))


def test_randbelow_refuses_what_it_cannot_draw():
    for n in (0, 2**63):
        with pytest.raises(ValueError):
            _randbelow(random.Random(1), n, 1)


def test_set_size_rule():
    # The threshold as CPython computes it, at k <= 5 and k > 5.
    assert [setsize(k) for k in (1, 5, 6, 21, 22)] == [21, 21, 85, 85, 277]
    for k in (1, 5, 6, 30):
        assert not _sample_uses_set(setsize(k), k)
        assert _sample_uses_set(setsize(k) + 1, k)


@pytest.mark.parametrize("k", [1, 3, 5, 6, 9, 22])
def test_sample_set_equals_the_scalar_calls(k):
    # At setsize + 1 calls are full of repeats; far above, few have any.
    for n in (setsize(k) + 1, setsize(k) + 2, 40 * setsize(k)):
        for calls in (0, 1, 60):
            assert_sample(n * 7 + calls, n, k, calls)


def test_sample_set_seeded_cases():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        k = rng.choice([rng.randrange(1, 6), rng.randrange(6, 80)])
        n = setsize(k) + rng.choice([1, rng.randrange(1, 50), 5000])
        assert_sample(rng.randrange(2**32), n, k, rng.randrange(80))


def test_short_buffers_are_topped_up(monkeypatch):
    # Below the expected need, every bulk draw reads words again and
    # every sample stream is drawn again, longer.
    monkeypatch.setattr(generator, "_HEADROOM", -4)
    for n in (7, 2**31 + 1, 2**32 + 1):
        assert_randbelow(n, n, 500)
    assert_sample(3, 22, 5, 100)
    assert_sample(4, 5000, 40, 30)


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
