"""Synthetic instance-data generator.

Produces a :class:`~repro.data.logical.LogicalDataset` consistent with an
ontology and its :class:`~repro.ontology.stats.DataStatistics`:

* non-derived concepts get ``|c|`` base instances;
* every inheritance-parent instance is a *twin* of a child instance
  (one per (child instance, parent) pair), linked by an ``isA`` link;
* every union instance is a twin of a member instance (``unionOf`` link);
* functional links respect the relationship cardinalities (bijection for
  1:1, one source per destination for 1:M, ``|r|/|src|`` partners per
  source for M:N).

Property values are drawn from seeded pools so that groupings and
filters hit multiple instances; everything is deterministic given the
seed.

The rng draw order is a contract, pinned by the per-element oracle
(``tests/data/generator_oracle.py``) and by the digests in
``benchmarks/e2e/expected.json``:

1. base concepts in ``ontology.concepts`` order, instance by instance,
   one ``randrange(7)`` per non-identity property in property order;
2. derived concepts in sorted order, each after the concepts its
   structural relationships point at, the same draws per new twin;
3. functional relationships in ``iter_relationships()`` order: one
   ``shuffle`` for 1:1, one ``choice`` per destination for 1:M, one
   ``sample`` per source for M:N.

Within that order the work is batched: each concept's property layout
(name, identity or pooled, value formatter) is resolved once, the
pooled values are looked up in a seven-entry table, and each concept's
instances and each relationship's links are added in one call.  What
it adds is columns (:mod:`repro.data.logical`): one value list per
property and two int arrays per relationship.  The draws pick
positions in instance-id arrays; ``shuffle``, ``choice`` and ``sample``
draw the same whatever the elements are, so the ids pair up as the uids
once did.

That draw order is unchanged, but the draws are taken in bulk from the
same 32-bit word stream of the Mersenne Twister: ``getrandbits(32 *
w)`` returns the next ``w`` words, and numpy applies CPython's
``_randbelow`` rule (the top ``n.bit_length()`` bits of a word, a value
``>= n`` rejected) to all of them at once (:func:`_randbelow`); that
rule is all ``randrange`` and ``choice`` draw.  A ``sample`` on
CPython's set path (:func:`_sample_uses_set`, its set-size rule) draws
only ``_randbelow(n)`` and draws a repeat again, so one relationship's
calls read one stream of accepted values (:func:`_sample_set`).  After
each bulk draw ``rng`` stands exactly where the scalar calls leave it,
so the two draws left scalar - the 1:1 ``shuffle`` and a pool-path
``sample`` - call it directly and stay exact.
``tests/data/test_bulk_draws.py`` pins both helpers, their values and
the final ``rng`` state, to the scalar calls of the interpreter that
runs them.
"""

from __future__ import annotations

import math
import random
from itertools import chain, repeat
from typing import Callable

import numpy as np

from repro.data.logical import LogicalDataset, as_numpy
from repro.exceptions import DataGenerationError
from repro.ontology.model import DataType, Ontology, RelationshipType
from repro.ontology.stats import DataStatistics

#: Non-identity properties draw their token from ``range(POOL)``.
POOL = 7

#: A bulk draw reads the expected number of words plus this many
#: standard deviations (roughly), and reads more if that runs short.
_HEADROOM = 4

#: One property of a concept: its name, and either the formatter of an
#: identity property's token (the instance index) or the table of a
#: pooled property's ``POOL`` values.
_Slot = tuple[str, "Callable[[int], object] | None", "list[object] | None"]


def generate_logical(
    ontology: Ontology,
    stats: DataStatistics,
    seed: int = 0,
) -> LogicalDataset:
    """Generate a logical dataset for ``ontology`` sized by ``stats``."""
    stats.validate_against(ontology)
    rng = random.Random(seed)
    dataset = LogicalDataset(ontology)
    _materialize_instances(ontology, stats, dataset, rng)
    _materialize_functional_links(ontology, stats, dataset, rng)
    return dataset


# ----------------------------------------------------------------------
# Instances (base + derived twins)
# ----------------------------------------------------------------------
def _materialize_instances(
    ontology: Ontology,
    stats: DataStatistics,
    dataset: LogicalDataset,
    rng: random.Random,
) -> None:
    derived = ontology.derived_concepts()
    for concept in ontology.concepts:
        if concept in derived:
            continue
        count = stats.card(concept)
        dataset.add_instances(
            concept,
            [f"{concept}#{i}" for i in range(count)],
            columns=_property_columns(
                _layout(ontology, concept), range(count), rng
            ),
        )

    resolved: set[str] = set(ontology.concepts) - derived
    for concept in sorted(derived):
        _add_twins(ontology, dataset, rng, concept, resolved)


def _add_twins(
    ontology: Ontology,
    dataset: LogicalDataset,
    rng: random.Random,
    concept: str,
    resolved: set[str],
    trail: tuple[str, ...] = (),
) -> None:
    """The twins of derived ``concept`` (after those of the derived
    concepts its structural relationships point at) and their links."""
    if concept in resolved:
        return
    if concept in trail:
        raise DataGenerationError(f"cyclic twin derivation at {concept!r}")
    structural = [
        rel
        for rel in ontology.out_edges(concept)
        if rel.rel_type
        in (RelationshipType.INHERITANCE, RelationshipType.UNION)
    ]
    layout = _layout(ontology, concept)
    uids = dataset.uids
    #: part id -> its twin's id.  A concept can relate to the same
    #: child through several structural relationships (e.g. both
    #: unionOf and isA); the twin is shared.
    twin_of: dict[int, int] = {}
    for rel in structural:
        _add_twins(ontology, dataset, rng, rel.dst, resolved,
                   trail + (concept,))
        parts = list(dataset.ids.get(rel.dst, ()))
        new = [part for part in parts if part not in twin_of]
        twin_of.update(zip(new, dataset.add_instances(
            concept,
            [f"{concept}|{uids[part]}" for part in new],
            columns=_property_columns(
                layout, range(len(twin_of), len(twin_of) + len(new)), rng
            ),
        )))
        # Instance-level structural link: parent/union twins are the
        # *source* side of the ontology relationship.
        dataset.add_link_ids(
            rel.rel_id, list(map(twin_of.__getitem__, parts)), parts
        )
    resolved.add(concept)


def _layout(ontology: Ontology, concept: str) -> list[_Slot]:
    """``concept``'s properties in order, each resolved once.

    Properties whose name suggests identity (``*id``, ``name``) get
    near-unique values formatted from the instance index; everything
    else draws from a pool of ``POOL`` values so that grouping queries
    produce multi-row groups.
    """
    layout: list[_Slot] = []
    for prop in ontology.concept(concept).properties.values():
        lowered = prop.name.lower()
        fmt = _formatter(concept, prop.name, prop.data_type)
        if lowered.endswith("id") or lowered == "name":
            layout.append((prop.name, fmt, None))
        else:
            layout.append((prop.name, None, [fmt(t) for t in range(POOL)]))
    return layout


def _formatter(
    concept: str, name: str, data_type: DataType
) -> Callable[[int], object]:
    """The value a property of ``data_type`` takes for ``token``."""
    if data_type is DataType.STRING:
        prefix = f"{concept[:4].lower()}_{name}_"
        return lambda token: f"{prefix}{token}"
    if data_type is DataType.TEXT:
        prefix = f"text about {concept} {name} variant "
        return lambda token: f"{prefix}{token}"
    if data_type is DataType.INT:
        return int
    if data_type is DataType.FLOAT:
        return lambda token: round(token * 1.5 + 0.25, 2)
    if data_type is DataType.DATE:
        return lambda token: (
            f"2020-{(token % 12) + 1:02d}-{(token % 27) + 1:02d}"
        )
    return lambda token: bool(token % 2)  # DataType.BOOL


def _property_columns(
    layout: list[_Slot], indices: range, rng: random.Random
) -> dict[str, list]:
    """One value list per property, one value per instance index,
    drawing instance by instance and, within an instance, pooled
    property by pooled property - the draw order of the per-element
    oracle (``tests/data/generator_oracle.py``).
    """
    pooled = sum(1 for _, _, table in layout if table is not None)
    draws = _randbelow(rng, POOL, len(indices) * pooled).tolist()
    columns = {}
    slot = 0
    for name, fmt, table in layout:
        if table is None:
            columns[name] = list(map(fmt, indices))
        else:
            columns[name] = list(map(table.__getitem__, draws[slot::pooled]))
            slot += 1
    return columns



# ----------------------------------------------------------------------
# Functional links
# ----------------------------------------------------------------------
def _materialize_functional_links(
    ontology: Ontology,
    stats: DataStatistics,
    dataset: LogicalDataset,
    rng: random.Random,
) -> None:
    for rel in ontology.iter_relationships():
        if not rel.rel_type.is_functional:
            continue
        src_pool = as_numpy(dataset.ids.get(rel.src, ()))
        dst_pool = as_numpy(dataset.ids.get(rel.dst, ()))
        if not len(src_pool) or not len(dst_pool):
            raise DataGenerationError(
                f"relationship {rel.rel_id} has an empty endpoint"
            )
        if rel.rel_type is RelationshipType.ONE_TO_ONE:
            shuffled = dst_pool.tolist()
            rng.shuffle(shuffled)
            count = min(len(src_pool), len(shuffled))
            srcs, dsts = src_pool[:count], shuffled[:count]
        elif rel.rel_type is RelationshipType.ONE_TO_MANY:
            # Each "many"-side instance points back to one source:
            # ``choice(src_pool)`` per destination.
            srcs = src_pool[_randbelow(rng, len(src_pool), len(dst_pool))]
            dsts = dst_pool
        else:  # MANY_TO_MANY
            total = stats.rel_card(rel.rel_id)
            n = len(dst_pool)
            fanout = min(max(1, round(total / len(src_pool))), n)
            srcs = np.repeat(src_pool, fanout)
            if _sample_uses_set(n, fanout):
                dsts = dst_pool[_sample_set(rng, n, fanout, len(src_pool))]
            else:
                dsts = list(chain.from_iterable(map(
                    rng.sample, repeat(dst_pool.tolist(), len(src_pool)),
                    repeat(fanout),
                )))
        dataset.add_link_ids(rel.rel_id, srcs, dsts)


# ----------------------------------------------------------------------
# Bulk draws, equal to CPython's scalar ones
# ----------------------------------------------------------------------
def _peek_randbelow(
    rng: random.Random, n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` values of ``rng._randbelow(n)`` as int64, and
    after each the number of 32-bit words read up to it; ``rng`` is left
    where it was.

    CPython's rule (``random.py``, 3.10 to 3.13): with ``k =
    n.bit_length()``, each attempt is ``getrandbits(k)`` - the top ``k``
    bits of one word, or of two words (low word first) past ``2**32`` -
    and an attempt ``>= n`` is rejected.  ``getrandbits(32 * w)`` returns
    the next ``w`` words, least significant first.
    """
    if not 0 < n < 1 << 63:
        raise ValueError(f"bulk draws need 1 <= n < 2**63, not {n}")
    if not count:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    k = n.bit_length()
    width = 1 if k <= 32 else 2
    shift = 32 * width - k
    state = rng.getstate()
    values, ends = [], []
    read = 0
    while count:
        expected = count * (1 << k) / n
        attempts = max(count, int(expected + _HEADROOM * math.sqrt(expected)))
        words = np.frombuffer(
            rng.getrandbits(32 * width * attempts).to_bytes(
                4 * width * attempts, "little"
            ),
            "<u4",
        )
        if width == 1:
            drawn = words >> shift
        else:
            pairs = words.astype(np.uint64).reshape(-1, 2)
            drawn = pairs[:, 0] | (pairs[:, 1] >> np.uint64(shift)) << 32
        hits = np.flatnonzero(drawn < n)[:count]
        values.append(drawn[hits].astype(np.int64))
        ends.append(read + (hits + 1) * width)
        read += width * attempts
        count -= len(hits)
    rng.setstate(state)
    return np.concatenate(values), np.concatenate(ends)


def _randbelow(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng._randbelow(n) for _ in range(count)]`` as an int64 array,
    leaving ``rng`` where those calls leave it."""
    values, ends = _peek_randbelow(rng, n, count)
    if count:
        rng.getrandbits(32 * int(ends[-1]))
    return values


def _sample_uses_set(n: int, k: int) -> bool:
    """Whether ``rng.sample`` of ``k`` from ``n`` takes CPython's set
    path (every draw ``_randbelow(n)``, repeats drawn again) rather than
    the pool path (draw ``i`` is ``_randbelow(n - i)``)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n > setsize


def _sample_set(
    rng: random.Random, n: int, k: int, calls: int
) -> np.ndarray:
    """The indices ``calls`` calls of ``rng.sample(population, k)`` pick
    from a population of ``n``, concatenated as one int64 array, leaving
    ``rng`` where those calls leave it.  Only for the set path
    (:func:`_sample_uses_set`).

    Every draw of the set path is ``_randbelow(n)``, so the calls read
    one stream of accepted values: each takes the first ``k`` distinct
    values from where the one before stopped, and stops at its ``k``-th.
    """
    if not calls:
        return np.empty(0, np.int64)
    # The i-th distinct value of a call takes n / (n - i) draws.
    expected = calls * sum(n / (n - i) for i in range(k))
    length = max(calls * k, int(expected + _HEADROOM * math.sqrt(expected)))
    while True:
        stream, ends = _peek_randbelow(rng, n, length)
        cut = _distinct_runs(stream, k, calls)
        if cut is not None:
            break
        length *= 2
    used, repeats = cut
    rng.getrandbits(32 * int(ends[used - 1]))
    keep = np.ones(used, bool)
    keep[repeats] = False
    return stream[:used][keep]


def _distinct_runs(
    stream: np.ndarray, k: int, calls: int
) -> tuple[int, list[int]] | None:
    """Cut ``stream`` into ``calls`` runs, each ending at its ``k``-th
    distinct value: how much of the stream they use and the positions
    of the repeats they skip, or None when the stream is too short.

    A run starting at ``s`` skips position ``j`` when ``prev[j] >= s``
    (``prev[j]``: the last earlier position of the same value).  It is
    *clean* - its first ``k`` values distinct - unless a pair
    ``prev[j], j`` closer than ``k`` lies inside it, which is every
    start in ``(j - k, prev[j]]``.  Clean runs are stepped over ``k`` at
    a time; only the others are read value by value.
    """
    length = len(stream)
    # A stable sort; radix when the values fit 16 bits.
    order = np.argsort(
        stream.astype(np.uint16) if stream.max() < 1 << 16
        else stream,
        kind="stable",
    )
    same = stream[order[1:]] == stream[order[:-1]]
    prev = np.full(length, -1)
    prev[order[1:][same]] = order[:-1][same]
    close = np.flatnonzero((prev >= 0) & (np.arange(length) - prev < k))
    marks = np.bincount(
        np.maximum(close - k + 1, 0), minlength=length + 1
    ) - np.bincount(prev[close] + 1, minlength=length + 1)
    # A run starting past ``length - k`` reads beyond the stream: it
    # counts as dirty, and reading it finds the stream short.
    inside = max(length - k + 1, 0)
    rows = -(-length // k) + 1
    dirty = np.ones(rows * k, bool)
    dirty[:inside] = np.cumsum(marks[:inside]) > 0
    # nearest[s]: the first dirty start among s, s + k, s + 2k, ...
    grid = np.where(dirty.reshape(rows, k), np.arange(rows)[:, None], rows)
    nearest = (
        np.minimum.accumulate(grid[::-1], axis=0)[::-1] * k + np.arange(k)
    ).ravel()
    start, left, repeats = 0, calls, []
    prev_list = None
    while left:
        clean = min((int(nearest[start]) - start) // k, left)
        start += clean * k
        left -= clean
        if not left:
            break
        if prev_list is None:
            prev_list = prev.tolist()
        taken = 0
        for at in range(start, length):
            if prev_list[at] >= start:
                repeats.append(at)
                continue
            taken += 1
            if taken == k:
                break
        else:
            return None
        start = at + 1
        left -= 1
    return start, repeats
