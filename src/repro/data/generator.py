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

Every draw comes from one private :class:`_Draws`: ``rng``'s 32-bit
words, read ahead with ``getrandbits(32 * w)``, and a cursor.  A draw
below ``n`` is CPython's ``_randbelow`` rule - the top
``n.bit_length()`` bits of the next word, a value ``>= n`` drawn again
- so the values are the scalar calls' own, with no ``rng`` state kept
or restored.  numpy applies the rule to many words at once for
``randrange`` and ``choice``; the 1:1 ``shuffle`` and a pool-path
``sample`` run CPython's loops; set-path ``sample`` calls walk one
stream of values below ``n``.  ``tests/data/test_bulk_draws.py`` pins
each draw to ``random.Random``'s, step by step.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

import numpy as np

from repro.data.logical import LogicalDataset, as_numpy
from repro.exceptions import DataGenerationError
from repro.ontology.model import DataType, Ontology, RelationshipType
from repro.ontology.stats import DataStatistics

#: Non-identity properties draw their token from ``range(POOL)``.
POOL = 7

#: A draw reads the words (or values) it expects to need plus this many
#: standard deviations (roughly), and twice as many if that runs short.
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
    draws = _Draws(random.Random(seed))
    dataset = LogicalDataset(ontology)
    _materialize_instances(ontology, stats, dataset, draws)
    _materialize_functional_links(ontology, stats, dataset, draws)
    return dataset


# ----------------------------------------------------------------------
# Instances (base + derived twins)
# ----------------------------------------------------------------------
def _materialize_instances(
    ontology: Ontology,
    stats: DataStatistics,
    dataset: LogicalDataset,
    draws: _Draws,
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
                _layout(ontology, concept), range(count), draws
            ),
        )

    resolved: set[str] = set(ontology.concepts) - derived
    for concept in sorted(derived):
        _add_twins(ontology, dataset, draws, concept, resolved)


def _add_twins(
    ontology: Ontology,
    dataset: LogicalDataset,
    draws: _Draws,
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
        _add_twins(ontology, dataset, draws, rel.dst, resolved,
                   trail + (concept,))
        parts = list(dataset.ids.get(rel.dst, ()))
        new = [part for part in parts if part not in twin_of]
        twin_of.update(zip(new, dataset.add_instances(
            concept,
            [f"{concept}|{uids[part]}" for part in new],
            columns=_property_columns(
                layout, range(len(twin_of), len(twin_of) + len(new)), draws
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
    layout: list[_Slot], indices: range, draws: _Draws
) -> dict[str, list]:
    """One value list per property, one value per instance index,
    drawing instance by instance and, within an instance, pooled
    property by pooled property - the draw order of the per-element
    oracle (``tests/data/generator_oracle.py``).
    """
    pooled = sum(1 for _, _, table in layout if table is not None)
    tokens = draws.below(POOL, len(indices) * pooled).tolist()
    columns = {}
    slot = 0
    for name, fmt, table in layout:
        if table is None:
            columns[name] = list(map(fmt, indices))
        else:
            columns[name] = list(map(table.__getitem__, tokens[slot::pooled]))
            slot += 1
    return columns


# ----------------------------------------------------------------------
# Functional links
# ----------------------------------------------------------------------
def _materialize_functional_links(
    ontology: Ontology,
    stats: DataStatistics,
    dataset: LogicalDataset,
    draws: _Draws,
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
            draws.shuffle(shuffled)
            count = min(len(src_pool), len(shuffled))
            srcs, dsts = src_pool[:count], shuffled[:count]
        elif rel.rel_type is RelationshipType.ONE_TO_MANY:
            # Each "many"-side instance points back to one source:
            # ``choice(src_pool)`` per destination.
            srcs = src_pool[draws.below(len(src_pool), len(dst_pool))]
            dsts = dst_pool
        else:  # MANY_TO_MANY
            total = stats.rel_card(rel.rel_id)
            n = len(dst_pool)
            fanout = min(max(1, round(total / len(src_pool))), n)
            srcs = np.repeat(src_pool, fanout)
            dsts = dst_pool[draws.samples(n, fanout, len(src_pool))]
        dataset.add_link_ids(rel.rel_id, srcs, dsts)


# ----------------------------------------------------------------------
# The draw source
# ----------------------------------------------------------------------
def _sample_uses_set(n: int, k: int) -> bool:
    """Whether ``rng.sample`` of ``k`` from ``n`` takes CPython's set
    path (every draw ``_randbelow(n)``, repeats drawn again) rather than
    the pool path (draw ``i`` is ``_randbelow(n - i)``)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n > setsize


def _reading(expected: float, least: int) -> int:
    """How many words or values a draw reads for an ``expected`` need."""
    return max(least, int(expected + _HEADROOM * math.sqrt(expected)))


class _Draws:
    """The generator's one reader of ``rng``: its words, read ahead, and
    a cursor at the first word no draw has used.  Each draw returns what
    the same calls on ``rng`` return (``random.py``, 3.10 to 3.13), for
    bounds ``1 <= n < 2**32`` (one word per attempt)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._words = np.empty(0, np.uint32)
        self._at = 0

    def _window(self, size: int) -> np.ndarray:
        """The next ``size`` words, read if need be; the cursor stays."""
        short = self._at + size - len(self._words)
        if short > 0:
            fresh = self._rng.getrandbits(32 * short)
            self._words = np.concatenate((
                self._words[self._at:],
                np.frombuffer(fresh.to_bytes(4 * short, "little"), "<u4"),
            ))
            self._at = 0
        return self._words[self._at:self._at + size]

    def _accepted(self, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` values below ``n`` (int64) and the offset of
        each one's word past the cursor; the cursor stays."""
        if not 1 <= n < 1 << 32:
            raise ValueError(f"draws need 1 <= n < 2**32, not {n}")
        shift = 32 - n.bit_length()
        size = _reading(count * (1 << 32 - shift) / n, count)
        while True:
            drawn = self._window(size) >> shift
            hits = np.flatnonzero(drawn < n)[:count]
            if len(hits) == count:
                return drawn[hits].astype(np.int64), hits
            size *= 2

    def below(self, n: int, count: int) -> np.ndarray:
        """``[rng._randbelow(n) for _ in range(count)]`` as int64."""
        values, hits = self._accepted(n, count)
        if count:
            self._at += int(hits[-1]) + 1
        return values

    def each(self, bounds: Sequence[int]) -> list[int]:
        """``[rng._randbelow(n) for n in bounds]``."""
        if not bounds:
            return []
        low, high = min(bounds), max(bounds)
        if not 1 <= low <= high < 1 << 32:
            raise ValueError(f"draws need 1 <= n < 2**32, not {low}..{high}")
        # A value takes fewer than two words on average.
        size = _reading(2 * len(bounds), len(bounds))
        while True:
            words = self._window(size).tolist()
            values, at = [], 0
            try:
                for n in bounds:
                    shift = 32 - n.bit_length()
                    while words[at] >> shift >= n:
                        at += 1
                    values.append(words[at] >> shift)
                    at += 1
            except IndexError:
                size *= 2
                continue
            self._at += at
            return values

    def shuffle(self, x: list) -> None:
        """``rng.shuffle(x)``."""
        last = len(x) - 1
        for i, j in zip(range(last, 0, -1), self.each(range(last + 1, 1, -1))):
            x[i], x[j] = x[j], x[i]

    def samples(self, n: int, k: int, calls: int) -> np.ndarray:
        """The indices ``calls`` calls of ``rng.sample(population, k)``
        pick from a population of ``n``, concatenated, as int64."""
        if not _sample_uses_set(n, k):
            picks = iter(self.each(list(range(n, n - k, -1)) * calls))
            indices = []
            for _ in range(calls):
                pool = list(range(n))
                for last, j in zip(range(n - 1, n - k - 1, -1), picks):
                    indices.append(pool[j])
                    pool[j] = pool[last]
            return np.fromiter(indices, np.int64, len(indices))
        # Set path: each call takes the first ``k`` distinct values of
        # one stream below ``n`` from where the call before stopped; its
        # i-th distinct value takes n / (n - i) values.
        size = _reading(calls * sum(n / (n - i) for i in range(k)), calls * k)
        while True:
            values, hits = self._accepted(n, size)
            stream = values.tolist()
            indices, at = [], 0
            try:
                for _ in range(calls):
                    run = stream[at:at + k]
                    at += k
                    if len(set(run)) < k:
                        # A dict keeps each value's first place.
                        run = dict.fromkeys(run)
                        while len(run) < k:
                            run[stream[at]] = None
                            at += 1
                    indices += run
            except IndexError:
                size *= 2
                continue
            if at:
                self._at += int(hits[at - 1]) + 1
            return np.fromiter(indices, np.int64, len(indices))
