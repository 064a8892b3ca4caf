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
instances and each relationship's links are added in one call.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable

from repro.data.logical import LogicalDataset
from repro.exceptions import DataGenerationError
from repro.ontology.model import DataType, Ontology, RelationshipType
from repro.ontology.stats import DataStatistics

#: Non-identity properties draw their token from ``range(POOL)``.
POOL = 7

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
            _property_rows(_layout(ontology, concept), range(count), rng),
        )

    resolved: set[str] = set(ontology.concepts) - derived
    concept_of = dataset.concept_of

    def resolve(concept: str, trail: tuple[str, ...] = ()) -> None:
        if concept in resolved:
            return
        if concept in trail:
            raise DataGenerationError(
                f"cyclic twin derivation at {concept!r}"
            )
        structural = [
            rel
            for rel in ontology.out_edges(concept)
            if rel.rel_type
            in (RelationshipType.INHERITANCE, RelationshipType.UNION)
        ]
        layout = _layout(ontology, concept)
        counter = 0
        for rel in structural:
            resolve(rel.dst, trail + (concept,))
            parts = dataset.instances_of(rel.dst)
            twins = [f"{concept}|{part_uid}" for part_uid in parts]
            # A concept can relate to the same child through several
            # structural relationships (e.g. both unionOf and isA); the
            # twin is shared.
            new = [uid for uid in twins if uid not in concept_of]
            dataset.add_instances(
                concept,
                new,
                _property_rows(
                    layout, range(counter, counter + len(new)), rng
                ),
            )
            counter += len(new)
            # Instance-level structural link: parent/union twins are
            # the *source* side of the ontology relationship.
            dataset.add_links(rel.rel_id, list(zip(twins, parts)))
        resolved.add(concept)

    for concept in sorted(derived):
        resolve(concept)


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


def _property_rows(
    layout: list[_Slot], indices: range, rng: random.Random
) -> list[dict[str, object]]:
    """One property dict per instance index, drawing instance by
    instance and, within an instance, pooled property by pooled
    property - the draw order of one ``_properties_for`` per instance.
    """
    if not layout:
        return [{} for _ in indices]
    pooled = sum(1 for _, _, table in layout if table is not None)
    draws = list(map(rng.randrange, repeat(POOL, len(indices) * pooled)))
    columns = []
    slot = 0
    for _, fmt, table in layout:
        if table is None:
            columns.append(map(fmt, indices))
        else:
            columns.append(map(table.__getitem__, draws[slot::pooled]))
            slot += 1
    names = [name for name, _, _ in layout]
    return list(map(dict, map(zip, repeat(names), zip(*columns))))


def _properties_for(
    ontology: Ontology, concept: str, index: int, rng: random.Random
) -> dict[str, object]:
    """The property values of ``concept``'s instance number ``index``."""
    return _property_rows(
        _layout(ontology, concept), range(index, index + 1), rng
    )[0]


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
        src_pool = dataset.instances_of(rel.src)
        dst_pool = dataset.instances_of(rel.dst)
        if not src_pool or not dst_pool:
            raise DataGenerationError(
                f"relationship {rel.rel_id} has an empty endpoint"
            )
        if rel.rel_type is RelationshipType.ONE_TO_ONE:
            shuffled = list(dst_pool)
            rng.shuffle(shuffled)
            pairs = list(zip(src_pool, shuffled))
        elif rel.rel_type is RelationshipType.ONE_TO_MANY:
            # Each "many"-side instance points back to one source.
            sources = map(rng.choice, repeat(src_pool, len(dst_pool)))
            pairs = list(zip(sources, dst_pool))
        else:  # MANY_TO_MANY
            total = stats.rel_card(rel.rel_id)
            fanout = min(max(1, round(total / len(src_pool))), len(dst_pool))
            sample = rng.sample
            pairs = [
                (src_uid, dst_uid)
                for src_uid in src_pool
                for dst_uid in sample(dst_pool, fanout)
            ]
        dataset.add_links(rel.rel_id, pairs)
