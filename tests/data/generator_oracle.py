"""Test-only reference generator: one ``add_instance`` / ``add_link_ids``
and one ``_properties_for`` per element.

The per-element ``generate_logical`` that the batched generator
replaced, kept as the oracle it is compared against
(``tests/data/test_generator_parity.py``): the rng draws, the
instances, property values, links and every dict's key order must not
change.  It reads the dataset through its id API, as the batched
generator does.
"""

from __future__ import annotations

import random

from repro.data.logical import LogicalDataset
from repro.exceptions import DataGenerationError
from repro.ontology.model import DataType, Ontology, RelationshipType
from repro.ontology.stats import DataStatistics


def reference_generate_logical(
    ontology: Ontology,
    stats: DataStatistics,
    seed: int = 0,
) -> LogicalDataset:
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
        for i in range(stats.card(concept)):
            uid = f"{concept}#{i}"
            dataset.add_instance(
                concept, uid, _properties_for(ontology, concept, i, rng)
            )

    resolved: set[str] = set(ontology.concepts) - derived

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
        counter = 0
        for rel in structural:
            resolve(rel.dst, trail + (concept,))
            for part in list(dataset.ids.get(rel.dst, ())):
                twin_uid = f"{concept}|{dataset.uids[part]}"
                if dataset.has_instance(twin_uid):
                    # A concept can relate to the same child through
                    # several structural relationships (e.g. both
                    # unionOf and isA); the twin is shared.
                    twin = dataset.id_of(twin_uid)
                else:
                    twin = dataset.add_instance(
                        concept,
                        twin_uid,
                        _properties_for(ontology, concept, counter, rng),
                    )
                    counter += 1
                # Instance-level structural link: parent/union twins are
                # the *source* side of the ontology relationship.
                dataset.add_link_ids(rel.rel_id, [twin], [part])
        resolved.add(concept)

    for concept in sorted(derived):
        resolve(concept)


def _properties_for(
    ontology: Ontology, concept: str, index: int, rng: random.Random
) -> dict[str, object]:
    """Deterministic property values with controlled selectivity.

    Properties whose name suggests identity (``*id``, ``name``) get
    near-unique values; everything else draws from a small pool so that
    grouping queries produce multi-row groups.
    """
    props: dict[str, object] = {}
    for prop in ontology.concept(concept).properties.values():
        lowered = prop.name.lower()
        identity = lowered.endswith("id") or lowered == "name"
        pool = 1_000_000 if identity else 7
        token = index if identity else rng.randrange(pool)
        if prop.data_type is DataType.STRING:
            props[prop.name] = f"{concept[:4].lower()}_{prop.name}_{token}"
        elif prop.data_type is DataType.TEXT:
            props[prop.name] = (
                f"text about {concept} {prop.name} variant {token}"
            )
        elif prop.data_type is DataType.INT:
            props[prop.name] = int(token)
        elif prop.data_type is DataType.FLOAT:
            props[prop.name] = round(token * 1.5 + 0.25, 2)
        elif prop.data_type is DataType.DATE:
            props[prop.name] = f"2020-{(token % 12) + 1:02d}-{(token % 27) + 1:02d}"
        elif prop.data_type is DataType.BOOL:
            props[prop.name] = bool(token % 2)
    return props


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
        src_pool = list(dataset.ids.get(rel.src, ()))
        dst_pool = list(dataset.ids.get(rel.dst, ()))
        if not src_pool or not dst_pool:
            raise DataGenerationError(
                f"relationship {rel.rel_id} has an empty endpoint"
            )
        if rel.rel_type is RelationshipType.ONE_TO_ONE:
            count = min(len(src_pool), len(dst_pool))
            shuffled = list(dst_pool)
            rng.shuffle(shuffled)
            for src, dst in zip(src_pool[:count], shuffled[:count]):
                dataset.add_link_ids(rel.rel_id, [src], [dst])
        elif rel.rel_type is RelationshipType.ONE_TO_MANY:
            # Each "many"-side instance points back to one source.
            for dst in dst_pool:
                dataset.add_link_ids(rel.rel_id, [rng.choice(src_pool)], [dst])
        else:  # MANY_TO_MANY
            total = stats.rel_card(rel.rel_id)
            fanout = max(1, round(total / len(src_pool)))
            for src in src_pool:
                partners = rng.sample(
                    dst_pool, min(fanout, len(dst_pool))
                )
                for dst in partners:
                    dataset.add_link_ids(rel.rel_id, [src], [dst])
