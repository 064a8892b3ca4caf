"""Data characteristics: cardinalities of concepts and relationships.

Section 4.2 of the paper: *"Data characteristics contain the basic
statistics about each concept, data property, and relationship specified in
the given ontology. The statistics include the cardinality of data
instances of each concept and relationship, as well as the data type of
each data property."*

Data-property type sizes live on :class:`~repro.ontology.model.DataType`;
this module supplies the instance/edge counts plus a synthesizer that
derives a *consistent* set of cardinalities from an ontology:

* 1:1 endpoints have equal cardinality (each instance pairs with one
  partner);
* a 1:M relationship has one edge per "many"-side instance;
* union-concept cardinality equals the sum of its member cardinalities
  (each member instance *is* a union instance);
* parent-concept cardinality equals the sum over children of the child
  cardinalities (this reproduction generates parent instances as twins of
  child instances; see DESIGN.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.exceptions import OntologyError
from repro.ontology.model import Ontology, RelationshipType

#: Bytes charged per stored edge by the space/cost model.
EDGE_SIZE_BYTES = 16


@dataclass
class DataStatistics:
    """Instance counts for concepts and edge counts for relationships."""

    concept_cardinality: dict[str, int] = field(default_factory=dict)
    relationship_cardinality: dict[str, int] = field(default_factory=dict)

    def card(self, concept: str) -> int:
        """``|ci|``: the number of instances of a concept."""
        try:
            return self.concept_cardinality[concept]
        except KeyError:
            raise OntologyError(
                f"no cardinality recorded for concept {concept!r}"
            ) from None

    def rel_card(self, rel_id: str) -> int:
        """``|r|``: the number of instance edges of a relationship."""
        try:
            return self.relationship_cardinality[rel_id]
        except KeyError:
            raise OntologyError(
                f"no cardinality recorded for relationship {rel_id!r}"
            ) from None

    def size_of_concept(self, ontology: Ontology, concept: str) -> int:
        """Bytes consumed by all instances of ``concept`` (Equation 2)."""
        return self.card(concept) * max(
            1, ontology.concept(concept).total_property_bytes
        )

    def scaled(self, factor: float) -> "DataStatistics":
        """A copy with every cardinality multiplied by ``factor``, a
        finite number above 0 (below 1 shrinks); each count is rounded
        and kept at least 1."""
        if not 0 < factor < math.inf:  # NaN compares false
            raise OntologyError(
                f"scale factor must be finite and > 0, got {factor!r}"
            )
        return DataStatistics(
            {c: max(1, int(round(n * factor)))
             for c, n in self.concept_cardinality.items()},
            {r: max(1, int(round(n * factor)))
             for r, n in self.relationship_cardinality.items()},
        )

    def validate_against(self, ontology: Ontology) -> None:
        """Check that stats cover exactly the ontology's elements."""
        missing_c = set(ontology.concepts) - set(self.concept_cardinality)
        missing_r = set(ontology.relationships) - set(
            self.relationship_cardinality
        )
        if missing_c or missing_r:
            raise OntologyError(
                "statistics incomplete: missing concepts "
                f"{sorted(missing_c)}, relationships {sorted(missing_r)}"
            )


def synthesize_statistics(
    ontology: Ontology,
    base_cardinality: int = 1000,
    seed: int = 7,
    spread: float = 4.0,
    mn_fanout: int = 3,
) -> DataStatistics:
    """Derive consistent cardinalities for an ontology.

    ``base_cardinality`` sets the scale of "leaf" concepts; individual
    concepts vary by up to ``spread``x around it (seeded, reproducible).
    Derived concepts (unions, inheritance parents) get their cardinality
    from their members/children, honoring the invariants in the module
    docstring.
    """
    rng = random.Random(seed)
    stats = DataStatistics()

    # 1. Seed every non-derived concept with a random base cardinality.
    derived = ontology.derived_concepts()
    for concept in ontology.concepts:
        if concept not in derived:
            factor = spread ** rng.uniform(-0.5, 0.5)
            stats.concept_cardinality[concept] = max(
                4, int(base_cardinality * factor)
            )

    # 2. Resolve derived concepts bottom-up (children before parents,
    #    members before unions). Validation guarantees acyclicity.
    def resolve(concept: str, trail: tuple[str, ...] = ()) -> int:
        if concept in stats.concept_cardinality:
            return stats.concept_cardinality[concept]
        if concept in trail:
            raise OntologyError(
                f"cyclic derivation through {concept!r}"
            )
        parts = ontology.children_of(concept) + ontology.members_of(concept)
        if not parts:
            # Derived concept with no resolvable parts (should not happen
            # for validated ontologies); fall back to the base size.
            total = base_cardinality
        else:
            total = sum(resolve(p, trail + (concept,)) for p in parts)
        stats.concept_cardinality[concept] = max(4, total)
        return stats.concept_cardinality[concept]

    for concept in ontology.concepts:
        resolve(concept)

    # 3. Harmonize 1:1 endpoints: both sides take the smaller cardinality
    #    so a full bijection exists (unless one endpoint is derived).
    for rel in ontology.relationships_of_type(RelationshipType.ONE_TO_ONE):
        if rel.src in derived or rel.dst in derived:
            continue
        low = min(stats.card(rel.src), stats.card(rel.dst))
        stats.concept_cardinality[rel.src] = low
        stats.concept_cardinality[rel.dst] = low

    # 4. Relationship edge counts.
    for rel in ontology.iter_relationships():
        if rel.rel_type is RelationshipType.ONE_TO_ONE:
            count = min(stats.card(rel.src), stats.card(rel.dst))
        elif rel.rel_type is RelationshipType.ONE_TO_MANY:
            count = stats.card(rel.dst)
        elif rel.rel_type is RelationshipType.MANY_TO_MANY:
            count = mn_fanout * max(stats.card(rel.src), stats.card(rel.dst))
        elif rel.rel_type is RelationshipType.INHERITANCE:
            count = stats.card(rel.dst)  # one isA edge per child instance
        else:  # UNION: one unionOf edge per member instance
            count = stats.card(rel.dst)
        stats.relationship_cardinality[rel.rel_id] = max(1, count)

    return stats


def direct_graph_size_bytes(
    ontology: Ontology, stats: DataStatistics
) -> int:
    """``S_DIR``: bytes used by the directly-mapped property graph."""
    vertex_bytes = sum(
        stats.card(c.name) * max(1, c.total_property_bytes)
        for c in ontology.iter_concepts()
    )
    edge_bytes = sum(
        stats.rel_card(r.rel_id) * EDGE_SIZE_BYTES
        for r in ontology.iter_relationships()
    )
    return vertex_bytes + edge_bytes
