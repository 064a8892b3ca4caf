"""Random ontologies shared by the property-based tests.

:func:`random_ontology` draws a valid ontology from a seed; Theorem 3
(``tests/rules/test_confluence.py``) and the loader invariants
(``tests/data/test_loader_properties.py``) draw from it.
"""

from __future__ import annotations

import random

from repro.ontology.model import Ontology, RelationshipType
from repro.ontology.validation import validate_ontology

#: Theorem 3 covers exactly these rules ("applying the union,
#: inheritance, 1:M and M:N rules in any order produces a unique PGS").
#: 1:1 is excluded by the theorem - and indeed a 1:1 whose endpoint is
#: also a union concept (or a merge-dropped parent/child) interacts
#: order-sensitively with node drops; see test_one_to_one_union_interaction.
REL_TYPES = [
    RelationshipType.ONE_TO_MANY,
    RelationshipType.MANY_TO_MANY,
    RelationshipType.UNION,
    RelationshipType.INHERITANCE,
]


def random_ontology(seed: int, n_concepts: int, n_rels: int) -> Ontology:
    """A random, valid ontology (structural relations kept acyclic by
    only pointing from lower to higher concept index)."""
    rng = random.Random(seed)
    onto = Ontology(f"random-{seed}")
    for i in range(n_concepts):
        concept = onto.add_concept(f"K{i}")
        for j in range(rng.randint(0, 3)):
            from repro.ontology.model import DataProperty

            # Shared names across concepts create Jaccard overlap.
            concept.add_property(DataProperty(f"p{rng.randint(0, 5)}j{j}"))
    added = 0
    guard = 0
    while added < n_rels and guard < 100 * n_rels:
        guard += 1
        rel_type = rng.choice(REL_TYPES)
        a, b = rng.sample(range(n_concepts), 2)
        if rel_type.is_structural:
            a, b = min(a, b), max(a, b)  # acyclic by construction
        src, dst = f"K{a}", f"K{b}"
        duplicate = any(
            r.rel_type is rel_type and r.src == src and r.dst == dst
            for r in onto.iter_relationships()
        )
        if duplicate:
            continue
        onto.add_relationship(f"rel{added}", src, dst, rel_type)
        added += 1
    validate_ontology(onto)
    return onto
