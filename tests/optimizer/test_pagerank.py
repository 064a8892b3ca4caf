"""Tests for OntologyPR (Algorithm 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import OntologyError
from repro.ontology.builder import OntologyBuilder
from repro.ontology.model import Ontology, RelationshipType
from repro.optimizer.pagerank import ontology_pagerank, pagerank
from tests.ontology_gen import random_ontology


def recursive_ontology_pagerank(ontology: Ontology) -> dict[str, float]:
    """``ontology_pagerank``'s scores with the inheritance step in its
    first, memo-free form: every concept walks all of its ancestor
    paths again.  Kept as the oracle for the memoized walk."""
    union_concepts = ontology.union_concepts()
    members = {u: ontology.members_of(u) for u in union_concepts}
    edges = [
        (rel.src, rel.dst) for rel in ontology.iter_relationships()
        if rel.rel_type not in (RelationshipType.INHERITANCE,
                                RelationshipType.UNION)
    ]

    def expand(concept: str) -> list[str]:
        if concept not in union_concepts:
            return [concept]
        expanded: list[str] = []
        for member in members[concept]:
            expanded.extend(expand(member))
        return expanded

    adjacency: dict[str, list[str]] = {
        c: [] for c in ontology.concepts if c not in union_concepts
    }
    for src, dst in edges:
        for s in expand(src):
            for d in expand(dst):
                if s == d:
                    continue
                adjacency[s].append(d)
                adjacency[d].append(s)
    scores, _ = pagerank(adjacency)
    final = dict(scores)

    def ancestor_max(concept: str, seen: frozenset[str]) -> float:
        best = final.get(concept, 0.0)
        for parent in ontology.parents_of(concept):
            if parent in seen or parent in union_concepts:
                continue
            best = max(best, ancestor_max(parent, seen | {concept}))
        return best

    for concept in ontology.concepts:
        if concept in union_concepts:
            continue
        final[concept] = ancestor_max(concept, frozenset())
    for union_concept in union_concepts:
        member_scores = [final.get(m, 0.0) for m in expand(union_concept)]
        final[union_concept] = max(member_scores) if member_scores else 0.0
    return final


class TestPlainPageRank:
    def test_empty_graph(self):
        scores, iterations = pagerank({})
        assert scores == {}
        assert iterations == 0

    def test_scores_sum_to_one(self):
        adjacency = {"a": ["b"], "b": ["c"], "c": ["a"]}
        scores, _ = pagerank(adjacency)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_cycle_uniform(self):
        adjacency = {"a": ["b"], "b": ["c"], "c": ["a"]}
        scores, _ = pagerank(adjacency)
        values = list(scores.values())
        assert max(values) - min(values) < 1e-9

    def test_hub_scores_higher(self):
        adjacency = {
            "hub": [], "a": ["hub"], "b": ["hub"], "c": ["hub"],
        }
        scores, _ = pagerank(adjacency)
        assert scores["hub"] > scores["a"]

    def test_dangling_mass_redistributed(self):
        adjacency = {"a": ["b"], "b": []}
        scores, _ = pagerank(adjacency)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_iterations_reported(self):
        adjacency = {"a": ["b"], "b": ["a"]}
        _, iterations = pagerank(adjacency)
        assert iterations >= 1


class TestOntologyPageRank:
    def test_every_concept_scored(self, fig2):
        result = ontology_pagerank(fig2)
        assert set(result.scores) == set(fig2.concepts)

    def test_drug_is_key_concept(self, fig2):
        # Drug has the highest degree in Figure 2; OntologyPR should
        # rank it at the top among non-derived concepts.
        result = ontology_pagerank(fig2)
        non_derived = set(fig2.concepts) - fig2.derived_concepts()
        top = max(non_derived, key=lambda c: result[c])
        assert top == "Drug"

    def test_union_concept_gets_member_score(self, fig2):
        result = ontology_pagerank(fig2)
        members = max(
            result["ContraIndication"], result["BlackBoxWarning"]
        )
        assert result["Risk"] == pytest.approx(members)

    def test_child_inherits_parent_score(self):
        # Parent is highly connected; the isolated child inherits its
        # centrality (depth-first ancestor max).
        onto = (
            OntologyBuilder()
            .concept("Hub")
            .concept("Child")
            .concept("A").concept("B").concept("C")
            .one_to_many("x", "A", "Hub")
            .one_to_many("y", "B", "Hub")
            .one_to_many("z", "C", "Hub")
            .inherits("Hub", "Child")
            .build()
        )
        result = ontology_pagerank(onto)
        assert result["Child"] == pytest.approx(result["Hub"])

    def test_child_keeps_higher_own_score(self):
        # The child is better connected than its parent: keep its own.
        onto = (
            OntologyBuilder()
            .concept("Parent")
            .concept("Child")
            .concept("A").concept("B").concept("C")
            .one_to_many("x", "A", "Child")
            .one_to_many("y", "B", "Child")
            .one_to_many("z", "C", "Child")
            .inherits("Parent", "Child")
            .build()
        )
        result = ontology_pagerank(onto)
        assert result["Child"] > result["Parent"]

    def test_undirected_treatment(self):
        # Out-degree counts like in-degree: a pure "source" hub still
        # ranks high (the reverse-edge rule of Section 4.2.1).
        onto = (
            OntologyBuilder()
            .concept("Source")
            .concept("A").concept("B").concept("C")
            .one_to_many("x", "Source", "A")
            .one_to_many("y", "Source", "B")
            .one_to_many("z", "Source", "C")
            .build()
        )
        result = ontology_pagerank(onto)
        assert result["Source"] == max(result.scores.values())

    def test_nested_unions(self):
        onto = (
            OntologyBuilder()
            .concept("Outer").concept("Inner")
            .concept("M1").concept("M2")
            .concept("N")
            .union("Outer", "Inner")
            .union("Inner", "M1", "M2")
            .one_to_many("touch", "N", "Outer")
            .build()
        )
        result = ontology_pagerank(onto)
        # Mass flowed through both union levels to the leaf members.
        assert result["M1"] > 0
        assert result["Outer"] == pytest.approx(
            max(result["M1"], result["M2"])
        )

    def test_deterministic(self, med_small):
        a = ontology_pagerank(med_small.ontology)
        b = ontology_pagerank(med_small.ontology)
        assert a.scores == b.scores


class TestInheritanceMemo:
    """Each concept's ancestor best is found once; the scores stay
    bit-identical to the recursive walk's."""

    @settings(max_examples=60, deadline=None)
    @given(
        draw=st.integers(0, 10**6),
        n_concepts=st.integers(2, 14),
        n_rels=st.integers(1, 30),
    )
    def test_random_ontologies_score_as_the_recursive_walk(
        self, draw, n_concepts, n_rels
    ):
        ontology = random_ontology(draw, n_concepts, n_rels)
        assert ontology_pagerank(ontology).scores == (
            recursive_ontology_pagerank(ontology)
        )

    def test_paper_datasets_score_as_the_recursive_walk(
        self, med_small, fin_small
    ):
        for dataset in (med_small, fin_small):
            ontology = dataset.ontology
            assert ontology_pagerank(ontology).scores == (
                recursive_ontology_pagerank(ontology)
            )

    def test_an_inheritance_cycle_is_named(self):
        """Validation rejects an isA cycle; an unvalidated ontology
        with one gets an error naming it, not a bottomless walk."""
        onto = Ontology("cyclic")
        for name in ("A", "B", "C"):
            onto.add_concept(name)
        onto.add_relationship("r1", "A", "B", RelationshipType.INHERITANCE)
        onto.add_relationship("r2", "B", "A", RelationshipType.INHERITANCE)
        onto.add_relationship("r3", "A", "C", RelationshipType.ONE_TO_MANY)
        with pytest.raises(OntologyError, match="inheritance cycle"):
            ontology_pagerank(onto)
