"""Tests for the MED and FIN datasets (published-count fidelity)."""

import pytest

from repro.datasets import (
    FIN_EXPECTED,
    MED_EXPECTED,
    build_fin_ontology,
    build_med_ontology,
)
from repro.datasets.base import fill_relationships
from repro.exceptions import DataGenerationError, OntologyError
from repro.ontology.model import RelationshipType
from repro.ontology.validation import validate_ontology


class TestMedCounts:
    def test_published_counts(self):
        onto = build_med_ontology()
        counts = onto.relationship_type_counts()
        assert onto.num_concepts == MED_EXPECTED["concepts"]
        assert onto.num_properties == MED_EXPECTED["properties"]
        assert counts[RelationshipType.INHERITANCE] == MED_EXPECTED[
            "inheritance"
        ]
        assert counts[RelationshipType.ONE_TO_ONE] == MED_EXPECTED[
            "one_to_one"
        ]
        assert counts[RelationshipType.ONE_TO_MANY] == MED_EXPECTED[
            "one_to_many"
        ]
        assert counts[RelationshipType.MANY_TO_MANY] == MED_EXPECTED[
            "many_to_many"
        ]
        assert counts[RelationshipType.UNION] == MED_EXPECTED["union"]

    def test_valid(self):
        validate_ontology(build_med_ontology())

    def test_figure2_core_present(self):
        onto = build_med_ontology()
        assert onto.union_concepts() >= {"Risk"}
        assert set(onto.members_of("Risk")) == {
            "ContraIndication", "BlackBoxWarning",
        }
        assert set(onto.children_of("DrugInteraction")) == {
            "DrugFoodInteraction", "DrugLabInteraction",
        }

    def test_query_vocabulary_exists(self, med_small):
        onto = med_small.ontology
        assert onto.find_relationship("cause", "Drug", "Risk")
        assert onto.find_relationship("hasDrugRoute", "Drug", "DrugRoute")
        assert onto.find_relationship("takes", "Patient", "Drug")
        assert "drugRouteId" in onto.concept("DrugRoute").properties

    def test_deterministic(self):
        a, b = build_med_ontology(), build_med_ontology()
        assert a.structurally_equal(b)


class TestFinCounts:
    def test_published_counts(self):
        onto = build_fin_ontology()
        counts = onto.relationship_type_counts()
        assert onto.num_concepts == FIN_EXPECTED["concepts"]
        assert onto.num_properties == FIN_EXPECTED["properties"]
        assert onto.num_relationships == FIN_EXPECTED["relationships"]
        assert counts[RelationshipType.UNION] == FIN_EXPECTED["union"]
        assert counts[RelationshipType.INHERITANCE] == FIN_EXPECTED[
            "inheritance"
        ]
        assert counts[RelationshipType.ONE_TO_MANY] == FIN_EXPECTED[
            "one_to_many"
        ]
        assert counts[RelationshipType.MANY_TO_MANY] == FIN_EXPECTED[
            "many_to_many"
        ]

    def test_valid(self):
        validate_ontology(build_fin_ontology())

    def test_fibo_core_present(self):
        onto = build_fin_ontology()
        assert "Person" in onto.children_of("AutonomousAgent")
        assert "ContractParty" in onto.children_of("Person")
        assert "Security" in onto.children_of("FinancialInstrument")
        assert onto.find_relationship("isManagedBy", "Contract",
                                      "Corporation")
        assert onto.find_relationship("investsIn", "Investment",
                                      "Security")

    def test_inheritance_band_mix(self, fin_small):
        from repro.ontology.model import jaccard_similarity

        onto = fin_small.ontology
        bands = {"up": 0, "down": 0, "mid": 0}
        for rel in onto.relationships_of_type(
            RelationshipType.INHERITANCE
        ):
            js = jaccard_similarity(
                onto.concept(rel.src).property_names(),
                onto.concept(rel.dst).property_names(),
            )
            if js > 0.66:
                bands["up"] += 1
            elif js < 0.33:
                bands["down"] += 1
            else:
                bands["mid"] += 1
        assert bands["up"] >= 3     # Security, Payment, Filing, Person
        assert bands["down"] >= 40  # inheritance-dominant filler
        assert bands["mid"] >= 1

    def test_deterministic(self):
        a, b = build_fin_ontology(), build_fin_ontology()
        assert a.structurally_equal(b)


class TestDataset:
    def test_workload_kinds(self, med_small):
        assert med_small.workload("uniform").name == "uniform"
        assert med_small.workload("zipf").name == "zipf"
        with pytest.raises(DataGenerationError):
            med_small.workload("weird")

    def test_query_workload_boosts_query_concepts(self, med_small):
        wl = med_small.query_workload(boost=10.0)
        assert wl.concept_weights["Drug"] > wl.concept_weights["Gene"]

    def test_logical_scaling(self, med_small):
        small = med_small.logical(scale=0.5)
        big = med_small.logical(scale=1.0)
        assert big.num_instances > small.num_instances

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_logical_rejects_a_scale_not_finite_and_positive(
        self, med_small, scale
    ):
        with pytest.raises(OntologyError, match="finite and > 0"):
            med_small.logical(scale=scale)

    def test_queries_parse(self, med_small, fin_small):
        from repro.graphdb.query.parser import parse_query

        for dataset in (med_small, fin_small):
            for text in dataset.queries.values():
                parse_query(text)


class TestFillRelationships:
    def test_adds_exact_count(self, fig2):
        onto = fig2.copy()
        added = fill_relationships(
            onto, RelationshipType.ONE_TO_MANY, 5, seed=1,
            label_prefix="x",
        )
        assert added == 5
        validate_ontology(onto)

    def test_inheritance_stays_acyclic(self, fig2):
        onto = fig2.copy()
        fill_relationships(
            onto, RelationshipType.INHERITANCE, 6, seed=2,
            label_prefix="isA", allowed_parents=["Drug", "Indication"],
        )
        validate_ontology(onto)

    def test_impossible_count_raises(self, fig2):
        onto = fig2.copy()
        with pytest.raises(DataGenerationError, match="could only add"):
            fill_relationships(
                onto, RelationshipType.INHERITANCE, 100, seed=3,
                label_prefix="isA", allowed_parents=["Drug"],
            )
