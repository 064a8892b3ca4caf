"""Tests for data statistics synthesis."""

import pytest

from repro.exceptions import OntologyError
from repro.ontology.model import RelationshipType
from repro.ontology.stats import (
    DataStatistics,
    EDGE_SIZE_BYTES,
    direct_graph_size_bytes,
    synthesize_statistics,
)


class TestDataStatistics:
    def test_card_lookup(self):
        stats = DataStatistics({"A": 10}, {"r1": 5})
        assert stats.card("A") == 10
        assert stats.rel_card("r1") == 5

    def test_missing_entries_raise(self):
        stats = DataStatistics()
        with pytest.raises(OntologyError):
            stats.card("A")
        with pytest.raises(OntologyError):
            stats.rel_card("r1")

    def test_scaled(self):
        stats = DataStatistics({"A": 10}, {"r1": 4})
        scaled = stats.scaled(2.5)
        assert scaled.card("A") == 25
        assert scaled.rel_card("r1") == 10

    def test_scaled_floors_at_one(self):
        stats = DataStatistics({"A": 2}, {"r1": 2})
        assert stats.scaled(0.01).card("A") == 1

    @pytest.mark.parametrize(
        "factor", [0, 0.0, -1, float("nan"), float("inf"), -float("inf")]
    )
    def test_scaled_rejects_a_factor_not_finite_and_positive(self, factor):
        stats = DataStatistics({"A": 2}, {"r1": 2})
        with pytest.raises(OntologyError, match="finite and > 0"):
            stats.scaled(factor)

    def test_validate_against(self, fig2, fig2_stats):
        fig2_stats.validate_against(fig2)
        incomplete = DataStatistics({"Drug": 5}, {})
        with pytest.raises(OntologyError, match="incomplete"):
            incomplete.validate_against(fig2)


class TestSynthesize:
    def test_covers_everything(self, fig2):
        stats = synthesize_statistics(fig2, base_cardinality=100)
        stats.validate_against(fig2)

    def test_deterministic(self, fig2):
        a = synthesize_statistics(fig2, base_cardinality=100, seed=9)
        b = synthesize_statistics(fig2, base_cardinality=100, seed=9)
        assert a.concept_cardinality == b.concept_cardinality
        assert a.relationship_cardinality == b.relationship_cardinality

    def test_seed_changes_result(self, fig2):
        a = synthesize_statistics(fig2, base_cardinality=100, seed=1)
        b = synthesize_statistics(fig2, base_cardinality=100, seed=2)
        assert a.concept_cardinality != b.concept_cardinality

    def test_union_cardinality_is_member_sum(self, fig2):
        stats = synthesize_statistics(fig2, base_cardinality=100)
        expected = stats.card("ContraIndication") + stats.card(
            "BlackBoxWarning"
        )
        assert stats.card("Risk") == expected

    def test_parent_cardinality_is_child_sum(self, fig2):
        stats = synthesize_statistics(fig2, base_cardinality=100)
        expected = stats.card("DrugFoodInteraction") + stats.card(
            "DrugLabInteraction"
        )
        assert stats.card("DrugInteraction") == expected

    def test_one_to_one_endpoints_equal(self, fig2):
        stats = synthesize_statistics(fig2, base_cardinality=100)
        assert stats.card("Indication") == stats.card("Condition")

    def test_one_to_many_edge_count(self, fig2):
        stats = synthesize_statistics(fig2, base_cardinality=100)
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        assert stats.rel_card(treat.rel_id) == stats.card("Indication")

    def test_inheritance_edge_count(self, fig2):
        stats = synthesize_statistics(fig2, base_cardinality=100)
        for rel in fig2.relationships_of_type(
            RelationshipType.INHERITANCE
        ):
            assert stats.rel_card(rel.rel_id) == stats.card(rel.dst)

    def test_mn_fanout(self, med_small):
        stats = med_small.stats
        for rel in med_small.ontology.relationships_of_type(
            RelationshipType.MANY_TO_MANY
        ):
            bigger = max(stats.card(rel.src), stats.card(rel.dst))
            assert stats.rel_card(rel.rel_id) == 3 * bigger


class TestDirectSize:
    def test_direct_size_formula(self, fig2, fig2_stats):
        size = direct_graph_size_bytes(fig2, fig2_stats)
        vertex_bytes = sum(
            fig2_stats.card(c.name) * max(1, c.total_property_bytes)
            for c in fig2.iter_concepts()
        )
        edge_bytes = EDGE_SIZE_BYTES * sum(
            fig2_stats.rel_card(r) for r in fig2.relationships
        )
        assert size == vertex_bytes + edge_bytes

    def test_scaling_grows_size(self, fig2, fig2_stats):
        bigger = fig2_stats.scaled(3)
        assert direct_graph_size_bytes(fig2, bigger) > \
            direct_graph_size_bytes(fig2, fig2_stats)
