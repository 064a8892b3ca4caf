"""Tests for the schema mapping (ontology -> optimized schema trace)."""

import pytest

from repro.exceptions import SchemaError
from repro.ontology.model import RelationshipType
from repro.rules.base import Selection
from repro.rules.engine import transform
from repro.schema.generate import optimize_schema_nsc
from repro.schema.mapping import CollapseKind, SchemaMapping


class TestCollapseKinds:
    def test_kinds(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        kinds = set(mapping.collapsed.values())
        assert kinds == {
            CollapseKind.UNION,
            CollapseKind.INHERIT_DOWN,
            CollapseKind.MERGE_1_1,
        }

    def test_is_collapsed(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        union_rel = fig2.relationships_of_type(RelationshipType.UNION)[0]
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        assert mapping.is_collapsed(union_rel.rel_id)
        assert mapping.collapse_kind(union_rel.rel_id) is CollapseKind.UNION
        assert not mapping.is_collapsed(treat.rel_id)
        assert mapping.collapse_kind(treat.rel_id) is None

    def test_collapsed_rel_ids_filter(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        unions = {
            rel_id for rel_id, kind in mapping.collapsed.items()
            if kind is CollapseKind.UNION
        }
        assert len(unions) == 2
        assert unions <= set(mapping.collapsed)


class TestLabels:
    def test_member_carries_union_label(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        labels = mapping.labels_of_node("ContraIndication")
        assert "Risk" in labels
        assert "ContraIndication" in labels

    def test_child_carries_parent_label(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        labels = mapping.labels_of_node("DrugFoodInteraction")
        assert "DrugInteraction" in labels

    def test_merged_node_carries_both(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        labels = mapping.labels_of_node("IndicationCondition")
        assert {"Indication", "Condition"} <= labels

    def test_unknown_node_raises(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        with pytest.raises(SchemaError):
            mapping.labels_of_node("Nope")

    def test_resolve_concept(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        assert set(mapping.resolve_concept("Risk")) == {
            "ContraIndication", "BlackBoxWarning",
        }
        assert mapping.resolve_concept("Drug") == ("Drug",)


class TestReplications:
    def test_find_replication(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        repl = next(
            r for r in mapping.replications
            if (r.rel_id, r.source_concept, r.source_property)
            == (treat.rel_id, "Indication", "desc")
        )
        assert repl.owner_node == "Drug"
        assert repl.list_name == "Indication.desc"

    def test_find_replication_missing(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        assert not any(r.rel_id == "r9999" for r in mapping.replications)
        assert mapping.replications_for_rel("r9999") == []

    def test_replications_for_rel(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        repls = mapping.replications_for_rel(treat.rel_id)
        assert any(r.source_property == "desc" for r in repls)

    def test_no_replications_without_selection(self, fig2):
        state = transform(fig2, Selection.none())
        mapping = SchemaMapping(fig2, state)
        assert mapping.replications == []

    def test_summary_mentions_counts(self, fig2):
        _, mapping = optimize_schema_nsc(fig2)
        text = mapping.summary()
        assert "collapsed" in text and "replicated" in text
