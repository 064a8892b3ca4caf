"""Tests for the union rule (Algorithm 1 / Figure 4)."""

from repro.ontology.model import RelationshipType
from repro.rules.base import SchemaState
from repro.rules.union import apply_union
from tests.rules.fixpoint_oracle import fingerprint


def _union_rels(ontology):
    return ontology.relationships_of_type(RelationshipType.UNION)


class TestUnionRule:
    def test_member_inherits_union_edges(self, fig2):
        state = SchemaState(fig2)
        for rel in _union_rels(fig2):
            apply_union(state, rel)
        # Drug-cause->X edges now target both members.
        cause_targets = {
            e.dst for e in state.edges if e.label == "cause"
        }
        assert cause_targets == {"ContraIndication", "BlackBoxWarning"}

    def test_union_node_dropped_after_all_members(self, fig2):
        state = SchemaState(fig2)
        rels = _union_rels(fig2)
        apply_union(state, rels[0])
        assert state.is_live("Risk")  # one member still attached
        apply_union(state, rels[1])
        assert not state.is_live("Risk")

    def test_union_resolution_points_to_members(self, fig2):
        state = SchemaState(fig2)
        for rel in _union_rels(fig2):
            apply_union(state, rel)
        assert set(state.resolve("Risk")) == {
            "ContraIndication", "BlackBoxWarning",
        }

    def test_union_of_edges_removed(self, fig2):
        state = SchemaState(fig2)
        for rel in _union_rels(fig2):
            apply_union(state, rel)
        assert not any(
            e.rel_type is RelationshipType.UNION for e in state.edges
        )
        assert {r.rel_id for r in _union_rels(fig2)} <= state.consumed

    def test_partial_application_keeps_union(self, fig2):
        state = SchemaState(fig2)
        rels = _union_rels(fig2)
        apply_union(state, rels[0])
        # The second unionOf edge schema is still present.
        remaining_unions = [
            e for e in state.edges
            if e.rel_type is RelationshipType.UNION
        ]
        assert len(remaining_unions) == 1
        assert state.is_live("Risk")

    def test_union_properties_copied(self):
        from repro.ontology.builder import OntologyBuilder

        onto = (
            OntologyBuilder()
            .concept("U", shared="STRING")
            .concept("M1", own="STRING")
            .concept("M2")
            .union("U", "M1", "M2")
            .build()
        )
        state = SchemaState(onto)
        for rel in _union_rels(onto):
            apply_union(state, rel)
        assert "shared" in state.nodes["M1"].properties
        assert "shared" in state.nodes["M2"].properties

    def test_idempotent_at_fixpoint(self, fig2):
        state = SchemaState(fig2)
        for rel in _union_rels(fig2):
            apply_union(state, rel)
        before = fingerprint(state)
        for rel in _union_rels(fig2):
            changed = apply_union(state, rel)
            assert not changed
        assert fingerprint(state) == before

    def test_late_edges_reach_members_via_resolution(self, fig2):
        state = SchemaState(fig2)
        for rel in _union_rels(fig2):
            apply_union(state, rel)
        state.add_edge(
            "Indication", "Risk", "linked",
            RelationshipType.ONE_TO_MANY, "rZ",
        )
        targets = {e.dst for e in state.edges if e.label == "linked"}
        assert targets == {"ContraIndication", "BlackBoxWarning"}
