"""Tests for the 1:M and M:N rules (Algorithm 4 / Figure 7)."""

from repro.ontology.builder import OntologyBuilder
from repro.ontology.model import RelationshipType
from repro.ontology.samples import chain_ontology
from repro.rules.base import Provenance, SchemaNode, SchemaState
from repro.rules.engine import transform
from repro.rules.one_to_many import (
    apply_many_to_many,
    apply_one_to_many,
)


def _onto():
    return (
        OntologyBuilder()
        .concept("Drug", name="STRING", brand="STRING")
        .concept("Indication", desc="STRING")
        .one_to_many("treat", "Drug", "Indication")
        .build()
    )


class TestOneToMany:
    def test_list_property_created(self):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        assert apply_one_to_many(state, rel, None)
        drug = state.nodes["Drug"]
        assert "Indication.desc" in drug.properties
        prop = drug.properties["Indication.desc"]
        assert prop.is_list
        assert prop.provenance is Provenance.REPLICATED
        assert prop.via_rel == rel.rel_id
        assert prop.origin_concept == "Indication"

    def test_destination_unchanged(self):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_one_to_many(state, rel, None)
        assert set(state.nodes["Indication"].properties) == {"desc"}

    def test_edge_kept(self):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_one_to_many(state, rel, None)
        assert any(e.origin_rel == rel.rel_id for e in state.edges)
        assert rel.rel_id not in state.consumed

    def test_selection_filters_properties(self):
        onto = (
            OntologyBuilder()
            .concept("A")
            .concept("B", p="STRING", q="STRING")
            .one_to_many("r", "A", "B")
            .build()
        )
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_one_to_many(state, rel, frozenset({"p"}))
        props = state.nodes["A"].properties
        assert "B.p" in props
        assert "B.q" not in props

    def test_empty_selection_is_noop(self):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        assert not apply_one_to_many(state, rel, frozenset())

    def test_idempotent(self):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_one_to_many(state, rel, None)
        assert not apply_one_to_many(state, rel, None)

    def test_transitive_propagation_keeps_prefix(self):
        # C0 -> C1 -> C2: C2.p2 first lands on C1 as "C2.p2", then
        # propagates to C0 under the SAME name (Appendix A semantics).
        onto = chain_ontology(3)
        state = transform(onto)
        c0 = state.nodes["C0"]
        assert "C1.p1" in c0.properties
        assert "C2.p2" in c0.properties

    def test_mutual_propagation_terminates(self):
        # A -1:M-> B and B -1:M-> A: propagation closes transitively
        # (Algorithm 4 has no cycle guard; list names are bounded by
        # concept x property combinations, so the fixpoint terminates).
        onto = (
            OntologyBuilder()
            .concept("A", pa="STRING")
            .concept("B", pb="STRING")
            .one_to_many("ab", "A", "B")
            .one_to_many("ba", "B", "A")
            .build()
        )
        state = transform(onto)
        assert "B.pb" in state.nodes["A"].properties
        assert "A.pa" in state.nodes["B"].properties
        # The transitive echo ("A.pa" back on A) keeps its prefixed
        # name and never collides with the native property.
        assert "pa" in state.nodes["A"].properties


class TestManyToMany:
    def test_both_directions(self):
        onto = (
            OntologyBuilder()
            .concept("A", pa="STRING")
            .concept("B", pb="STRING")
            .many_to_many("ab", "A", "B")
            .build()
        )
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_many_to_many(state, rel, None, None)
        assert "B.pb" in state.nodes["A"].properties
        assert "A.pa" in state.nodes["B"].properties

    def test_directions_selected_independently(self):
        onto = (
            OntologyBuilder()
            .concept("A", pa="STRING")
            .concept("B", pb="STRING")
            .many_to_many("ab", "A", "B")
            .build()
        )
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_many_to_many(
            state, rel, frozenset(), frozenset({"pa"})
        )
        assert "B.pb" not in state.nodes["A"].properties
        assert "A.pa" in state.nodes["B"].properties

    def test_self_loop_mn(self):
        onto = (
            OntologyBuilder()
            .concept("A", pa="STRING")
            .many_to_many("peer", "A", "A")
            .build()
        )
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        # A self M:N replicates the concept's own properties as a list
        # (peer values), under the prefixed name.
        assert apply_many_to_many(state, rel, None, None)
        assert "A.pa" in state.nodes["A"].properties
        assert "pa" in state.nodes["A"].properties


class TestSkippedPass:
    """A pass whose owner and source nodes are as it left them reads
    nothing; any property added to either, or a new node under one of
    their keys, makes it run again."""

    @staticmethod
    def reads(state, monkeypatch) -> list:
        calls = []
        properties_of = state.properties_of
        monkeypatch.setattr(
            state, "properties_of",
            lambda key: calls.append(key) or properties_of(key),
        )
        return calls

    def test_rerun_on_unchanged_nodes_is_skipped(self, monkeypatch):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        calls = self.reads(state, monkeypatch)
        assert apply_one_to_many(state, rel, None)
        assert not apply_one_to_many(state, rel, None)
        assert calls == ["Indication"]

    def test_a_new_source_property_runs_it_again(self, monkeypatch):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_one_to_many(state, rel, None)
        calls = self.reads(state, monkeypatch)
        desc = state.nodes["Indication"].properties["desc"]
        state.add_property("Indication", desc.renamed("code"))
        assert apply_one_to_many(state, rel, None)
        assert calls == ["Indication"]
        assert "Indication.code" in state.nodes["Drug"].properties

    def test_a_replaced_node_runs_it_again(self, monkeypatch):
        onto = _onto()
        state = SchemaState(onto)
        rel = next(iter(onto.relationships.values()))
        apply_one_to_many(state, rel, None)
        calls = self.reads(state, monkeypatch)
        # The owner node replaced under its key: as many properties,
        # but not the list.
        drug = state.nodes["Drug"]
        properties = {
            name: prop for name, prop in drug.properties.items()
            if not prop.is_list
        }
        properties["code"] = properties["name"].renamed("code")
        assert len(properties) == len(drug.properties)
        state.nodes["Drug"] = SchemaNode("Drug", drug.concepts, properties)
        assert apply_one_to_many(state, rel, None)
        assert calls == ["Indication"]
        assert "Indication.desc" in state.nodes["Drug"].properties
