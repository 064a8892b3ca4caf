"""Tests for the rule-engine working state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import SchemaError
from repro.ontology.model import RelationshipType
from repro.rules.base import (
    Provenance,
    SchemaProperty,
    SchemaState,
    Selection,
    Thresholds,
)


def _prop(name, concept="X"):
    from repro.ontology.model import DataType

    return SchemaProperty(
        name=name,
        data_type=DataType.STRING,
        is_list=False,
        origin_concept=concept,
        origin_name=name,
        provenance=Provenance.NATIVE,
    )


class TestThresholds:
    def test_defaults(self):
        t = Thresholds()
        assert t.theta1 == 0.66
        assert t.theta2 == 0.33

    def test_invalid_order(self):
        with pytest.raises(SchemaError):
            Thresholds(0.3, 0.6)

    def test_out_of_range(self):
        with pytest.raises(SchemaError):
            Thresholds(1.5, 0.2)


class TestSelection:
    def test_all(self):
        sel = Selection.all()
        assert sel.has_rel("anything")
        assert sel.props_for("r1", "fwd") is None

    def test_none(self):
        sel = Selection.none()
        assert not sel.has_rel("r1")
        assert sel.props_for("r1", "fwd") == frozenset()

    def test_specific(self):
        sel = Selection(
            rel_ids=frozenset({"r1"}),
            list_props=frozenset({("r2", "fwd", "p"), ("r2", "rev", "q")}),
        )
        assert sel.has_rel("r1")
        assert not sel.has_rel("r2")
        assert sel.props_for("r2", "fwd") == {"p"}
        assert sel.props_for("r2", "rev") == {"q"}
        assert sel.props_for("r3", "fwd") == frozenset()


    @given(
        st.frozensets(
            st.tuples(
                st.sampled_from(["r1", "r2", "r3"]),
                st.sampled_from(["fwd", "rev"]),
                st.sampled_from(["p", "q", "r", "s"]),
            )
        ),
        st.booleans(),
    )
    def test_indexed_props_for_equals_the_scan(self, list_props, select_all):
        sel = Selection(select_all=select_all, list_props=list_props)
        twin = Selection(select_all=select_all, list_props=list_props)
        for rel_id in ("r1", "r2", "r3", "r4"):
            for direction in ("fwd", "rev"):
                got = sel.props_for(rel_id, direction)
                if select_all:
                    assert got is None
                    continue
                assert type(got) is frozenset
                assert got == frozenset(
                    p for (r, d, p) in list_props
                    if r == rel_id and d == direction
                )
        # The index is not a fourth field: an indexed selection still
        # equals, hashes like and prints like one never asked.
        assert sel == twin and hash(sel) == hash(twin)
        assert repr(sel) == repr(twin)
        with pytest.raises(AttributeError):
            sel.list_props = frozenset()


class TestSchemaState:
    def test_direct_mapping(self, fig2):
        state = SchemaState(fig2)
        assert set(state.nodes) == set(fig2.concepts)
        assert len(state.edges) == fig2.num_relationships
        drug = state.nodes["Drug"]
        assert set(drug.properties) == {"name", "brand"}

    def test_jaccard_frozen_on_init(self, fig2):
        state = SchemaState(fig2)
        inheritance = fig2.relationships_of_type(
            RelationshipType.INHERITANCE
        )
        for rel in inheritance:
            assert rel.rel_id in state.jaccard
            assert state.jaccard[rel.rel_id] == 0.0  # disjoint props

    def test_resolve_live_node(self, fig2):
        state = SchemaState(fig2)
        assert state.resolve("Drug") == ("Drug",)

    def test_drop_and_resolve(self, fig2):
        state = SchemaState(fig2)
        state.drop_node("Risk", ("ContraIndication", "BlackBoxWarning"))
        assert not state.is_live("Risk")
        assert set(state.resolve("Risk")) == {
            "ContraIndication", "BlackBoxWarning",
        }

    def test_drop_rewrites_edges(self, fig2):
        state = SchemaState(fig2)
        state.drop_node("Risk", ("ContraIndication",))
        touched = state.edges_touching("ContraIndication")
        labels = {e.label for e in touched}
        assert "cause" in labels  # Drug-cause->Risk now targets the member

    def test_drop_unknown_raises(self, fig2):
        state = SchemaState(fig2)
        with pytest.raises(SchemaError):
            state.drop_node("Nope", ())

    def test_transitive_resolution(self, fig2):
        state = SchemaState(fig2)
        state.drop_node("Risk", ("ContraIndication",))
        state.drop_node("ContraIndication", ("BlackBoxWarning",))
        assert state.resolve("Risk") == ("BlackBoxWarning",)

    def test_add_property_resolves(self, fig2):
        state = SchemaState(fig2)
        state.drop_node("Risk", ("ContraIndication",))
        assert state.add_property("Risk", _prop("extra"))
        assert "extra" in state.nodes["ContraIndication"].properties

    def test_add_property_idempotent(self, fig2):
        state = SchemaState(fig2)
        assert state.add_property("Drug", _prop("extra"))
        assert not state.add_property("Drug", _prop("extra"))

    def test_add_edge_skips_structural_self_loop(self, fig2):
        state = SchemaState(fig2)
        changed = state.add_edge(
            "Drug", "Drug", "isA", RelationshipType.INHERITANCE, "rX"
        )
        assert not changed

    def test_properties_of_merges_resolved(self, fig2):
        state = SchemaState(fig2)
        state.drop_node(
            "Risk", ("ContraIndication", "BlackBoxWarning")
        )
        props = state.properties_of("Risk")
        assert "description" in props and "note" in props
