"""Tests for the fixpoint rule engine (Algorithm 5)."""

import hashlib
import json

import pytest

from repro.bench.harness import (
    MICROBENCH_BUDGET_FRACTION,
    MICROBENCH_THRESHOLDS,
)
from repro.datasets import build_fin, build_med
from repro.ontology.model import RelationshipType
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.pgsg import optimize
from repro.rules.base import Selection, Thresholds
from repro.rules.engine import _resolve_order, direct_state, transform
from repro.schema.generate import generate_schema
from tests.rules.fixpoint_oracle import fingerprint


class TestTransform:
    def test_direct_state_untouched(self, fig2):
        state = direct_state(fig2)
        assert set(state.nodes) == set(fig2.concepts)
        assert not state.consumed

    def test_empty_selection_is_direct(self, fig2):
        state = transform(fig2, Selection.none())
        assert set(state.nodes) == set(fig2.concepts)
        assert len(state.edges) == fig2.num_relationships

    def test_nsc_matches_paper_figures(self, fig2):
        state = transform(fig2)
        # Figure 4: Risk dissolved into its members.
        assert not state.is_live("Risk")
        # Figure 5(a): DrugInteraction merged down into children.
        assert not state.is_live("DrugInteraction")
        assert "summary" in state.nodes["DrugFoodInteraction"].properties
        # Figure 6: Indication+Condition merged.
        assert "IndicationCondition" in state.nodes
        # Figure 7: Indication.desc list on Drug.
        assert "Indication.desc" in state.nodes["Drug"].properties

    def test_nsc_consumes_structural_rels(self, fig2):
        state = transform(fig2)
        structural = {
            r.rel_id for r in fig2.iter_relationships()
            if r.rel_type.is_structural
            or r.rel_type is RelationshipType.ONE_TO_ONE
        }
        assert structural == state.consumed

    def test_selection_restricts_effects(self, fig2):
        union_rel = fig2.relationships_of_type(RelationshipType.UNION)[0]
        selection = Selection(rel_ids=frozenset({union_rel.rel_id}))
        state = transform(fig2, selection)
        assert state.is_live("Risk")  # second member not selected
        assert union_rel.rel_id in state.consumed
        # Nothing else happened.
        assert state.is_live("DrugInteraction")
        assert "Indication.desc" not in state.nodes["Drug"].properties

    def test_rule_order_override(self, fig2):
        order = sorted(fig2.relationships, reverse=True)
        a = transform(fig2, rule_order=order)
        b = transform(fig2)
        assert fingerprint(a) == fingerprint(b)

    def test_duplicated_rule_order_id_dispatches_once(self, fig2):
        first, second = sorted(fig2.relationships)[:2]
        order = _resolve_order(fig2, [second, "nope", second, first])
        assert order[:2] == [second, first]
        assert sorted(order) == sorted(fig2.relationships)

    def test_custom_thresholds_respected(self, fig2):
        # With theta2 = 0 nothing is below it: inheritance stays.
        state = transform(fig2, thresholds=Thresholds(1.0, 0.0))
        assert state.is_live("DrugInteraction")

    def test_terminates_on_larger_ontology(self, med_small):
        state = transform(med_small.ontology)
        assert state.nodes  # converged without raising


class TestGeneratedSchema:
    def test_schema_matches_state(self, fig2):
        from repro.schema.generate import generate_schema

        state = transform(fig2)
        schema, mapping = generate_schema(state)
        assert set(schema.vertex_schemas) == set(state.nodes)
        assert schema.num_edge_types == len(
            {(e.src, e.dst, e.label, e.origin_rel) for e in state.edges}
        )


def realized_digest(state, mapping) -> str:
    """sha256 of a realized schema: every live node's key, concepts and
    ``SchemaProperty`` fields (in property order), the edges, the
    replications (in mapping order) and the collapsed relationships."""
    nodes = [
        [key, sorted(node.concepts), [
            [p.name, p.data_type.name, p.is_list, p.origin_concept,
             p.origin_name, p.provenance.name, p.via_rel, p.via_direction]
            for p in node.properties.values()
        ]]
        for key, node in sorted(state.nodes.items())
    ]
    edges = sorted(
        [e.src, e.dst, e.label, e.rel_type.name, e.origin_rel]
        for e in state.edges
    )
    replications = [
        [r.rel_id, r.owner_node, r.source_concept, r.source_property,
         r.list_name, r.direction]
        for r in mapping.replications
    ]
    collapsed = sorted([k, v.name] for k, v in mapping.collapsed.items())
    blob = json.dumps([nodes, edges, replications, collapsed])
    return hashlib.sha256(blob.encode()).hexdigest()


#: Realized MED / FIN schemas at the benchmark's budget and thresholds
#: and under NSC.  The confluence tests compare rule orders with each
#: other, so only a pin catches a change every order makes alike.
PINNED_SCHEMAS = {
    ("med", "budget"):
        "c4f28163fb0ecca57aa062f1aa7b040df3298cf3f2af857ee47e25a985a4f115",
    ("med", "nsc"):
        "b6053a54c8a368810b7a8852214474e1bdb5c48ed3a8c5c5ce3cd400d160de69",
    ("fin", "budget"):
        "9f03861ebafe22cb6b55d1791f6ccd1104727652493f63dd96b225befe328ab2",
    ("fin", "nsc"):
        "ac4c99077bec564f3a100eea617c8a4e9466b0b5b6dc747f332dece4ec36f89b",
}


@pytest.mark.parametrize("name,mode", sorted(PINNED_SCHEMAS))
def test_realized_schema_is_pinned(name, mode):
    dataset = build_med() if name == "med" else build_fin()
    if mode == "nsc":
        state = transform(
            dataset.ontology, Selection.all(), MICROBENCH_THRESHOLDS
        )
        _, mapping = generate_schema(state)
    else:
        workload = dataset.query_workload()
        model = CostBenefitModel(
            dataset.ontology, dataset.stats, workload,
            MICROBENCH_THRESHOLDS,
        )
        result = optimize(
            dataset.ontology, dataset.stats,
            model.budget_for_fraction(MICROBENCH_BUDGET_FRACTION),
            workload, MICROBENCH_THRESHOLDS,
        )
        state, mapping = result.state, result.mapping
    assert realized_digest(state, mapping) == PINNED_SCHEMAS[name, mode]
