"""Tests for incremental update handling (Section 4.2)."""

from collections import Counter

import pytest

from repro.data import (
    GraphUpdater,
    LoadRegistry,
    generate_logical,
    load_direct,
    load_optimized,
)
from repro.datasets import build_fin, build_med
from repro.exceptions import DataGenerationError
from repro.graphdb import Executor, GraphSession, NEO4J_LIKE
from repro.schema.generate import optimize_schema_nsc
from repro.schema.mapping import CollapseKind
from tests.data.test_update_parity import Harness, build_mapping


@pytest.fixture()
def setup(fig2, fig2_stats):
    logical = generate_logical(fig2, fig2_stats, seed=1)
    _, mapping = optimize_schema_nsc(fig2)
    dir_registry, opt_registry = LoadRegistry(), LoadRegistry()
    dir_graph = load_direct(logical, registry=dir_registry)
    opt_graph = load_optimized(logical, mapping, registry=opt_registry)
    updater = GraphUpdater(
        logical, mapping, dir_graph, dir_registry, opt_graph,
        opt_registry,
    )
    return {
        "ontology": fig2,
        "logical": logical,
        "mapping": mapping,
        "dir": dir_graph,
        "opt": opt_graph,
        "updater": updater,
        "opt_registry": opt_registry,
    }


def count(graph, query):
    return Executor(
        GraphSession(graph, NEO4J_LIKE)
    ).run(query).single_value()


class TestInsertInstance:
    def test_plain_concept(self, setup):
        before = setup["dir"].label_count("Drug")
        uid = setup["updater"].insert_instance(
            "Drug", {"name": "newdrug", "brand": "nb"}
        )
        assert setup["dir"].label_count("Drug") == before + 1
        assert setup["opt"].label_count("Drug") == before + 1
        assert setup["logical"].concept_of[uid] == "Drug"

    def test_member_creates_union_twin(self, setup):
        updater = setup["updater"]
        uid = updater.insert_instance(
            "ContraIndication", {"description": "x"}
        )
        # DIR: member vertex + Risk twin + unionOf edge.
        twin = f"Risk|{uid}"
        assert setup["logical"].concept_of[twin] == "Risk"
        dir_q = (
            "MATCH (ci:ContraIndication {description: 'x'})-"
            "[:unionOf]->(r:Risk) RETURN count(*)"
        )
        assert count(setup["dir"], dir_q) == 1
        # OPT: one merged vertex with both labels.
        opt_q = (
            "MATCH (v:Risk:ContraIndication {description: 'x'}) "
            "RETURN count(*)"
        )
        assert count(setup["opt"], opt_q) == 1

    def test_child_creates_parent_twin_chain(self, setup):
        updater = setup["updater"]
        uid = updater.insert_instance(
            "DrugFoodInteraction", {"risk": "high"}
        )
        assert f"DrugInteraction|{uid}" in setup["logical"].concept_of
        opt_q = (
            "MATCH (v:DrugFoodInteraction:DrugInteraction "
            "{risk: 'high'}) RETURN count(*)"
        )
        assert count(setup["opt"], opt_q) == 1

    def test_derived_concept_rejected(self, setup):
        with pytest.raises(DataGenerationError):
            setup["updater"].insert_instance("Risk", {})
        with pytest.raises(DataGenerationError):
            setup["updater"].insert_instance("DrugInteraction", {})


class TestInsertLink:
    def test_edge_and_list_maintained(self, setup):
        updater = setup["updater"]
        logical = setup["logical"]
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        drug = logical.instances_of("Drug")[0]
        ind = logical.instances_of("Indication")[0]
        dir_before = count(
            setup["dir"],
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN count(*)",
        )
        updater.insert_link(treat.rel_id, drug, ind)
        assert count(
            setup["dir"],
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN count(*)",
        ) == dir_before + 1
        # The drug's Indication.desc list includes the partner's desc.
        vid = setup["opt_registry"].vid_of[logical.id_of(drug)]
        values = setup["opt"].vertex(vid).properties["Indication.desc"]
        assert logical.properties[ind]["desc"] in values

    def test_structural_link_rejected(self, setup):
        onto = setup["ontology"]
        isa = [
            r for r in onto.iter_relationships() if r.label == "isA"
        ][0]
        with pytest.raises(DataGenerationError):
            setup["updater"].insert_link(isa.rel_id, "a", "b")


class TestDeleteLink:
    def test_dir_opt_stay_equivalent(self, setup):
        updater = setup["updater"]
        logical = setup["logical"]
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        src, dst = logical.links_of(treat.rel_id)[0]
        updater.delete_link(treat.rel_id, src, dst)
        dir_count = count(
            setup["dir"],
            "MATCH (d:Drug)-[:treat]->(i:Indication) "
            "RETURN count(i.desc)",
        )
        opt_total = sum(
            len(v.properties.get("Indication.desc") or [])
            for v in setup["opt"].iter_vertices()
        )
        assert dir_count == opt_total

    def test_missing_link_rejected(self, setup):
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        with pytest.raises(DataGenerationError):
            setup["updater"].delete_link(treat.rel_id, "nope", "nada")

    def test_last_link_removes_list(self, setup):
        updater = setup["updater"]
        logical = setup["logical"]
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        # Find a drug with exactly one indication.
        by_drug: dict[str, list[str]] = {}
        for s, d in logical.links_of(treat.rel_id):
            by_drug.setdefault(s, []).append(d)
        drug, inds = next(
            (s, ds) for s, ds in by_drug.items() if len(ds) == 1
        )
        updater.delete_link(treat.rel_id, drug, inds[0])
        vid = setup["opt_registry"].vid_of[logical.id_of(drug)]
        assert "Indication.desc" not in setup["opt"].vertex(
            vid
        ).properties


class TestSetProperty:
    def test_vertex_and_lists_refreshed(self, setup):
        updater = setup["updater"]
        logical = setup["logical"]
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        drug, ind = logical.links_of(treat.rel_id)[0]
        updater.set_property(ind, "desc", "FRESH")
        vid = setup["opt_registry"].vid_of[logical.id_of(drug)]
        values = setup["opt"].vertex(vid).properties["Indication.desc"]
        assert "FRESH" in values
        # DIR vertex updated too.
        dir_count = count(
            setup["dir"],
            "MATCH (i:Indication {desc: 'FRESH'}) RETURN count(*)",
        )
        assert dir_count == 1

    def test_queries_stay_equivalent_after_mixed_updates(self, setup):
        updater = setup["updater"]
        logical = setup["logical"]
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        drug = logical.instances_of("Drug")[0]
        new_ci = updater.insert_instance(
            "ContraIndication", {"description": "added"}
        )
        cause = onto.find_relationship("cause", "Drug", "Risk")
        updater.insert_link(cause.rel_id, drug, f"Risk|{new_ci}")
        src, dst = logical.links_of(treat.rel_id)[0]
        updater.delete_link(treat.rel_id, src, dst)
        dir_q = (
            "MATCH (d:Drug)-[:cause]->(r:Risk)<-[:unionOf]-"
            "(ci:ContraIndication) RETURN count(*)"
        )
        opt_q = (
            "MATCH (d:Drug)-[:cause]->(ci:Risk:ContraIndication) "
            "RETURN count(*)"
        )
        assert count(setup["dir"], dir_q) == count(setup["opt"], opt_q)


class TestReloadParity:
    """The first counter-examples of ``test_update_parity.py``, pinned:
    each is one update after which the old updater's OPT graph was not
    the graph ``load_optimized`` builds from the same logical data."""

    def test_set_property_shadowed_inside_merged_vertex(self):
        # FIN-NSC merges Corporation#0 with its LegalEntity and
        # Organization twins; the merged value and the nine lists that
        # read it through the group follow the loader's rule.
        dataset = build_fin()
        harness = Harness(dataset, build_mapping(dataset, "nsc"))
        harness.updater.set_property("Corporation#0", "orgName", "renamed")
        assert harness.difference() == ([], Counter(), Counter())

    def test_delete_link_keeps_what_other_relationships_feed(self):
        # Several relationships feed FinancialInstrument.* on one
        # Officer vertex: deleting a link of one of them must not
        # rebuild the list from that relationship alone.
        dataset = build_fin()
        harness = Harness(dataset, build_mapping(dataset, "pgsg-0.5"))
        rel = dataset.ontology.find_relationship(
            "finAssoc10", "FinancialInstrument", "Officer"
        )
        link = harness.logical.links_of(rel.rel_id)[0]
        harness.updater.delete_link(rel.rel_id, *link)
        assert harness.difference() == ([], Counter(), Counter())

    def test_inserted_instance_carries_its_schema_node_label(self):
        dataset = build_med()
        harness = Harness(dataset, build_mapping(dataset, "pgsg-0.5"))
        uid = harness.updater.insert_instance("Indication", {"desc": "x"})
        vid = harness.opt_registry.vid_of[harness.logical.id_of(uid)]
        assert harness.opt_graph.labels_of(vid) == {
            "Indication", "IndicationCondition",
        }
        assert harness.difference() == ([], Counter(), Counter())


    def test_twins_hold_the_properties_their_concept_declares(self):
        # Officer and its Person parent both declare hasName: an empty
        # Person twin answers FIN Q8's p.hasName with null on DIR and
        # with the Officer's value on the merged OPT vertex.
        dataset = build_fin()
        harness = Harness(dataset, build_mapping(dataset, "pgsg-0.1"))
        uid = harness.updater.insert_instance(
            "Officer", {"hasName": "n", "title": "t"}
        )
        assert harness.logical.properties[f"Person|{uid}"] == {"hasName": "n"}
        harness.assert_queries_equivalent()
        assert harness.difference() == ([], Counter(), Counter())


class TestCollapsedRelationship:
    """A link of a merged 1:1 would merge or split OPT vertices."""

    def test_insert_and_delete_refused_before_any_change(self, setup):
        logical, mapping = setup["logical"], setup["mapping"]
        has = setup["ontology"].find_relationship(
            "has", "Indication", "Condition"
        )
        assert mapping.collapse_kind(has.rel_id) is CollapseKind.MERGE_1_1
        links = list(logical.links_of(has.rel_id))
        edges = setup["dir"].num_edges, setup["opt"].num_edges
        src, dst = links[0]
        for change in (
            setup["updater"].insert_link, setup["updater"].delete_link
        ):
            with pytest.raises(
                DataGenerationError, match=f"{has.rel_id}.*merge_1_1"
            ):
                change(has.rel_id, src, dst)
        assert logical.links_of(has.rel_id) == links
        assert (setup["dir"].num_edges, setup["opt"].num_edges) == edges


class TestRemoveLink:
    def test_removes_one_occurrence(self, setup):
        logical = setup["logical"]
        treat = setup["ontology"].find_relationship(
            "treat", "Drug", "Indication"
        )
        src, dst = logical.links_of(treat.rel_id)[0]
        logical.add_link(treat.rel_id, src, dst)
        before = logical.links_of(treat.rel_id).count((src, dst))
        logical.remove_link(treat.rel_id, src, dst)
        assert logical.links_of(treat.rel_id).count((src, dst)) == before - 1

    def test_missing_link_rejected(self, setup):
        with pytest.raises(DataGenerationError, match="no link"):
            setup["logical"].remove_link("nope", "a", "b")
