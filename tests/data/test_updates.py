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


def link_uids(logical, rel_id, at=0):
    """The uids of ``rel_id``'s link number ``at``: a link as the
    updater takes it."""
    srcs, dsts = logical.link_ids[rel_id]
    return logical.uids[srcs[at]], logical.uids[dsts[at]]


def first_uid(logical, concept):
    return logical.uids[logical.ids[concept][0]]


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
        logical = setup["logical"]
        assert logical.concept_name(logical.id_of(uid)) == "Drug"

    def test_member_creates_union_twin(self, setup):
        updater = setup["updater"]
        uid = updater.insert_instance(
            "ContraIndication", {"description": "x"}
        )
        # DIR: member vertex + Risk twin + unionOf edge.
        twin = f"Risk|{uid}"
        logical = setup["logical"]
        assert logical.concept_name(logical.id_of(twin)) == "Risk"
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
        assert setup["logical"].has_instance(f"DrugInteraction|{uid}")
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
        drug = first_uid(logical, "Drug")
        ind = first_uid(logical, "Indication")
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
        assert logical.properties_of(logical.id_of(ind))["desc"] in values

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
        src, dst = link_uids(logical, treat.rel_id)
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
        by_drug: dict[int, list[int]] = {}
        for s, d in zip(*logical.link_ids[treat.rel_id]):
            by_drug.setdefault(s, []).append(d)
        drug, inds = next(
            (s, ds) for s, ds in by_drug.items() if len(ds) == 1
        )
        updater.delete_link(
            treat.rel_id, logical.uids[drug], logical.uids[inds[0]]
        )
        vid = setup["opt_registry"].vid_of[drug]
        assert "Indication.desc" not in setup["opt"].vertex(
            vid
        ).properties


class TestSetProperty:
    def test_vertex_and_lists_refreshed(self, setup):
        updater = setup["updater"]
        logical = setup["logical"]
        onto = setup["ontology"]
        treat = onto.find_relationship("treat", "Drug", "Indication")
        drug, ind = link_uids(logical, treat.rel_id)
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
        drug = first_uid(logical, "Drug")
        new_ci = updater.insert_instance(
            "ContraIndication", {"description": "added"}
        )
        cause = onto.find_relationship("cause", "Drug", "Risk")
        updater.insert_link(cause.rel_id, drug, f"Risk|{new_ci}")
        src, dst = link_uids(logical, treat.rel_id)
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
        link = link_uids(harness.logical, rel.rel_id)
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
        twin = harness.logical.id_of(f"Person|{uid}")
        assert harness.logical.properties_of(twin) == {"hasName": "n"}
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
        links = [list(ends) for ends in logical.link_ids[has.rel_id]]
        edges = setup["dir"].num_edges, setup["opt"].num_edges
        src, dst = link_uids(logical, has.rel_id)
        for change in (
            setup["updater"].insert_link, setup["updater"].delete_link
        ):
            with pytest.raises(
                DataGenerationError, match=f"{has.rel_id}.*merge_1_1"
            ):
                change(has.rel_id, src, dst)
        assert [list(ends) for ends in logical.link_ids[has.rel_id]] == links
        assert (setup["dir"].num_edges, setup["opt"].num_edges) == edges


class TestRemoveLink:
    def test_removes_one_occurrence(self, setup):
        logical = setup["logical"]
        treat = setup["ontology"].find_relationship(
            "treat", "Drug", "Indication"
        )
        src, dst = link_uids(logical, treat.rel_id)
        pair = logical.id_of(src), logical.id_of(dst)
        logical.add_link_ids(treat.rel_id, [pair[0]], [pair[1]])

        def occurrences():
            return list(zip(*logical.link_ids[treat.rel_id])).count(pair)

        before = occurrences()
        logical.remove_link(treat.rel_id, src, dst)
        assert occurrences() == before - 1

    def test_missing_link_rejected(self, setup):
        with pytest.raises(DataGenerationError, match="no link"):
            setup["logical"].remove_link("nope", "a", "b")
