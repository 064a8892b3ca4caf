"""Tests for the logical dataset and the synthetic generator."""

import pytest

from repro.data.generator import generate_logical
from repro.data.logical import LogicalDataset
from repro.exceptions import DataGenerationError
from repro.ontology.model import RelationshipType
from repro.ontology.stats import synthesize_statistics


@pytest.fixture()
def logical(fig2, fig2_stats):
    return generate_logical(fig2, fig2_stats, seed=3)


class TestLogicalDataset:
    def test_duplicate_uid_rejected(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_instance("Drug", "d1", {})
        with pytest.raises(DataGenerationError):
            ds.add_instance("Drug", "d1", {})

    def test_link_requires_known_instances(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_instance("Drug", "d1", {})
        with pytest.raises(DataGenerationError):
            ds.add_link("r0001", "d1", "missing")

    def test_validate_checks_endpoint_concepts(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_instance("Drug", "d1", {})
        ds.add_instance("Drug", "d2", {})
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        ds.add_link(treat.rel_id, "d1", "d2")  # dst should be Indication
        with pytest.raises(DataGenerationError):
            ds.validate()


class TestValidateByArray:
    """``validate`` gathers each relationship's endpoint concepts from
    the per-id concept index; what it reports is pinned here."""

    @pytest.fixture()
    def treat(self, fig2):
        return next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )

    def test_wrong_endpoint_concept_names_the_relationship(
        self, logical, treat
    ):
        drugs = logical.ids_of("Drug")
        logical.add_link_ids(treat.rel_id, [drugs[0]], [drugs[1]])
        with pytest.raises(DataGenerationError) as raised:
            logical.validate()
        message = str(raised.value)
        assert treat.rel_id in message
        assert "'Drug' -> 'Drug'" in message
        assert "expected 'Drug' -> 'Indication'" in message

    def test_unknown_id_names_the_relationship(self, logical, treat):
        drug = logical.ids_of("Drug")[0]
        unknown = logical.num_instances
        logical.add_link_ids(treat.rel_id, [drug], [unknown])
        with pytest.raises(DataGenerationError) as raised:
            logical.validate()
        message = str(raised.value)
        assert treat.rel_id in message and str(unknown) in message

    def test_negative_id_is_unknown(self, logical, treat):
        logical.add_link_ids(treat.rel_id, [-1], [logical.ids_of(
            "Indication"
        )[0]])
        with pytest.raises(DataGenerationError, match="unknown instance"):
            logical.validate()


class TestGenerator:
    def test_validates(self, logical):
        logical.validate()

    def test_cardinalities_match_stats(self, fig2, fig2_stats, logical):
        for concept in fig2.concepts:
            assert len(logical.instances_of(concept)) == fig2_stats.card(
                concept
            )

    def test_deterministic(self, fig2, fig2_stats):
        a = generate_logical(fig2, fig2_stats, seed=3)
        b = generate_logical(fig2, fig2_stats, seed=3)
        assert a.properties == b.properties
        assert a.links == b.links

    def test_union_twins(self, fig2, logical):
        union_rels = fig2.relationships_of_type(RelationshipType.UNION)
        for rel in union_rels:
            pairs = logical.links_of(rel.rel_id)
            # One twin per member instance.
            assert len(pairs) == len(logical.instances_of(rel.dst))
            for twin_uid, member_uid in pairs:
                assert logical.concept_of[twin_uid] == "Risk"
                assert twin_uid == f"Risk|{member_uid}"

    def test_inheritance_twins(self, fig2, logical):
        for rel in fig2.relationships_of_type(
            RelationshipType.INHERITANCE
        ):
            pairs = logical.links_of(rel.rel_id)
            assert len(pairs) == len(logical.instances_of(rel.dst))
            for twin_uid, child_uid in pairs:
                assert logical.concept_of[twin_uid] == rel.src

    def test_one_to_one_bijection(self, fig2, logical):
        rel = fig2.relationships_of_type(RelationshipType.ONE_TO_ONE)[0]
        pairs = logical.links_of(rel.rel_id)
        srcs = [s for s, _ in pairs]
        dsts = [d for _, d in pairs]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)

    def test_one_to_many_single_source_per_dst(self, fig2, logical):
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        pairs = logical.links_of(treat.rel_id)
        dsts = [d for _, d in pairs]
        assert len(set(dsts)) == len(dsts)  # each indication: one drug
        assert len(pairs) == len(logical.instances_of("Indication"))

    def test_mn_fanout(self, med_small):
        logical = med_small.logical()
        mn = med_small.ontology.relationships_of_type(
            RelationshipType.MANY_TO_MANY
        )[0]
        pairs = logical.links_of(mn.rel_id)
        src_count = len(logical.instances_of(mn.src))
        assert len(pairs) >= src_count  # fanout >= 1 per source
        # No duplicate partners per source.
        seen = set()
        for pair in pairs:
            assert pair not in seen
            seen.add(pair)

    def test_property_values_typed(self, fig2, logical):
        for uid in logical.instances_of("Drug"):
            props = logical.properties[uid]
            assert isinstance(props["name"], str)
            assert isinstance(props["brand"], str)

    def test_identity_properties_unique(self, fig2, logical):
        names = [
            logical.properties[uid]["name"]
            for uid in logical.instances_of("Drug")
        ]
        assert len(set(names)) == len(names)

    def test_non_identity_properties_pooled(self, fig2, logical):
        descs = {
            logical.properties[uid]["desc"]
            for uid in logical.instances_of("Indication")
        }
        assert len(descs) < len(logical.instances_of("Indication"))

    def test_summary(self, logical):
        text = logical.summary()
        assert "instances" in text and "links" in text
