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
        # Links go in by id; an unknown uid stops at the lookup.
        with pytest.raises(DataGenerationError, match="'missing'"):
            ds.add_link_ids("r0001", [ds.id_of("d1")], [ds.id_of("missing")])
        assert ds.link_ids == {}

    def test_validate_checks_endpoint_concepts(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_instance("Drug", "d1", {})
        ds.add_instance("Drug", "d2", {})
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        ds.add_link_ids(treat.rel_id, [0], [1])  # dst should be Indication
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
        drugs = logical.ids["Drug"]
        logical.add_link_ids(treat.rel_id, [drugs[0]], [drugs[1]])
        with pytest.raises(DataGenerationError) as raised:
            logical.validate()
        message = str(raised.value)
        assert treat.rel_id in message
        assert "'Drug' -> 'Drug'" in message
        assert "expected 'Drug' -> 'Indication'" in message

    def test_unknown_id_names_the_relationship(self, logical, treat):
        drug = logical.ids["Drug"][0]
        unknown = logical.num_instances
        logical.add_link_ids(treat.rel_id, [drug], [unknown])
        with pytest.raises(DataGenerationError) as raised:
            logical.validate()
        message = str(raised.value)
        assert treat.rel_id in message and str(unknown) in message

    def test_negative_id_is_unknown(self, logical, treat):
        logical.add_link_ids(
            treat.rel_id, [-1], [logical.ids["Indication"][0]]
        )
        with pytest.raises(DataGenerationError, match="unknown instance"):
            logical.validate()


class TestGenerator:
    def test_validates(self, logical):
        logical.validate()

    def test_cardinalities_match_stats(self, fig2, fig2_stats, logical):
        for concept in fig2.concepts:
            assert len(logical.ids[concept]) == fig2_stats.card(concept)

    def test_deterministic(self, fig2, fig2_stats):
        a = generate_logical(fig2, fig2_stats, seed=3)
        b = generate_logical(fig2, fig2_stats, seed=3)
        assert a.uids == b.uids
        assert a.columns == b.columns
        assert a.link_ids == b.link_ids

    def test_union_twins(self, fig2, logical):
        union_rels = fig2.relationships_of_type(RelationshipType.UNION)
        for rel in union_rels:
            twins, members = logical.link_ids[rel.rel_id]
            # One twin per member instance.
            assert len(twins) == len(logical.ids[rel.dst])
            for twin, member in zip(twins, members):
                assert logical.concept_name(twin) == "Risk"
                assert logical.uids[twin] == f"Risk|{logical.uids[member]}"

    def test_inheritance_twins(self, fig2, logical):
        for rel in fig2.relationships_of_type(
            RelationshipType.INHERITANCE
        ):
            twins, _children = logical.link_ids[rel.rel_id]
            assert len(twins) == len(logical.ids[rel.dst])
            for twin in twins:
                assert logical.concept_name(twin) == rel.src

    def test_one_to_one_bijection(self, fig2, logical):
        rel = fig2.relationships_of_type(RelationshipType.ONE_TO_ONE)[0]
        srcs, dsts = logical.link_ids[rel.rel_id]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)

    def test_one_to_many_single_source_per_dst(self, fig2, logical):
        treat = next(
            r for r in fig2.iter_relationships() if r.label == "treat"
        )
        _srcs, dsts = logical.link_ids[treat.rel_id]
        assert len(set(dsts)) == len(dsts)  # each indication: one drug
        assert len(dsts) == len(logical.ids["Indication"])

    def test_mn_fanout(self, med_small):
        logical = med_small.logical()
        mn = med_small.ontology.relationships_of_type(
            RelationshipType.MANY_TO_MANY
        )[0]
        pairs = list(zip(*logical.link_ids[mn.rel_id]))
        src_count = len(logical.ids[mn.src])
        assert len(pairs) >= src_count  # fanout >= 1 per source
        # No duplicate partners per source.
        seen = set()
        for pair in pairs:
            assert pair not in seen
            seen.add(pair)

    def test_property_values_typed(self, fig2, logical):
        for iid in logical.ids["Drug"]:
            props = logical.properties_of(iid)
            assert isinstance(props["name"], str)
            assert isinstance(props["brand"], str)

    def test_identity_properties_unique(self, fig2, logical):
        names = [
            logical.properties_of(iid)["name"]
            for iid in logical.ids["Drug"]
        ]
        assert len(set(names)) == len(names)

    def test_non_identity_properties_pooled(self, fig2, logical):
        descs = {
            logical.properties_of(iid)["desc"]
            for iid in logical.ids["Indication"]
        }
        assert len(descs) < len(logical.ids["Indication"])

    def test_summary(self, logical):
        text = logical.summary()
        assert "instances" in text and "links" in text
