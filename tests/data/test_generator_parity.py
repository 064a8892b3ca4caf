"""Generator parity: the batched ``generate_logical`` equals the
per-element oracle (``tests/data/generator_oracle.py``).

The draw order is a contract (``benchmarks/e2e/expected.json`` pins
its digests), so the comparison is strict: the same instances, property
values, links and concepts, with every dict's key order - ``links``'s
key order is the order the loader interns edge labels in.  MED and FIN
run at scale 0.1 (validate small); random ontologies from
``tests/ontology_gen.py``, with every data type, identity properties
and a 1:1 added, are drawn from ``REPRO_DIFF_SEED``, as for the
differential query fuzzer; CI runs one extra logged random seed per
build.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.data.generator import generate_logical
from repro.data.logical import LogicalDataset
from repro.datasets import build_fin, build_med
from repro.exceptions import DataGenerationError
from repro.ontology.model import DataProperty, DataType, RelationshipType
from repro.ontology.stats import synthesize_statistics
from tests.data.generator_oracle import reference_generate_logical
from tests.ontology_gen import random_ontology

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))
RANDOM_DRAWS = 12


def assert_same_dataset(actual, expected):
    assert list(actual.instances.items()) == list(expected.instances.items())
    assert list(actual.links.items()) == list(expected.links.items())
    assert list(actual.concept_of.items()) == list(
        expected.concept_of.items()
    )
    assert list(actual.properties) == list(expected.properties)
    for uid, props in expected.properties.items():
        got = actual.properties[uid]
        assert list(got.items()) == list(props.items()), uid
        assert [type(v) for v in got.values()] == [
            type(v) for v in props.values()
        ], uid


def assert_parity(ontology, stats, seed):
    assert_same_dataset(
        generate_logical(ontology, stats, seed=seed),
        reference_generate_logical(ontology, stats, seed=seed),
    )


@pytest.mark.parametrize("build", [build_med, build_fin],
                         ids=["med", "fin"])
def test_paper_datasets_equal_the_oracle(build):
    dataset = build()
    assert_parity(dataset.ontology, dataset.stats.scaled(0.1), dataset.seed)


def retyped_random_ontology(draw: int):
    """``random_ontology`` with every property given a random data
    type, an identity property on some concepts, and one 1:1."""
    rng = random.Random(draw)
    ontology = random_ontology(draw, rng.randint(3, 7), rng.randint(3, 9))
    types = list(DataType)
    for concept in ontology.concepts.values():
        for name in list(concept.properties):
            concept.properties[name] = DataProperty(name, rng.choice(types))
        identity = rng.choice([None, "name", f"{concept.name}Id"])
        if identity is not None:
            concept.add_property(DataProperty(identity, rng.choice(types)))
    derived = ontology.derived_concepts()
    plain = [c for c in ontology.concepts if c not in derived]
    if len(plain) >= 2:
        src, dst = rng.sample(plain, 2)
        ontology.add_relationship(
            "pairs", src, dst, RelationshipType.ONE_TO_ONE
        )
    return ontology


@pytest.mark.parametrize("index", range(RANDOM_DRAWS))
def test_random_ontologies_equal_the_oracle(index):
    draw = random.Random(SEED * 1000 + index).randrange(10**6)
    ontology = retyped_random_ontology(draw)
    stats = synthesize_statistics(ontology, base_cardinality=12, seed=draw)
    assert_parity(ontology, stats, draw)


def test_shared_twin_and_empty_layout_equal_the_oracle(fig2, fig2_stats):
    # A parent related to one child by both isA and unionOf shares the
    # twin; a concept with no properties gets empty dicts.
    fig2.add_concept("Bare")
    fig2.add_concept("Either").add_property(DataProperty("kind"))
    fig2.add_relationship("isA", "Either", "Bare",
                          RelationshipType.INHERITANCE)
    fig2.add_relationship("unionOf", "Either", "Bare",
                          RelationshipType.UNION)
    stats = synthesize_statistics(fig2, base_cardinality=10, seed=5)
    assert_parity(fig2, stats, 5)
    logical = generate_logical(fig2, stats, seed=5)
    assert len(logical.instances_of("Either")) == stats.card("Bare")
    assert all(logical.properties[u] == {} for u in
               logical.instances_of("Bare"))


class TestBatchChecks:
    def test_unknown_endpoint_names_the_first_and_adds_nothing(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_instances("Drug", ["d1", "d2"], [{}, {}])
        pairs = [("d1", "d2"), ("d2", "ghost"), ("phantom", "d1")]
        with pytest.raises(DataGenerationError, match="'ghost'"):
            ds.add_links("r0001", pairs)
        assert ds.links == {}

    def test_empty_batch_adds_no_key(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_links("r0001", [])
        ds.add_instances("Drug", [], [])
        assert ds.links == {} and ds.instances == {}

    def test_batches_append_in_order(self, fig2):
        ds = LogicalDataset(fig2)
        ds.add_instances("Drug", ["d1"], [{}])
        ds.add_instances("Drug", ["d2", "d3"], [{}, {}])
        ds.add_links("r0001", [("d1", "d2")])
        ds.add_links("r0001", [("d3", "d1")])
        assert ds.instances == {"Drug": ["d1", "d2", "d3"]}
        assert ds.links == {"r0001": [("d1", "d2"), ("d3", "d1")]}

    @pytest.mark.parametrize("uids", [["d1", "d2"], ["d3", "d3"]],
                             ids=["known", "repeated"])
    def test_duplicate_uid_raises_before_adding(self, fig2, uids):
        ds = LogicalDataset(fig2)
        ds.add_instance("Drug", "d1", {})
        with pytest.raises(DataGenerationError, match="duplicate"):
            ds.add_instances("Drug", uids, [{}, {}])
        assert ds.concept_of == {"d1": "Drug"}
        assert ds.instances == {"Drug": ["d1"]}
