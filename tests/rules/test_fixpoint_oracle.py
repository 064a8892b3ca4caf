"""``transform`` against Algorithm 5's literal loop
(``tests/rules/fixpoint_oracle.py``).

The engine stops after the first pass in which no rule reported a
change; the oracle stops when a pass left the state's fingerprint as it
found it.  The two agree only if every rule reports exactly what it
did, so the oracle also replays each dispatch and holds its report
against the state before and after.  Random ontologies (with a 1:1
now and then, which Theorem 3 leaves out but the loop must still end
on), selections and dispatch orders are drawn from
``REPRO_DIFF_SEED``, as for the differential query fuzzer; CI runs
one extra logged random seed per build.
"""

from __future__ import annotations

import os
import random
from collections import defaultdict

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.ontology.builder import OntologyBuilder
from repro.ontology.model import RelationshipType
from repro.ontology.samples import figure2_medical_ontology
from repro.rules.base import SchemaState, Selection
from repro.rules.engine import transform
from repro.schema.mapping import SchemaMapping
from tests.ontology_gen import random_ontology
from tests.rules.fixpoint_oracle import fingerprint, reference_transform
from tests.rules.test_base import _prop

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))

LIST_TYPES = (RelationshipType.ONE_TO_MANY, RelationshipType.MANY_TO_MANY)


def random_selection(ontology, rng: random.Random) -> Selection:
    """NSC a third of the time; otherwise about half of the rule
    relationships and of the list items."""
    if rng.random() < 1 / 3:
        return Selection.all()
    items = set()
    for rel in ontology.iter_relationships():
        if rel.rel_type in LIST_TYPES:
            for direction, source in (("fwd", rel.dst), ("rev", rel.src)):
                for name in ontology.concept(source).properties:
                    if rng.random() < 0.5:
                        items.add((rel.rel_id, direction, name))
    return Selection(
        rel_ids=frozenset(
            r for r in sorted(ontology.relationships) if rng.random() < 0.5
        ),
        list_props=frozenset(items),
    )


def summary(state: SchemaState) -> tuple:
    """Everything a caller reads: nodes in order with their concepts
    and properties in insertion order, edges, consumed relationships
    and the mapping's labels."""
    nodes = [
        (key, node.concepts, list(node.properties.items()))
        for key, node in state.nodes.items()
    ]
    labels = SchemaMapping(state.ontology, state).node_labels
    return nodes, state.edges, state.consumed, labels


def assert_indexes_match_edges(state: SchemaState) -> None:
    """The edge set's indexes (endpoint key -> edges, origin rel ->
    edges) hold, in their non-empty entries, exactly what rebuilding
    them from ``state.edges`` gives."""
    by_key, by_rel = defaultdict(set), defaultdict(set)
    for edge in state.edges:
        by_key[edge.src].add(edge)
        by_key[edge.dst].add(edge)
        by_rel[edge.origin_rel].add(edge)
    assert {k: v for k, v in state._by_key.items() if v} == by_key
    assert {k: v for k, v in state._by_rel.items() if v} == by_rel


def assert_as_the_oracle(ontology, selection=None, order=None, context=""):
    """``transform`` ends where the literal loop does, every dispatch
    on the way reported exactly whether it changed the state, and left
    the edge indexes matching the edge set.  Returns the oracle's
    reports."""
    got = transform(ontology, selection, rule_order=order)
    want, reports = reference_transform(
        ontology, selection, rule_order=order,
        check=assert_indexes_match_edges,
    )
    assert summary(got) == summary(want), context
    wrong = [r for r in reports if r[1] != r[2]]
    assert not wrong, f"{context}: (rel, reported, changed) {wrong}"
    return reports


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(
    draw=st.integers(0, 10**6),
    n_concepts=st.integers(3, 8),
    n_rels=st.integers(2, 12),
    one_to_one=st.booleans(),
)
def test_transform_equals_the_literal_loop(
    draw, n_concepts, n_rels, one_to_one
):
    rng = random.Random(draw)
    ontology = random_ontology(draw, n_concepts, n_rels)
    if one_to_one:
        src, dst = rng.sample(sorted(ontology.concepts), 2)
        ontology.add_relationship(
            "pairs", src, dst, RelationshipType.ONE_TO_ONE
        )
    selection = random_selection(ontology, rng)
    order = sorted(ontology.relationships)
    rng.shuffle(order)
    assert_as_the_oracle(
        ontology, selection, order, f"seed={SEED} draw={draw}"
    )


def test_med_reports_every_change(med_small):
    reports = assert_as_the_oracle(med_small.ontology)
    assert any(reported for _, reported, _ in reports)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_drop_alone_is_reported(reverse):
    """``U`` is a union of ``M`` and also its merge-up parent, so each
    absorbs the other.  In one order a later pass's union dispatch
    copies nothing and only renames ``U`` to the merged ``UM``: the
    drop is that dispatch's one change, and it must say so."""
    ontology = (
        OntologyBuilder()
        .concept("U", x="STRING")
        .concept("M", x="STRING")
        .union("U", "M")
        .inherits("U", "M")
        .build()
    )
    order = sorted(ontology.relationships, reverse=reverse)
    assert_as_the_oracle(ontology, order=order)
    assert list(transform(ontology, rule_order=order).nodes) == ["UM"]


def test_fingerprint_changes_on_mutation(fig2):
    state = SchemaState(fig2)
    before = fingerprint(state)
    state.add_property("Drug", _prop("extra"))
    assert fingerprint(state) != before


def test_fingerprint_stable(fig2):
    a = fingerprint(SchemaState(fig2))
    b = fingerprint(SchemaState(figure2_medical_ontology()))
    assert a == b
