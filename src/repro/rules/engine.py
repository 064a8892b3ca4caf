"""Fixpoint rule engine (the core of Algorithms 5, 7 and 8).

:func:`transform` starts from the direct mapping of an ontology and
repeatedly applies the enabled rules until the schema state stops changing
("repeat ... until O = O_prev" in Algorithm 5).  Every rule reports
whether its application changed the state, so the loop ends after the
first full pass in which none did: that pass left the state as it found
it, which is Algorithm 5's "O = O_prev" without comparing two copies of
the state.  That needs every report to be exact: a rule that reported
a change it did not make could keep the loop going to
``MAX_ITERATIONS``, and one that hid a change could stop it early
(``tests/rules/test_fixpoint_oracle.py`` replays the literal loop).  With
``Selection.all()`` this is exactly the paper's space-unconstrained
optimization; space-constrained algorithms pass the subset of rule
applications they selected.

Rules are dispatched in sorted relationship-id order, but because every
rule operation is monotone the fixpoint is order-independent (Theorem 3);
``tests/rules/test_confluence.py`` verifies this property with random
orders.

Each iteration re-dispatches every rule, and most of those re-runs
change nothing.  The 1:M / M:N list propagation skips such a re-run
outright.  Every :class:`~repro.rules.base.SchemaNode` draws a new
``version`` when it is created and whenever it gains a property, and
``SchemaState.list_passes`` keeps the nodes and versions each
(relationship, direction) pass left behind; a pass that would find
the same ones would read what it read then and add nothing, so it is
skipped.  The skip changes no output:
``tests/optimizer/test_output_pinned.py`` holds the schemas by digest.
"""

from __future__ import annotations

from repro.exceptions import OptimizationError
from repro.ontology.model import Ontology, Relationship, RelationshipType
from repro.rules.base import SchemaState, Selection, Thresholds
from repro.rules.inheritance import apply_inheritance
from repro.rules.one_to_many import apply_many_to_many, apply_one_to_many
from repro.rules.one_to_one import apply_one_to_one
from repro.rules.union import apply_union

#: Safety bound on fixpoint iterations; real ontologies converge in a
#: handful of rounds (propagation depth is bounded by the ontology
#: diameter).
MAX_ITERATIONS = 1000


def transform(
    ontology: Ontology,
    selection: Selection | None = None,
    thresholds: Thresholds | None = None,
    rule_order: list[str] | None = None,
) -> SchemaState:
    """Run the enabled rules to a fixpoint and return the final state.

    ``rule_order`` overrides the per-iteration dispatch order (used by the
    confluence tests); a repeated id is dispatched once, at its first
    place, and ids not present are appended in sorted order.
    """
    selection = selection or Selection.all()
    state = SchemaState(ontology, thresholds)
    rels = [ontology.relationships[rel_id]
            for rel_id in _resolve_order(ontology, rule_order)]

    for _ in range(MAX_ITERATIONS):
        changed = False
        for rel in rels:
            changed |= _dispatch(state, rel, selection)
        if not changed:
            return state
    raise OptimizationError(
        f"rule engine did not converge within {MAX_ITERATIONS} iterations"
    )


def direct_state(ontology: Ontology,
                 thresholds: Thresholds | None = None) -> SchemaState:
    """The untransformed direct mapping (the paper's DIR baseline)."""
    return SchemaState(ontology, thresholds)


def _resolve_order(
    ontology: Ontology, rule_order: list[str] | None
) -> list[str]:
    all_ids = sorted(ontology.relationships)
    if not rule_order:
        return all_ids
    known = ontology.relationships
    return list(dict.fromkeys([r for r in rule_order if r in known] + all_ids))


def _dispatch(
    state: SchemaState, rel: Relationship, selection: Selection
) -> bool:
    if rel.rel_type is RelationshipType.ONE_TO_ONE:
        if selection.has_rel(rel.rel_id):
            return apply_one_to_one(state, rel)
        return False
    if rel.rel_type is RelationshipType.UNION:
        if selection.has_rel(rel.rel_id):
            return apply_union(state, rel)
        return False
    if rel.rel_type is RelationshipType.INHERITANCE:
        if selection.has_rel(rel.rel_id):
            return apply_inheritance(state, rel)
        return False
    if rel.rel_type is RelationshipType.ONE_TO_MANY:
        props = selection.props_for(rel.rel_id, "fwd")
        return apply_one_to_many(state, rel, props)
    if rel.rel_type is RelationshipType.MANY_TO_MANY:
        fwd = selection.props_for(rel.rel_id, "fwd")
        rev = selection.props_for(rel.rel_id, "rev")
        return apply_many_to_many(state, rel, fwd, rev)
    raise OptimizationError(
        f"unhandled relationship type {rel.rel_type!r}"
    )  # pragma: no cover - enum is closed
