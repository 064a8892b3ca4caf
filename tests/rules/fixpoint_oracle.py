"""Algorithm 5's fixpoint loop as the paper states it, for the tests.

:func:`repro.rules.engine.transform` ends the loop on the rules' own
change reports.  The reference here is the literal "repeat ... until
O = O_prev": it compares a :func:`fingerprint` of the whole state
before and after every pass, and it notes, for every dispatch, what
the rule reported against what it did.
"""

from __future__ import annotations

from typing import Callable

from repro.ontology.model import Ontology
from repro.rules.base import SchemaState, Selection, Thresholds
from repro.rules.engine import MAX_ITERATIONS, _dispatch, _resolve_order


def fingerprint(state: SchemaState) -> tuple:
    """The state as Algorithm 5 compares it: node keys with their
    property names, edges and consumed relationships, each sorted."""
    node_part = tuple(
        sorted(
            (key, tuple(sorted(node.properties)))
            for key, node in state.nodes.items()
        )
    )
    edge_part = tuple(
        sorted((e.src, e.dst, e.label, e.origin_rel) for e in state.edges)
    )
    return (node_part, edge_part, tuple(sorted(state.consumed)))


def _observed(state: SchemaState) -> tuple:
    """What a dispatch may change: the fingerprint and the concept set
    of each node (a rename onto the same key changes only the latter)."""
    concepts = {key: node.concepts for key, node in state.nodes.items()}
    return fingerprint(state), concepts


def reference_transform(
    ontology: Ontology,
    selection: Selection | None = None,
    thresholds: Thresholds | None = None,
    rule_order: list[str] | None = None,
    check: Callable[[SchemaState], None] | None = None,
) -> tuple[SchemaState, list[tuple[str, bool, bool]]]:
    """The final state and, per dispatch in order, ``(rel id, what the
    rule reported, whether the state changed)``.  ``check``, when
    given, is called with the state after every dispatch."""
    selection = selection or Selection.all()
    state = SchemaState(ontology, thresholds)
    order = _resolve_order(ontology, rule_order)
    reports: list[tuple[str, bool, bool]] = []
    for _ in range(MAX_ITERATIONS):
        before = fingerprint(state)
        for rel_id in order:
            seen = _observed(state)
            reported = _dispatch(
                state, ontology.relationships[rel_id], selection
            )
            reports.append((rel_id, reported, _observed(state) != seen))
            if check is not None:
                check(state)
        if fingerprint(state) == before:
            return state, reports
    raise AssertionError(
        f"no fixpoint within {MAX_ITERATIONS} passes"
    )
