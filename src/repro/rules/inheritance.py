"""Inheritance rule (Algorithm 2).

Uses the Jaccard similarity ``js`` between the parent's and child's
property-name sets, frozen on the input ontology:

* ``js > theta1`` - the child shares most of its properties with the
  parent: *merge up*.  The parent absorbs the child's properties and
  non-inheritance edges and the child node is dropped (Figure 5(c)/(d)).
* ``js < theta2`` - the child has little in common with the parent:
  *merge down*.  The child absorbs the parent's properties and
  non-inheritance edges; the parent node is dropped once it has no
  remaining ``isA`` edge to any child (Figure 5(a)/(b)).
* otherwise the ``isA`` edge is kept as a plain schema edge.

The merge-down copy re-fires on every fixpoint iteration while the parent
is live so later-acquired parent content also reaches the children
(Appendix A, case (ii)).
"""

from __future__ import annotations

from dataclasses import replace

from repro.ontology.model import Relationship, RelationshipType
from repro.rules.base import Provenance, SchemaState


def apply_inheritance(state: SchemaState, rel: Relationship) -> bool:
    """Apply the inheritance rule for one ``isA`` relationship."""
    js = state.jaccard[rel.rel_id]
    thresholds = state.thresholds
    if js > thresholds.theta1:
        return _merge_up(state, rel)
    if js < thresholds.theta2:
        return _merge_down(state, rel)
    return False  # middle band: the isA edge schema is kept as-is


def _merge_up(state: SchemaState, rel: Relationship) -> bool:
    """Parent absorbs child; the child drops when fully resolved.

    The copy step (child properties and non-inheritance edges onto the
    parent, Algorithm 2 lines 5-6) re-fires while the child lives; the
    drop waits until every structural relationship rooted at the child
    (it may itself be a union concept or a parent) has been consumed.
    """
    parent_key, child_key = rel.src, rel.dst
    changed = False

    if rel.rel_id not in state.consumed:
        state.consumed.add(rel.rel_id)
        state.edges = {
            e for e in state.edges if e.origin_rel != rel.rel_id
        }
        for key in state.resolve(child_key):
            state.up_absorbers.setdefault(key, set()).add(parent_key)
        changed = True

    if state.is_live(child_key):
        changed |= _propagate_up(state, child_key, parent_key)
        changed |= state.maybe_drop_structural(child_key)
    return changed


def _propagate_up(
    state: SchemaState, child_key: str, parent_key: str
) -> bool:
    """Copy the child's properties and non-inheritance edges upward."""
    changed = False
    child_keys = set(state.resolve(child_key))
    held = state.held_names(parent_key)
    for prop in state.properties_of(child_key).values():
        if prop.name in held:
            continue
        copied = replace(
            prop,
            provenance=(
                prop.provenance
                if prop.provenance is not Provenance.NATIVE
                else Provenance.FROM_CHILD
            ),
        )
        changed |= state.add_property(parent_key, copied)
    for edge in state.edges_touching(child_key):
        if edge.rel_type is RelationshipType.INHERITANCE:
            continue
        if edge.src in child_keys:
            changed |= state.add_edge(
                parent_key, edge.dst, edge.label, edge.rel_type,
                edge.origin_rel,
            )
        if edge.dst in child_keys:
            changed |= state.add_edge(
                edge.src, parent_key, edge.label, edge.rel_type,
                edge.origin_rel,
            )
    return changed


def _merge_down(state: SchemaState, rel: Relationship) -> bool:
    """Child absorbs parent; the parent drops when childless."""
    parent_key, child_key = rel.src, rel.dst
    changed = False

    if rel.rel_id not in state.consumed:
        state.consumed.add(rel.rel_id)
        state.edges = {
            e for e in state.edges if e.origin_rel != rel.rel_id
        }
        for key in state.resolve(parent_key):
            state.parent_absorbers.setdefault(key, set()).add(child_key)
        changed = True

    if state.is_live(parent_key):
        changed |= _propagate_down(state, parent_key, child_key)
        changed |= state.maybe_drop_structural(parent_key)
    return changed


def _propagate_down(
    state: SchemaState, parent_key: str, child_key: str
) -> bool:
    """Copy the parent's properties and non-inheritance edges to a child."""
    changed = False
    parent_keys = set(state.resolve(parent_key))
    held = state.held_names(child_key)
    for prop in state.properties_of(parent_key).values():
        if prop.name in held:
            continue
        copied = replace(
            prop,
            provenance=(
                prop.provenance
                if prop.provenance is not Provenance.NATIVE
                else Provenance.FROM_PARENT
            ),
        )
        changed |= state.add_property(child_key, copied)
    for edge in state.edges_touching(parent_key):
        if edge.rel_type is RelationshipType.INHERITANCE:
            continue
        if edge.src in parent_keys:
            changed |= state.add_edge(
                child_key, edge.dst, edge.label, edge.rel_type,
                edge.origin_rel,
            )
        if edge.dst in parent_keys:
            changed |= state.add_edge(
                edge.src, child_key, edge.label, edge.rel_type,
                edge.origin_rel,
            )
    return changed


