"""One-to-many rule (Algorithm 4) and many-to-many rule.

For a 1:M relationship ``r = (ci, cj)`` each data property of the "many"
side ``cj`` is propagated to the "one" side ``ci`` as a property of type
LIST, named ``"<Cj>.<prop>"`` (Figure 7: ``Indication.desc`` on ``Drug``).
Aggregations and 1-hop neighborhood lookups then read the local list
instead of traversing edges.

An M:N relationship is equivalent to two 1:M relationships (Section 3),
so the many-to-many rule runs the propagation in both directions; under a
space constraint each direction's properties are selected independently
(Section 4.2.2).

Propagation re-fires on every fixpoint iteration, so properties the "many"
side acquires from other rules are propagated transitively (Appendix A,
cases (ii) and (vi)).  Under a space-constrained :class:`Selection`, only
the *native* properties of the destination concept are eligible - those
are exactly the (relationship, property) items the cost model prices.
"""

from __future__ import annotations

from repro.ontology.model import Relationship
from repro.rules.base import (
    Provenance,
    SchemaProperty,
    SchemaState,
)


def apply_one_to_many(
    state: SchemaState,
    rel: Relationship,
    props: frozenset[str] | None,
) -> bool:
    """Propagate dst properties to src as LISTs.

    ``props`` restricts propagation to the named native properties of the
    destination concept; ``None`` (NSC mode) propagates everything.
    """
    return _propagate_lists(state, rel, rel.src, rel.dst, props, "fwd")


def apply_many_to_many(
    state: SchemaState,
    rel: Relationship,
    fwd_props: frozenset[str] | None,
    rev_props: frozenset[str] | None,
) -> bool:
    """Propagate in both directions (two 1:M halves)."""
    changed = _propagate_lists(state, rel, rel.src, rel.dst, fwd_props,
                               "fwd")
    changed |= _propagate_lists(state, rel, rel.dst, rel.src, rev_props,
                                "rev")
    return changed


def _propagate_lists(
    state: SchemaState,
    rel: Relationship,
    owner: str,
    source: str,
    props: frozenset[str] | None,
    direction: str,
) -> bool:
    """Copy ``source``'s properties onto ``owner`` as LIST properties.

    The pass reads only the live nodes ``owner`` and ``source`` resolve
    to, and running it twice in a row changes nothing the second time;
    so when those nodes are the ones it last ran on, at the versions it
    left them at, it is skipped.
    """
    if props is not None and not props:
        return False
    nodes = state.nodes
    owners, sources = state.resolve(owner), state.resolve(source)

    def inputs() -> tuple:
        return (props, owners, sources,
                tuple(nodes[key].version for key in owners + sources))

    pass_key = (rel.rel_id, direction)
    if state.list_passes.get(pass_key) == inputs():
        return False
    changed = False
    held = state.held_names(owner)
    for prop in state.properties_of(source).values():
        if props is not None and not _is_selected(prop, source, props):
            continue
        list_name = (
            prop.name if "." in prop.name else f"{source}.{prop.name}"
        )
        if list_name in held:
            continue
        replicated = SchemaProperty(
            name=list_name,
            data_type=prop.data_type,
            is_list=True,
            origin_concept=prop.origin_concept,
            origin_name=prop.origin_name,
            provenance=Provenance.REPLICATED,
            via_rel=rel.rel_id,
            via_direction=direction,
        )
        changed |= state.add_property(owner, replicated)
    state.list_passes[pass_key] = inputs()
    return changed


def _is_selected(
    prop: SchemaProperty, source: str, props: frozenset[str]
) -> bool:
    """Under a space constraint only priced properties move.

    Matching is by *origin* (the concept that natively declared the
    property), not by provenance: a native property survives merges
    (1:1, inheritance) as a copy whose origin still names the source
    concept, and the cost model priced exactly those origins.
    """
    return prop.origin_concept == source and prop.origin_name in props
