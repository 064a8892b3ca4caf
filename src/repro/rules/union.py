"""Union rule (Algorithm 1).

For a union relationship ``run = (union, member)`` the member node is
connected directly to every node the union node connects to, the union
node's data properties are copied to the member, and the ``unionOf`` edge
is removed.  Once every union relationship of a union node has been
consumed, the union node itself is dropped (Figure 4 drops ``Risk``); its
successors are the members that absorbed it, so the drop rewrites any
remaining incident edges onto them.

The copy step re-fires on every fixpoint iteration while the union node is
still live, so edges and properties the union node acquires from *other*
rules also flow to the members (required for Theorem 3's
order-independence; see Appendix A, case (i)).

The member is the absorber and the union node the absorbed node of
:meth:`~repro.rules.base.SchemaState.absorb`, which does all of the
above.
"""

from __future__ import annotations

from repro.ontology.model import Relationship
from repro.rules.base import Provenance, SchemaState


def apply_union(state: SchemaState, rel: Relationship) -> bool:
    """Apply the union rule for one union relationship.  True if changed."""
    return state.absorb(rel, rel.src, rel.dst, Provenance.FROM_UNION)
