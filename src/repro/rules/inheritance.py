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

Both merges are :meth:`~repro.rules.base.SchemaState.absorb` with the
roles swapped.  Its copy step re-fires on every fixpoint iteration
while the absorbed node is live, so later-acquired content also reaches
the absorber (Appendix A, case (ii)), and the absorbed node drops only
once every structural relationship rooted at it (it may itself be a
union concept or a parent) has been consumed.
"""

from __future__ import annotations

from repro.ontology.model import Relationship
from repro.rules.base import Provenance, SchemaState


def apply_inheritance(state: SchemaState, rel: Relationship) -> bool:
    """Apply the inheritance rule for one ``isA`` relationship."""
    merge = state.thresholds.merge(state.jaccard[rel.rel_id])
    parent, child = rel.src, rel.dst
    if merge == "up":
        return state.absorb(rel, child, parent, Provenance.FROM_CHILD)
    if merge == "down":
        return state.absorb(rel, parent, child, Provenance.FROM_PARENT)
    return False  # middle band: the isA edge schema is kept as-is
