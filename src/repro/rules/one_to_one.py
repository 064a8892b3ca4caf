"""One-to-one rule (Algorithm 3).

The two endpoint concepts of a 1:1 relationship are merged into a single
combined node - analogous to table denormalization (Figure 6 merges
``Indication`` and ``Condition`` into ``IndicationCondition``).  The rule
both avoids an edge traversal and *reduces* space, so it is applied
unconditionally by every optimizer.
"""

from __future__ import annotations

from dataclasses import replace

from repro.ontology.model import Relationship
from repro.rules.base import Provenance, SchemaNode, SchemaState


def apply_one_to_one(state: SchemaState, rel: Relationship) -> bool:
    """Merge the endpoints of a 1:1 relationship into one node."""
    if not state.consume(rel.rel_id):
        return False

    keys = []
    for endpoint in (rel.src, rel.dst):
        for key in state.resolve(endpoint):
            if key not in keys:
                keys.append(key)
    if len(keys) <= 1:
        return True  # endpoints already merged by earlier rules

    concepts: set[str] = set()
    for key in keys:
        concepts |= state.nodes[key].concepts
    merged_key = state.canonical_key(frozenset(concepts))
    merged = SchemaNode(merged_key, frozenset(concepts))
    for key in keys:
        for prop in state.nodes[key].properties.values():
            merged.add_property(
                replace(
                    prop,
                    provenance=(
                        prop.provenance
                        if prop.provenance is not Provenance.NATIVE
                        else Provenance.MERGED
                    ),
                )
            )
    state.nodes[merged_key] = merged
    for key in keys:
        state.drop_node(key, (merged_key,))
    return True
