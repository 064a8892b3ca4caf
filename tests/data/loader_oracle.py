"""Test-only reference loaders: one ``add_edge`` per link.

The per-element ``load_direct`` / ``load_optimized`` that the bulk
loaders replaced, kept as the oracle they are compared against:
vertex ids, edge ids, labels, properties, list-property element order
and the :class:`LoadRegistry` contents must not change.
"""

from repro.data.loader import _group_property, _UnionFind
from repro.graphdb.graph import PropertyGraph


def reference_load_direct(logical, name="direct", registry=None):
    graph = PropertyGraph(name)
    vertex_of = registry.vertex_of if registry is not None else {}
    for concept, uids in logical.instances.items():
        for uid in uids:
            vertex_of[uid] = graph.add_vertex(
                (concept,), logical.properties[uid]
            )
    for rel_id, pairs in logical.links.items():
        rel = logical.ontology.relationship(rel_id)
        for src_uid, dst_uid in pairs:
            src_vid, dst_vid = vertex_of[src_uid], vertex_of[dst_uid]
            if rel.rel_type.is_structural:
                src_vid, dst_vid = dst_vid, src_vid
            graph.add_edge(src_vid, dst_vid, rel.label)
    return graph


def reference_load_optimized(
    logical, mapping, name="optimized", registry=None
):
    ontology = logical.ontology
    graph = PropertyGraph(name)
    uf = _UnionFind()
    for rel_id in mapping.collapsed:
        for src_uid, dst_uid in logical.links_of(rel_id):
            uf.union(src_uid, dst_uid)
    groups = uf.groups(logical.concept_of)
    vertex_of = registry.vertex_of if registry is not None else {}
    if registry is not None:
        registry.groups = groups
        registry.root_of = {
            uid: root for root, members in groups.items()
            for uid in members
        }
    for root, members in groups.items():
        concepts = {logical.concept_of[uid] for uid in members}
        labels = set(concepts)
        node_keys = None
        for concept in concepts:
            resolved = set(mapping.resolve_concept(concept))
            node_keys = (
                resolved if node_keys is None else node_keys & resolved
            )
        if node_keys:
            labels |= node_keys
        properties = {}
        for uid in sorted(members):
            properties.update(logical.properties[uid])
        vid = graph.add_vertex(frozenset(labels), properties)
        for uid in members:
            vertex_of[uid] = vid
    for rel_id, pairs in logical.links.items():
        if mapping.is_collapsed(rel_id):
            continue
        rel = ontology.relationship(rel_id)
        for src_uid, dst_uid in pairs:
            src_vid, dst_vid = vertex_of[src_uid], vertex_of[dst_uid]
            if rel.rel_type.is_structural:
                src_vid, dst_vid = dst_vid, src_vid
            graph.add_edge(src_vid, dst_vid, rel.label)
    grouped = {}
    for repl in mapping.replications:
        key = (
            repl.rel_id, repl.direction, repl.list_name,
            repl.source_concept, repl.source_property,
        )
        entry = grouped.setdefault(key, {"repl": repl, "owners": set()})
        entry["owners"].add(repl.owner_node)
    for entry in grouped.values():
        repl = entry["repl"]
        owners = entry["owners"]
        owner_is_src = repl.direction == "fwd"
        lists = {}
        for src_uid, dst_uid in logical.links_of(repl.rel_id):
            owner_uid = src_uid if owner_is_src else dst_uid
            partner_uid = dst_uid if owner_is_src else src_uid
            owner_vid = vertex_of[owner_uid]
            if not owners & graph.vertex(owner_vid).labels:
                continue
            value = _group_property(
                logical, uf, groups, partner_uid,
                repl.source_concept, repl.source_property,
            )
            if value is None:
                continue
            lists.setdefault(owner_vid, []).append(value)
        for vid, values in lists.items():
            existing = graph.vertex(vid).properties.get(repl.list_name)
            if isinstance(existing, list):
                existing.extend(values)
            else:
                graph.set_property(vid, repl.list_name, values)
    return graph


