"""Test-only reference loaders: one ``add_edge`` per link.

The per-element ``load_direct`` / ``load_optimized`` that the bulk
loaders replaced, kept as the oracle they are compared against:
vertex ids, edge ids, labels, properties, list-property element order
and the :class:`LoadRegistry` contents must not change.  They read the
dataset through its uid-keyed dict views and merge with a union-find.
"""

from array import array

from repro.graphdb.graph import PropertyGraph


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self._parent
        root = parent.setdefault(item, item)
        while parent[root] != root:
            root = parent[root]
        # Path compression, iteratively: a merge chain can be as long
        # as the dataset, far past the recursion limit.
        while item != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def groups(self, items) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for item in items:
            grouped.setdefault(self.find(item), []).append(item)
        return grouped


def _fill(registry, logical, vertex_of, root_of=None):
    """Record ``vertex_of`` / ``root_of`` (uid-keyed) as the loaders'
    id-indexed arrays."""
    if registry is None:
        return
    id_of = {uid: iid for iid, uid in enumerate(logical.uids)}
    registry.vid_of = array("q", [vertex_of[uid] for uid in logical.uids])
    if root_of is not None:
        registry.root_of = array(
            "q", [id_of[root_of[uid]] for uid in logical.uids]
        )


def reference_load_direct(logical, name="direct", registry=None):
    graph = PropertyGraph(name)
    vertex_of = {}
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
    _fill(registry, logical, vertex_of)
    return graph


def _group_property(logical, groups, root_of, uid, source_concept, prop):
    """Read ``source_concept.prop`` from the merged group of ``uid``."""
    properties, concept_of = logical.properties, logical.concept_of
    direct = properties[uid].get(prop)
    if direct is not None and concept_of[uid] == source_concept:
        return direct
    fallback = None
    for other_uid in groups[root_of[uid]]:
        value = properties[other_uid].get(prop)
        if value is None:
            continue
        if concept_of[other_uid] == source_concept:
            return value
        fallback = value if fallback is None else fallback
    return fallback


def reference_load_optimized(
    logical, mapping, name="optimized", registry=None
):
    ontology = logical.ontology
    graph = PropertyGraph(name)
    uf = _UnionFind()
    for rel_id in mapping.collapsed:
        for src_uid, dst_uid in logical.links_of(rel_id):
            uf.union(src_uid, dst_uid)
    # Each group is named by its first member.
    groups = {
        members[0]: members
        for members in uf.groups(logical.concept_of).values()
    }
    root_of = {
        uid: root for root, members in groups.items() for uid in members
    }
    vertex_of = {}
    for root, members in groups.items():
        # A label set's iteration order is the order its labels are
        # interned in: built as the loaders build it, member by member.
        concepts = frozenset(logical.concept_of[uid] for uid in members)
        node_keys = None
        for concept in concepts:
            resolved = set(mapping.resolve_concept(concept))
            node_keys = (
                resolved if node_keys is None else node_keys & resolved
            )
        labels = concepts | (node_keys or set())
        properties = {}
        for uid in sorted(members):
            properties.update(logical.properties[uid])
        vid = graph.add_vertex(labels, properties)
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
                logical, groups, root_of, partner_uid,
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
    _fill(registry, logical, vertex_of, root_of)
    return graph
