"""Test-only reference loaders: one ``add_edge`` per link.

The per-element ``load_direct`` / ``load_optimized`` that the bulk
loaders replaced, kept as the oracle they are compared against:
vertex ids, edge ids, labels, properties, list-property element order
and the :class:`LoadRegistry` contents must not change.  They read the
dataset one instance and one link at a time through its id API, and
merge with a union-find.
"""

from array import array

from repro.graphdb.graph import PropertyGraph


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, item: int) -> int:
        parent = self._parent
        root = parent.setdefault(item, item)
        while parent[root] != root:
            root = parent[root]
        # Path compression, iteratively: a merge chain can be as long
        # as the dataset, far past the recursion limit.
        while item != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def components(self, items) -> dict[int, list[int]]:
        grouped: dict[int, list[int]] = {}
        for item in items:
            grouped.setdefault(self.find(item), []).append(item)
        return grouped


def _fill(registry, logical, vid_of, root_of=None):
    """Record ``vid_of`` / ``root_of`` (id-keyed) as the loaders'
    id-indexed arrays."""
    if registry is None:
        return
    ids = range(logical.num_instances)
    registry.vid_of = array("q", [vid_of[iid] for iid in ids])
    if root_of is not None:
        registry.root_of = array("q", [root_of[iid] for iid in ids])


def _links(logical, rel_id):
    """``rel_id``'s links, one ``(source id, target id)`` at a time."""
    return zip(*logical.link_ids.get(rel_id, ((), ())))


def reference_load_direct(logical, name="direct", registry=None):
    graph = PropertyGraph(name)
    vid_of = {}
    for concept, ids in logical.ids.items():
        for iid in ids:
            vid_of[iid] = graph.add_vertex(
                (concept,), logical.properties_of(iid)
            )
    for rel_id in logical.link_ids:
        rel = logical.ontology.relationship(rel_id)
        for src, dst in _links(logical, rel_id):
            src_vid, dst_vid = vid_of[src], vid_of[dst]
            if rel.rel_type.is_structural:
                src_vid, dst_vid = dst_vid, src_vid
            graph.add_edge(src_vid, dst_vid, rel.label)
    _fill(registry, logical, vid_of)
    return graph


def _group_property(logical, groups, root_of, iid, source_concept, prop):
    """Read ``source_concept.prop`` from the merged group of ``iid``."""
    direct = logical.properties_of(iid).get(prop)
    if direct is not None and logical.concept_name(iid) == source_concept:
        return direct
    fallback = None
    for other in groups[root_of[iid]]:
        value = logical.properties_of(other).get(prop)
        if value is None:
            continue
        if logical.concept_name(other) == source_concept:
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
        for src, dst in _links(logical, rel_id):
            uf.union(src, dst)
    # Each group is named by its first (least) member.
    groups = {
        members[0]: members
        for members in uf.components(range(logical.num_instances)).values()
    }
    root_of = {
        iid: root for root, members in groups.items() for iid in members
    }
    vid_of = {}
    for root, members in groups.items():
        # A label set's iteration order is the order its labels are
        # interned in: built as the loaders build it, member by member.
        concepts = frozenset(logical.concept_name(iid) for iid in members)
        node_keys = None
        for concept in concepts:
            resolved = set(mapping.resolve_concept(concept))
            node_keys = (
                resolved if node_keys is None else node_keys & resolved
            )
        labels = concepts | (node_keys or set())
        properties = {}
        for iid in sorted(members, key=logical.uids.__getitem__):
            properties.update(logical.properties_of(iid))
        vid = graph.add_vertex(labels, properties)
        for iid in members:
            vid_of[iid] = vid
    for rel_id in logical.link_ids:
        if mapping.is_collapsed(rel_id):
            continue
        rel = ontology.relationship(rel_id)
        for src, dst in _links(logical, rel_id):
            src_vid, dst_vid = vid_of[src], vid_of[dst]
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
        for src, dst in _links(logical, repl.rel_id):
            owner, partner = (src, dst) if owner_is_src else (dst, src)
            owner_vid = vid_of[owner]
            if not owners & graph.labels_of(owner_vid):
                continue
            value = _group_property(
                logical, groups, root_of, partner,
                repl.source_concept, repl.source_property,
            )
            if value is None:
                continue
            lists.setdefault(owner_vid, []).append(value)
        for vid, values in lists.items():
            existing = graph.get_property(vid, repl.list_name)
            if isinstance(existing, list):
                values = existing + values
            graph.set_property(vid, repl.list_name, values)
    _fill(registry, logical, vid_of, root_of)
    return graph
