"""Materialize property graphs from logical data.

* :func:`load_direct` builds the DIR baseline: one vertex per logical
  instance (twins included), one edge per link - the direct mapping of
  the ontology (paper Figure 1(b)).

* :func:`load_optimized` builds the OPT graph for a
  :class:`~repro.schema.mapping.SchemaMapping`:

  1. instances connected by a *collapsed* link (consumed ``isA`` /
     ``unionOf`` / 1:1 relationships) are merged into one vertex via
     union-find;
  2. each merged vertex carries the labels of every concept in its
     group plus the surviving schema-node label;
  3. links of collapsed relationships disappear; all other links become
     edges between group representatives;
  4. replicated list properties are attached to the owning side, one
     list element per link (matching COLLECT-over-matches semantics);
     empty lists are left absent so existence semantics match DIR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.logical import LogicalDataset
from repro.graphdb.graph import PropertyGraph
from repro.schema.mapping import SchemaMapping


@dataclass
class LoadRegistry:
    """Optional out-parameter of the loaders: instance -> vertex trace.

    :mod:`repro.data.updates` uses it to apply incremental updates to a
    materialized graph without reloading.
    """

    #: instance uid -> vertex id
    vertex_of: dict[str, int] = field(default_factory=dict)
    #: group root uid -> member uids (OPT graphs only)
    groups: dict[str, list[str]] = field(default_factory=dict)
    #: instance uid -> group root uid (OPT graphs only)
    root_of: dict[str, str] = field(default_factory=dict)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self._parent.setdefault(item, item)
        if parent != item:
            root = self.find(parent)
            self._parent[item] = root
            return root
        return item

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def groups(self, items) -> dict[str, list[str]]:
        grouped: dict[str, list[str]] = {}
        for item in items:
            grouped.setdefault(self.find(item), []).append(item)
        return grouped


def load_direct(
    logical: LogicalDataset,
    name: str = "direct",
    registry: LoadRegistry | None = None,
) -> PropertyGraph:
    """The DIR property graph: direct mapping of the ontology."""
    graph = PropertyGraph(name)
    vertex_of: dict[str, int] = (
        registry.vertex_of if registry is not None else {}
    )
    for concept, uids in logical.instances.items():
        for uid in uids:
            vertex_of[uid] = graph.add_vertex(
                (concept,), logical.properties[uid]
            )
    for rel_id, pairs in logical.links.items():
        _add_link_edges(
            graph, logical.ontology.relationship(rel_id), pairs, vertex_of
        )
    return graph


def _add_link_edges(graph, rel, pairs, vertex_of) -> None:
    """One bulk ingest of a relationship's links, in link order."""
    srcs = [vertex_of[src_uid] for src_uid, _dst_uid in pairs]
    dsts = [vertex_of[dst_uid] for _src_uid, dst_uid in pairs]
    if rel.rel_type.is_structural:
        # Instance-level isA/unionOf edges point child -> parent and
        # member -> union (Section 5.3's query patterns), opposite to
        # the ontology relationship's direction.
        srcs, dsts = dsts, srcs
    graph.add_edges(rel.label, srcs, dsts)


def load_optimized(
    logical: LogicalDataset,
    mapping: SchemaMapping,
    name: str = "optimized",
    registry: LoadRegistry | None = None,
) -> PropertyGraph:
    """The OPT property graph conforming to ``mapping``'s schema."""
    ontology = logical.ontology
    graph = PropertyGraph(name)

    # 1. Merge along collapsed links.
    uf = _UnionFind()
    for rel_id in mapping.collapsed:
        for src_uid, dst_uid in logical.links_of(rel_id):
            uf.union(src_uid, dst_uid)

    # 2. One vertex per group, labelled with group concepts + the
    #    surviving schema node.
    groups = uf.groups(logical.concept_of)
    vertex_of: dict[str, int] = (
        registry.vertex_of if registry is not None else {}
    )
    if registry is not None:
        registry.groups = groups
        registry.root_of = {
            uid: root for root, members in groups.items()
            for uid in members
        }
    concept_of = logical.concept_of
    labels_for: dict[frozenset[str], frozenset[str]] = {}
    for root, members in groups.items():
        concepts = frozenset(concept_of[uid] for uid in members)
        labels = labels_for.get(concepts)
        if labels is None:
            node_keys: set[str] | None = None
            for concept in concepts:
                resolved = set(mapping.resolve_concept(concept))
                node_keys = (
                    resolved if node_keys is None else node_keys & resolved
                )
            labels = labels_for[concepts] = concepts | (node_keys or set())
        properties: dict[str, object] = {}
        for uid in sorted(members):
            properties.update(logical.properties[uid])
        vid = graph.add_vertex(labels, properties)
        for uid in members:
            vertex_of[uid] = vid

    # 3. Edges for surviving relationships.
    for rel_id, pairs in logical.links.items():
        if mapping.is_collapsed(rel_id):
            continue
        _add_link_edges(
            graph, ontology.relationship(rel_id), pairs, vertex_of
        )

    # 4. Replicated list properties.  Entries are grouped by
    #    (relationship, direction, list name, source): several schema
    #    nodes may share one replication (a dissolved concept resolves
    #    to many nodes) and a merged vertex may carry more than one of
    #    those node labels - the links must be applied exactly once.
    #    Conversely, the owner-label check keeps entries apart when
    #    *different* relationships feed the same list name on
    #    different nodes.
    grouped: dict[tuple, dict] = {}
    for repl in mapping.replications:
        key = (
            repl.rel_id, repl.direction, repl.list_name,
            repl.source_concept, repl.source_property,
        )
        entry = grouped.setdefault(key, {"repl": repl, "owners": set()})
        entry["owners"].add(repl.owner_node)
    properties_of = logical.properties
    for entry in grouped.values():
        repl = entry["repl"]
        owner_vids: set[int] = set()
        for owner in entry["owners"]:
            owner_vids.update(graph.vertices_with_label(owner))
        owner_is_src = repl.direction == "fwd"
        concept, prop = repl.source_concept, repl.source_property
        lists: dict[int, list[object]] = {}
        for src_uid, dst_uid in logical.links_of(repl.rel_id):
            owner_uid = src_uid if owner_is_src else dst_uid
            partner_uid = dst_uid if owner_is_src else src_uid
            owner_vid = vertex_of[owner_uid]
            if owner_vid not in owner_vids:
                continue
            # The partner's own value, else one from its merged group.
            value = properties_of[partner_uid].get(prop)
            if value is None or concept_of[partner_uid] != concept:
                value = _group_property(
                    logical, uf, groups, partner_uid, concept, prop
                )
                if value is None:
                    continue
            lists.setdefault(owner_vid, []).append(value)
        for vid, values in lists.items():
            existing = graph.get_property(vid, repl.list_name)
            if isinstance(existing, list):
                existing.extend(values)
            else:
                graph.set_property(vid, repl.list_name, values)
    return graph


def _group_property(
    logical: LogicalDataset,
    uf: _UnionFind,
    groups: dict[str, list[str]],
    uid: str,
    source_concept: str,
    prop: str,
) -> object:
    """Read ``source_concept.prop`` from the merged group of ``uid``.

    The value may live on a twin/partner merged into the same group
    (e.g. a union member's property read through the union twin).
    """
    direct = logical.properties[uid].get(prop)
    if direct is not None and logical.concept_of[uid] == source_concept:
        return direct
    fallback = None
    for other_uid in groups.get(uf.find(uid), ()):
        value = logical.properties[other_uid].get(prop)
        if value is None:
            continue
        if logical.concept_of[other_uid] == source_concept:
            return value
        fallback = value if fallback is None else fallback
    return fallback
