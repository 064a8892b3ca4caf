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

Both build by column - one ``add_vertices`` per concept (or for all
merged groups), one ``add_edges`` per relationship, one
``set_properties`` per replication; the per-element loaders they
replaced are the oracle in ``tests/data/loader_oracle.py``.

What a mapping does to instances is decided here and nowhere else:
``_add_link_edges`` (an edge's direction), ``_group_labels``,
``_merged_properties`` and ``_replicated_lists`` are applied to the
whole dataset by :func:`load_optimized` and to the vertices an update
touched by :class:`~repro.data.updates.GraphUpdater`, so an updated
graph equals a reload (``tests/data/test_update_parity.py``).
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
    #: instance uid -> group root uid (OPT graphs only): the parent
    #: map of the merge union-find, flat
    root_of: dict[str, str] = field(default_factory=dict)


class _UnionFind:
    """Over ``parent``, an instance -> root map (its own if none is
    handed in) that is flat for every item :meth:`groups` was asked
    about - ``LoadRegistry.root_of`` is one."""

    def __init__(self, parent: dict[str, str] | None = None) -> None:
        self._parent: dict[str, str] = {} if parent is None else parent

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
    properties_of = logical.properties
    for concept, uids in logical.instances.items():
        vids = graph.add_vertices(
            [(concept,)] * len(uids), [properties_of[uid] for uid in uids]
        )
        vertex_of.update(zip(uids, vids))
    for rel_id, pairs in logical.links.items():
        _add_link_edges(
            graph, logical.ontology.relationship(rel_id),
            *_link_vids(pairs, vertex_of),
        )
    return graph


def _link_vids(pairs, vertex_of) -> tuple[list[int], list[int]]:
    """A relationship's (source vids, target vids), in link order."""
    return (
        [vertex_of[src_uid] for src_uid, _dst_uid in pairs],
        [vertex_of[dst_uid] for _src_uid, dst_uid in pairs],
    )


def _add_link_edges(graph, rel, srcs, dsts) -> None:
    """One bulk ingest of a relationship's links, in link order."""
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
    registry = registry if registry is not None else LoadRegistry()
    vertex_of = registry.vertex_of

    # 1. Merge along collapsed links.
    uf = _UnionFind(registry.root_of)
    for rel_id in mapping.collapsed:
        for src_uid, dst_uid in logical.links_of(rel_id):
            uf.union(src_uid, dst_uid)

    # 2. One vertex per group: one bulk ingest, in group order.
    groups = registry.groups = uf.groups(logical.concept_of)
    concept_of = logical.concept_of
    labels_for: dict[frozenset[str], frozenset[str]] = {}
    group_labels: list[frozenset[str]] = []
    for members in groups.values():
        concepts = frozenset(concept_of[uid] for uid in members)
        labels = labels_for.get(concepts)
        if labels is None:
            labels = labels_for[concepts] = _group_labels(mapping, concepts)
        group_labels.append(labels)
    vids = graph.add_vertices(
        group_labels,
        [
            _merged_properties(logical, members)
            for members in groups.values()
        ],
    )
    for vid, members in zip(vids, groups.values()):
        for uid in members:
            vertex_of[uid] = vid

    # 3. Edges for surviving relationships.  A relationship's endpoint
    #    vids are computed once and shared with step 4.
    link_vids: dict[str, tuple[list[int], list[int]]] = {}
    for rel_id, pairs in logical.links.items():
        if mapping.is_collapsed(rel_id):
            continue
        link_vids[rel_id] = _link_vids(pairs, vertex_of)
        _add_link_edges(
            graph, ontology.relationship(rel_id), *link_vids[rel_id]
        )

    # 4. Replicated list properties, one bulk write per entry.
    for list_name, fresh in _replicated_lists(
        logical, mapping, graph, registry, link_vids
    ):
        graph.set_properties(list_name, fresh)
    return graph


def _group_labels(
    mapping: SchemaMapping, concepts: frozenset[str]
) -> frozenset[str]:
    """Labels of a vertex merging instances of ``concepts``: the
    concepts themselves plus every schema node all of them resolve to."""
    node_keys: set[str] | None = None
    for concept in concepts:
        resolved = set(mapping.resolve_concept(concept))
        node_keys = resolved if node_keys is None else node_keys & resolved
    return concepts | (node_keys or set())


def _merged_properties(
    logical: LogicalDataset, members: list[str]
) -> dict[str, object]:
    """Scalar properties of a merged vertex: on a shared name the
    member with the greatest uid wins."""
    properties: dict[str, object] = {}
    for uid in sorted(members):
        properties.update(logical.properties[uid])
    return properties


def _replicated_lists(
    logical: LogicalDataset,
    mapping: SchemaMapping,
    graph: PropertyGraph,
    registry: LoadRegistry,
    link_vids: dict[str, tuple[list[int], list[int]]],
    owners: set[int] | None = None,
):
    """Yield ``(list name, {owner vid: values})`` per replication
    entry for the lists of ``owners`` (``None``: every vertex with an
    owner label), one element per link, in link order.

    Entries are grouped by (relationship, direction, list name,
    source): several schema nodes may share one replication (a
    dissolved concept resolves to many nodes) and a merged vertex may
    carry more than one of those node labels - the links must be
    applied exactly once.  Conversely, the owner-label check keeps
    entries apart when *different* relationships feed the same list
    name on different nodes.  A list an earlier entry yielded under
    the same name is extended in place: a dict holds the lists its
    entry started, and a list is final when the generator is
    exhausted.  ``link_vids`` caches endpoint vids per relationship.
    """
    uf, groups = _UnionFind(registry.root_of), registry.groups
    concept_of = logical.concept_of
    properties_of = logical.properties
    grouped: dict[tuple, set[str]] = {}
    for repl in mapping.replications:
        key = (
            repl.rel_id, repl.direction, repl.list_name,
            repl.source_concept, repl.source_property,
        )
        grouped.setdefault(key, set()).add(repl.owner_node)
    #: list name -> vid -> the list yielded for it.
    attached: dict[str, dict[int, list[object]]] = {}
    for key, owner_nodes in grouped.items():
        rel_id, direction, list_name, concept, prop = key
        if owners is None:
            owner_vids: set[int] = set()
            for owner in owner_nodes:
                owner_vids.update(graph.vertices_with_label(owner))
        else:
            owner_vids = {
                vid for vid in owners
                if not owner_nodes.isdisjoint(graph.labels_of(vid))
            }
        if not owner_vids:
            continue
        links = logical.links_of(rel_id)
        if rel_id not in link_vids:
            link_vids[rel_id] = _link_vids(links, registry.vertex_of)
        partner = 1 if direction == "fwd" else 0
        stored = attached.setdefault(list_name, {})
        fresh: dict[int, list[object]] = {}
        from_group: dict[str, object] = {}
        for owner_vid, link in zip(link_vids[rel_id][1 - partner], links):
            if owner_vid not in owner_vids:
                continue
            # The partner's own value, else one from its merged group
            # (one scan per group: NSC merges dozens of instances).
            uid = link[partner]
            value = properties_of[uid].get(prop)
            if value is None or concept_of[uid] != concept:
                root = uf.find(uid)
                if root not in from_group:
                    from_group[root] = _group_property(
                        logical, uf, groups, uid, concept, prop
                    )
                value = from_group[root]
                if value is None:
                    continue
            elements = stored.get(owner_vid)
            if elements is None:
                elements = stored[owner_vid] = fresh[owner_vid] = []
            elements.append(value)
        yield list_name, fresh


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
