"""Incremental update handling (Section 4.2 of the paper).

*"Our approach can also handle updates (i.e., insert, delete, and
modify) to the property graph if they do not incur any schema
changes."*

:class:`GraphUpdater` applies an instance-level update to the logical
dataset, then re-derives what it touched in the materialized DIR and
OPT graphs **with the loader's own functions** (:mod:`repro.data.loader`:
``_add_link_edges``, ``_UnionFind``, ``_group_labels``,
``_merged_properties``, ``_replicated_lists``).  It holds no rule of
its own about what a :class:`SchemaMapping` does to instances, so an
updated pair of graphs equals ``load_direct(logical)`` /
``load_optimized(logical, mapping)`` of the updated data, vertex by
vertex and list order included (``tests/data/test_update_parity.py``):

* **insert_instance** creates the vertex (plus, for concepts below a
  derived parent/union, the twin chain and its structural links - a
  new child instance *is* a new parent/union instance, so each twin
  holds the given properties its concept declares);
* **insert_link / delete_link** maintain the edge and re-derive the
  lists of both endpoint vertices;
* **set_property** re-derives the merged vertex's value of that name
  (another member of the group may shadow it) and the lists of the
  vertex and its neighbours (a list may read the value through any
  member of the merged group).

Lists are recomputed from the logical links, the single source of
truth; an entry-level delta would be the next optimization.  Updates
that change which vertices exist are refused, not patched: links of a
*structural* relationship belong to ``insert_instance``, and links of
a relationship the mapping *collapsed* merge or split vertices.
Statistics-changing update streams that would *invalidate* rule
choices are out of scope, as in the paper ("minimizing such
transformation overheads is left as future work").
"""

from __future__ import annotations

from repro.data.loader import (
    LoadRegistry,
    _add_link_edges,
    _group_labels,
    _link_vids,
    _merged_properties,
    _replicated_lists,
    _UnionFind,
)
from repro.data.logical import LogicalDataset
from repro.exceptions import DataGenerationError
from repro.graphdb.graph import PropertyGraph
from repro.ontology.model import Relationship, RelationshipType
from repro.schema.mapping import SchemaMapping


class GraphUpdater:
    """Keeps DIR and OPT graphs in sync with logical updates.

    "If they do not incur any schema changes" includes re-grouping:
    inserting or deleting a link of a collapsed relationship would
    merge two OPT vertices or split one, so it raises
    :class:`DataGenerationError` instead of leaving OPT un-merged.
    """

    def __init__(
        self,
        logical: LogicalDataset,
        mapping: SchemaMapping,
        dir_graph: PropertyGraph,
        dir_registry: LoadRegistry,
        opt_graph: PropertyGraph,
        opt_registry: LoadRegistry,
    ):
        self.logical = logical
        self.mapping = mapping
        self.ontology = logical.ontology
        self.dir_graph = dir_graph
        self.dir_registry = dir_registry
        self.opt_graph = opt_graph
        self.opt_registry = opt_registry
        self._uid_counter = logical.num_instances
        self._list_names = {r.list_name for r in mapping.replications}

    def insert_instance(
        self, concept: str, props: dict[str, object]
    ) -> str:
        """Insert an instance; returns its uid.

        Derived concepts (union concepts / inheritance parents) cannot
        be inserted directly - their instances exist only as twins of
        member/child instances, matching the generator's data model.
        """
        if concept in self.ontology.derived_concepts():
            raise DataGenerationError(
                f"{concept!r} is a derived concept; insert a member or "
                f"child instance instead"
            )
        self._uid_counter += 1
        uid = f"{concept}#u{self._uid_counter}"
        self.logical.add_instance(concept, uid, dict(props))
        twin_links: dict[str, list[tuple[str, str]]] = {}
        created = [uid] + self._create_twin_chain(
            concept, uid, props, twin_links
        )

        for member in created:  # DIR: one vertex per instance
            self.dir_registry.vertex_of[member] = self.dir_graph.add_vertex(
                (self.logical.concept_of[member],),
                self.logical.properties[member],
            )
        # OPT: one vertex per group merged along collapsed twin links.
        registry = self.opt_registry
        uf = _UnionFind(registry.root_of)
        for rel_id, pairs in twin_links.items():
            if self.mapping.is_collapsed(rel_id):
                for src_uid, dst_uid in pairs:
                    uf.union(src_uid, dst_uid)
        groups = uf.groups(created)
        registry.groups.update(groups)
        for members in groups.values():
            vid = self.opt_graph.add_vertex(
                _group_labels(self.mapping, frozenset(
                    self.logical.concept_of[member] for member in members
                )),
                _merged_properties(self.logical, members),
            )
            registry.vertex_of.update(dict.fromkeys(members, vid))
        for rel_id, pairs in twin_links.items():
            self._add_edges(self.ontology.relationship(rel_id), pairs)
        return uid

    def insert_link(
        self, rel_id: str, src_uid: str, dst_uid: str
    ) -> None:
        """Insert a functional link and maintain edges + lists."""
        rel = self._patchable(rel_id)
        self.logical.add_link(rel_id, src_uid, dst_uid)
        self._add_edges(rel, [(src_uid, dst_uid)])
        self._refresh_endpoint_lists(src_uid, dst_uid)

    def delete_link(
        self, rel_id: str, src_uid: str, dst_uid: str
    ) -> None:
        """Delete one functional link and maintain edges + lists."""
        rel = self._patchable(rel_id)
        self.logical.remove_link(rel_id, src_uid, dst_uid)
        for graph, registry in (
            (self.dir_graph, self.dir_registry),
            (self.opt_graph, self.opt_registry),
        ):
            src, dst = registry.vertex_of[src_uid], registry.vertex_of[dst_uid]
            for edge in graph.out_edges(src, rel.label):
                if edge.dst == dst:
                    graph.remove_edge(edge.eid)
                    break
            else:
                raise DataGenerationError(
                    f"no {rel.label!r} edge {src} -> {dst} in {graph.name}"
                )
        self._refresh_endpoint_lists(src_uid, dst_uid)

    def set_property(self, uid: str, name: str, value: object) -> None:
        """Modify a property and refresh every list that may read it."""
        self.logical.properties[uid][name] = value
        self.dir_graph.set_property(
            self.dir_registry.vertex_of[uid], name, value
        )
        registry, graph = self.opt_registry, self.opt_graph
        vid = registry.vertex_of[uid]
        members = registry.groups[registry.root_of[uid]]
        graph.set_property(
            vid, name, _merged_properties(self.logical, members)[name]
        )
        edges = graph.out_edges(vid) + graph.in_edges(vid)
        self._refresh_lists(
            {vid} | {e.src for e in edges} | {e.dst for e in edges}
        )

    def _create_twin_chain(
        self, concept: str, uid: str, props: dict, links: dict
    ) -> list[str]:
        """Twins for every derived ancestor, recursively, each holding
        the ``props`` its concept declares (an empty twin would answer
        ``parent.name`` with null on DIR, with the child's value on the
        merged OPT vertex); the structural links go into ``links``."""
        created: list[str] = []
        for rel in self.ontology.in_edges(concept):
            if rel.rel_type not in (
                RelationshipType.INHERITANCE, RelationshipType.UNION
            ):
                continue
            parent = rel.src
            twin_uid = f"{parent}|{uid}"
            if twin_uid not in self.logical.concept_of:
                declared = self.ontology.concept(parent).properties
                self.logical.add_instance(parent, twin_uid, {
                    name: props[name] for name in declared if name in props
                })
                created.append(twin_uid)
                created += self._create_twin_chain(
                    parent, twin_uid, props, links
                )
            self.logical.add_link(rel.rel_id, twin_uid, uid)
            links.setdefault(rel.rel_id, []).append((twin_uid, uid))
        return created

    def _patchable(self, rel_id: str) -> Relationship:
        """The relationship, if its links can change without changing
        which vertices exist."""
        rel = self.ontology.relationship(rel_id)
        if not rel.rel_type.is_functional:
            raise DataGenerationError(
                "structural links are created by insert_instance"
            )
        kind = self.mapping.collapse_kind(rel_id)
        if kind is not None:
            raise DataGenerationError(
                f"{rel_id} is collapsed by the {kind.value} rule: a link "
                f"change would merge or split OPT vertices, a re-grouping "
                f"the updater does not patch - reload instead"
            )
        return rel

    def _add_edges(
        self, rel: Relationship, pairs: list[tuple[str, str]]
    ) -> None:
        """The links' edges, in both graphs, as the loaders add them."""
        _add_link_edges(
            self.dir_graph, rel,
            *_link_vids(pairs, self.dir_registry.vertex_of),
        )
        if not self.mapping.is_collapsed(rel.rel_id):
            _add_link_edges(
                self.opt_graph, rel,
                *_link_vids(pairs, self.opt_registry.vertex_of),
            )

    def _refresh_endpoint_lists(self, *uids: str) -> None:
        self._refresh_lists({self.opt_registry.vertex_of[u] for u in uids})

    def _refresh_lists(self, owners: set[int]) -> None:
        """Make every replicated list of the OPT vertices ``owners``
        what ``load_optimized`` would store."""
        registry, graph = self.opt_registry, self.opt_graph
        wanted: dict[int, dict[str, list[object]]] = {
            vid: {} for vid in owners
        }
        for list_name, lists in _replicated_lists(
            self.logical, self.mapping, graph, registry, {}, owners
        ):
            for vid, values in lists.items():
                wanted[vid][list_name] = values
        for vid, lists in wanted.items():
            held = self._list_names.intersection(graph.vertex(vid).properties)
            for name in held - lists.keys():
                graph.remove_property(vid, name)
            for name, values in lists.items():
                graph.set_property(vid, name, values)
