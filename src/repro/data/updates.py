"""Incremental update handling (Section 4.2 of the paper).

*"Our approach can also handle updates (i.e., insert, delete, and
modify) to the property graph if they do not incur any schema
changes."*

:class:`GraphUpdater` applies an instance-level update to the logical
dataset, then re-derives what it touched in the materialized DIR and
OPT graphs **with the loader's own functions** (:mod:`repro.data.loader`:
``_add_link_edges``, ``_components``, ``_group_vertices``,
``_group_runs``, ``_replicated_lists``).  It holds no rule of its own
about what a :class:`SchemaMapping` does to instances, so an updated
pair of graphs equals ``load_direct(logical)`` /
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

The updater works in instance ids, as the loaders do: an update takes
uids, resolves them once, and appends the new instances' vids and
group roots to the :class:`LoadRegistry` arrays.  Lists are recomputed
from the logical link arrays, the single source of truth; an
entry-level delta would be the next optimization.  Updates
that change which vertices exist are refused, not patched: links of a
*structural* relationship belong to ``insert_instance``, and links of
a relationship the mapping *collapsed* merge or split vertices.
Statistics-changing update streams that would *invalidate* rule
choices are out of scope, as in the paper ("minimizing such
transformation overheads is left as future work").
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import (
    LoadRegistry,
    _add_link_edges,
    _components,
    _gather,
    _group_runs,
    _group_vertices,
    _grouped,
    _replicated_lists,
)
from repro.data.logical import LogicalDataset, as_numpy
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
        logical = self.logical
        self._uid_counter += 1
        uid = f"{concept}#u{self._uid_counter}"
        first = logical.add_instance(concept, uid, dict(props))
        twin_links: dict[str, tuple[list[int], list[int]]] = {}
        self._create_twin_chain(concept, first, props, twin_links)
        created = range(first, logical.num_instances)

        for member in created:  # DIR: one vertex per instance
            self.dir_registry.vid_of.append(self.dir_graph.add_vertex(
                (logical.concept_name(member),),
                logical.properties_of(member),
            ))
        # OPT: one vertex per group merged along collapsed twin links.
        root = _components(first, len(created), [
            ends for rel_id, ends in twin_links.items()
            if self.mapping.is_collapsed(rel_id)
        ])
        vids = _group_vertices(
            self.opt_graph, logical, self.mapping, root, first
        )
        self.opt_registry.vid_of.extend(vids.tolist())
        self.opt_registry.root_of.extend(root.tolist())
        for rel_id, ends in twin_links.items():
            self._add_edges(self.ontology.relationship(rel_id), ends)
        return uid

    def insert_link(
        self, rel_id: str, src_uid: str, dst_uid: str
    ) -> None:
        """Insert a functional link and maintain edges + lists."""
        rel = self._patchable(rel_id)
        ends = [self.logical.id_of(src_uid)], [self.logical.id_of(dst_uid)]
        self.logical.add_link_ids(rel_id, *ends)
        self._add_edges(rel, ends)
        self._refresh_endpoint_lists(ends[0][0], ends[1][0])

    def delete_link(
        self, rel_id: str, src_uid: str, dst_uid: str
    ) -> None:
        """Delete one functional link and maintain edges + lists."""
        rel = self._patchable(rel_id)
        self.logical.remove_link(rel_id, src_uid, dst_uid)
        src_id = self.logical.id_of(src_uid)
        dst_id = self.logical.id_of(dst_uid)
        for graph, registry in (
            (self.dir_graph, self.dir_registry),
            (self.opt_graph, self.opt_registry),
        ):
            src, dst = registry.vid_of[src_id], registry.vid_of[dst_id]
            eid = graph.first_edge_between(src, dst, rel.label)
            if eid is None:
                raise DataGenerationError(
                    f"no {rel.label!r} edge {src} -> {dst} in {graph.name}"
                )
            graph.remove_edge(eid)
        self._refresh_endpoint_lists(src_id, dst_id)

    def set_property(self, uid: str, name: str, value: object) -> None:
        """Modify a property and refresh every list that may read it."""
        logical = self.logical
        logical.set_property(uid, name, value)
        iid = logical.id_of(uid)
        self.dir_graph.set_property(
            self.dir_registry.vid_of[iid], name, value
        )
        registry, graph = self.opt_registry, self.opt_graph
        vid = registry.vid_of[iid]
        root = as_numpy(registry.root_of)
        group = root == root[iid]
        members, bounds, _group = _grouped(
            logical, np.flatnonzero(group), root[group]
        )
        ((_labels, columns, _count),) = _group_runs(
            logical, self.mapping, members, bounds
        )
        graph.set_property(vid, name, columns[name][0])
        edges = graph.out_edges(vid) + graph.in_edges(vid)
        self._refresh_lists(
            {vid} | {e.src for e in edges} | {e.dst for e in edges}
        )

    def _create_twin_chain(
        self, concept: str, iid: int, props: dict, links: dict
    ) -> None:
        """Twins for every derived ancestor of instance ``iid``,
        recursively, each holding the ``props`` its concept declares
        (an empty twin would answer ``parent.name`` with null on DIR,
        with the child's value on the merged OPT vertex); the
        structural links go into ``links``."""
        logical = self.logical
        for rel in self.ontology.in_edges(concept):
            if rel.rel_type not in (
                RelationshipType.INHERITANCE, RelationshipType.UNION
            ):
                continue
            parent = rel.src
            twin_uid = f"{parent}|{logical.uids[iid]}"
            if logical.has_instance(twin_uid):
                twin = logical.id_of(twin_uid)
            else:
                declared = self.ontology.concept(parent).properties
                twin = logical.add_instance(parent, twin_uid, {
                    name: props[name] for name in declared if name in props
                })
                self._create_twin_chain(parent, twin, props, links)
            logical.add_link_ids(rel.rel_id, [twin], [iid])
            srcs, dsts = links.setdefault(rel.rel_id, ([], []))
            srcs.append(twin)
            dsts.append(iid)

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

    def _add_edges(self, rel: Relationship, ends) -> None:
        """The links ``ends`` (source ids, target ids)' edges, in both
        graphs, as the loaders add them."""
        _add_link_edges(
            self.dir_graph, rel,
            *_gather(as_numpy(self.dir_registry.vid_of), ends),
        )
        if not self.mapping.is_collapsed(rel.rel_id):
            _add_link_edges(
                self.opt_graph, rel,
                *_gather(as_numpy(self.opt_registry.vid_of), ends),
            )

    def _refresh_endpoint_lists(self, *ids: int) -> None:
        self._refresh_lists({self.opt_registry.vid_of[i] for i in ids})

    def _refresh_lists(self, owners: set[int]) -> None:
        """Make every replicated list of the OPT vertices ``owners``
        what ``load_optimized`` would store."""
        registry, graph = self.opt_registry, self.opt_graph
        wanted: dict[int, dict[str, list[object]]] = {
            vid: {} for vid in owners
        }
        for list_name, lists in _replicated_lists(
            self.logical, self.mapping, graph,
            as_numpy(registry.vid_of), as_numpy(registry.root_of), owners,
        ):
            for vid, values in lists.items():
                wanted[vid][list_name] = values
        for vid, lists in wanted.items():
            held = self._list_names.intersection(graph.vertex(vid).properties)
            for name in held - lists.keys():
                graph.remove_property(vid, name)
            for name, values in lists.items():
                graph.set_property(vid, name, values)
