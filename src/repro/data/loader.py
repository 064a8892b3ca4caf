"""Materialize property graphs from logical data.

* :func:`load_direct` builds the DIR baseline: one vertex per logical
  instance (twins included), one edge per link - the direct mapping of
  the ontology (paper Figure 1(b)).

* :func:`load_optimized` builds the OPT graph for a
  :class:`~repro.schema.mapping.SchemaMapping`:

  1. instances connected by a *collapsed* link (consumed ``isA`` /
     ``unionOf`` / 1:1 relationships) are merged into one vertex: the
     connected components of those links;
  2. each merged vertex carries the labels of every concept in its
     group plus the surviving schema-node label;
  3. links of collapsed relationships disappear; all other links become
     edges between group representatives;
  4. replicated list properties are attached to the owning side, one
     list element per link (matching COLLECT-over-matches semantics);
     empty lists are left absent so existence semantics match DIR.

Both work on the dataset's columns and id arrays
(:mod:`repro.data.logical`):

* DIR adds each concept with one ``add_vertices``, and each
  relationship's edges with one ``add_edges`` whose endpoints are a
  gather of the id -> vid array;
* OPT finds the groups by min-label propagation plus pointer jumping
  (each group's root is its least id, so groups come out in
  first-member order), merges a group's properties in one pass per run
  of groups with the same member concepts (the member with the greatest
  uid wins a shared name), and builds each replicated list from a
  gather of the partner column, a stable argsort by owner and one slice
  per owner.

The per-element loaders these replaced are the oracle in
``tests/data/loader_oracle.py``.

What a mapping does to instances is decided here and nowhere else:
``_add_link_edges`` (an edge's direction), ``_components``,
``_group_vertices`` (labels and merged properties) and
``_replicated_lists`` are applied to the whole dataset by
:func:`load_optimized` and to the instances an update touched by
:class:`~repro.data.updates.GraphUpdater`, so an updated graph equals a
reload (``tests/data/test_update_parity.py``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.data.logical import LogicalDataset, as_numpy
from repro.graphdb.columnar import ABSENT
from repro.graphdb.graph import PropertyGraph
from repro.schema.mapping import SchemaMapping


@dataclass
class LoadRegistry:
    """Optional out-parameter of the loaders: instance -> vertex trace.

    :mod:`repro.data.updates` uses it to apply incremental updates to a
    materialized graph without reloading.
    """

    #: instance id -> vertex id
    vid_of: array = field(default_factory=lambda: array("q"))
    #: instance id -> the least id of its merged group (OPT graphs only)
    root_of: array = field(default_factory=lambda: array("q"))


def _to_array(values: np.ndarray) -> array:
    held = array("q")
    held.frombytes(values.astype(np.int64).tobytes())
    return held


def load_direct(
    logical: LogicalDataset,
    name: str = "direct",
    registry: LoadRegistry | None = None,
) -> PropertyGraph:
    """The DIR property graph: direct mapping of the ontology."""
    graph = PropertyGraph(name)
    vid_of = np.zeros(logical.num_instances, dtype=np.int64)
    for concept, ids in logical.ids.items():
        vids = graph.add_vertices(
            (concept,), len(ids), logical.columns[concept]
        )
        vid_of[as_numpy(ids)] = np.arange(vids.start, vids.stop)
    for rel_id, ends in logical.link_ids.items():
        _add_link_edges(
            graph, logical.ontology.relationship(rel_id),
            *_gather(vid_of, ends),
        )
    if registry is not None:
        registry.vid_of = _to_array(vid_of)
    return graph


def _gather(vid_of: np.ndarray, ends) -> list[np.ndarray]:
    """A relationship's (source vids, target vids), in link order: two
    int64 arrays, which ``add_edges`` appends to the graph's edge
    columns as they are."""
    return [vid_of[as_numpy(ids)] for ids in ends]


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

    # 1. Merge along collapsed links.
    root = _components(0, logical.num_instances, [
        logical.link_ids.get(rel_id, ((), ())) for rel_id in mapping.collapsed
    ])

    # 2. One vertex per group, in first-member order.
    vid_of = _group_vertices(graph, logical, mapping, root)

    # 3. Edges for surviving relationships.
    for rel_id, ends in logical.link_ids.items():
        if not mapping.is_collapsed(rel_id):
            _add_link_edges(
                graph, ontology.relationship(rel_id), *_gather(vid_of, ends)
            )

    # 4. Replicated list properties, one bulk write per entry.
    for list_name, fresh in _replicated_lists(
        logical, mapping, graph, vid_of, root
    ):
        graph.set_properties(list_name, fresh)
    if registry is not None:
        registry.vid_of = _to_array(vid_of)
        registry.root_of = _to_array(root)
    return graph


def _components(first: int, count: int, ends) -> np.ndarray:
    """Each of the ids ``first .. first + count - 1``'s component's
    least id, over the links ``ends`` (pairs of id sequences).

    Min-label propagation between roots, each round followed by
    pointer jumping until every label is a root; a component's least
    id keeps its own label throughout, so it is the one left.
    """
    label = np.arange(count, dtype=np.int64)
    if ends:
        srcs = np.concatenate([as_numpy(s) for s, _d in ends]) - first
        dsts = np.concatenate([as_numpy(d) for _s, d in ends]) - first
        while True:
            a, b = label[srcs], label[dsts]
            pending = a != b
            if not pending.any():
                break
            a, b = a[pending], b[pending]
            low = np.minimum(a, b)
            np.minimum.at(label, a, low)
            np.minimum.at(label, b, low)
            while True:
                up = label[label]
                if np.array_equal(up, label):
                    break
                label = up
    return label + first


def _grouped(
    logical: LogicalDataset, ids: np.ndarray, root: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups of ``ids`` (``root`` aligned), in ascending root
    order: ``(members, bounds, group)`` - the ids by group and, within
    a group, by uid; each group's offsets into ``members``; each id's
    group number."""
    _roots, group = np.unique(root, return_inverse=True)
    sizes = np.bincount(group)
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    shared = sizes[group] > 1
    # Only a shared group's members need their uids ranked.
    uids = logical.uids
    keys = [uids[iid] for iid in ids[shared].tolist()]
    ranked = np.flatnonzero(shared)[
        sorted(range(len(keys)), key=keys.__getitem__)
    ] if keys else np.empty(0, dtype=np.int64)
    positions = np.concatenate([np.flatnonzero(~shared), ranked])
    positions = positions[np.argsort(group[positions], kind="stable")]
    return ids[positions], bounds, group


def _group_vertices(
    graph: PropertyGraph,
    logical: LogicalDataset,
    mapping: SchemaMapping,
    root: np.ndarray,
    first: int = 0,
) -> np.ndarray:
    """Add one vertex per group of the ids ``first ..`` (``root``
    aligned), in first-member order; returns each id's vid."""
    ids = np.arange(first, first + len(root), dtype=np.int64)
    members, bounds, group = _grouped(logical, ids, root)
    vids = [
        graph.add_vertices(labels, count, columns)
        for labels, columns, count in _group_runs(
            logical, mapping, members, bounds
        )
    ]
    return group + (vids[0].start if vids else 0)


def _group_runs(
    logical: LogicalDataset,
    mapping: SchemaMapping,
    members: np.ndarray,
    bounds: np.ndarray,
) -> Iterator[tuple[frozenset[str], dict[str, list], int]]:
    """Yield ``(labels, property columns, group count)`` per run of
    consecutive groups whose members, in uid order, are of the same
    concepts.

    Within a run, a name's value is the one of the last member (in
    uid order) that carries it - the member with the greatest uid
    wins - and names are in order of first appearance over the
    members in uid order, each member's in column order.
    """
    concepts = logical.concepts
    concept_of = as_numpy(logical.concept_index)[members]
    row_of = as_numpy(logical.row_of)
    sizes = np.diff(bounds)
    # Group g continues g - 1's run when both have the same size and,
    # position by position, the same member concepts.
    same = np.zeros(len(sizes), dtype=bool)
    if len(sizes) > 1:
        same[1:] = sizes[1:] == sizes[:-1]
        shift = np.repeat(sizes, sizes)
        at = np.arange(len(members))
        later = at + shift < len(members)
        equal = np.zeros(len(members), dtype=bool)
        equal[later] = concept_of[at[later] + shift[later]] == concept_of[
            at[later]
        ]
        same[1:] &= np.logical_and.reduceat(equal, bounds[:-1])[:-1]
    starts = np.flatnonzero(~same).tolist() + [len(sizes)]
    labels_for: dict[frozenset[str], frozenset[str]] = {}
    for g0, g1 in zip(starts, starts[1:]):
        width = int(sizes[g0])
        block = members[bounds[g0]:bounds[g1]].reshape(g1 - g0, width)
        names = [
            concepts[c]
            for c in concept_of[bounds[g0]:bounds[g0] + width].tolist()
        ]
        # Built as the first such group's members come by id: the set's
        # iteration order is the order its labels are interned in.
        kinds = frozenset(
            concepts[logical.concept_index[iid]]
            for iid in sorted(block[0].tolist())
        )
        labels = labels_for.get(kinds)
        if labels is None:
            labels = labels_for[kinds] = _group_labels(mapping, kinds)
        # name -> positions of the members carrying it, last first
        writers: dict[str, list[int]] = {}
        for position, concept in enumerate(names):
            for name in logical.columns[concept]:
                writers.setdefault(name, []).insert(0, position)
        columns = {}
        for name, positions in writers.items():
            merged = None
            for position in positions:
                column = logical.columns[names[position]][name]
                rows = row_of[block[:, position]]
                if len(rows) == len(column) and np.array_equal(
                    rows, np.arange(len(rows))
                ):
                    values = column  # the whole column, in row order
                else:
                    values = list(map(column.__getitem__, rows.tolist()))
                if merged is None:
                    merged = values
                elif ABSENT in merged:
                    merged = [
                        value if value is not ABSENT else fill
                        for value, fill in zip(merged, values)
                    ]
                if ABSENT not in merged:
                    break
            columns[name] = merged
        yield labels, columns, g1 - g0


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


def _replicated_lists(
    logical: LogicalDataset,
    mapping: SchemaMapping,
    graph: PropertyGraph,
    vid_of: np.ndarray,
    root: np.ndarray,
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
    exhausted.  ``vid_of`` and ``root`` are indexed by instance id.

    Entries over the same links and owners share one layout: the
    owners' links, stably sorted by owner vid, and one slice per owner.
    """
    grouped: dict[tuple, set[str]] = {}
    for repl in mapping.replications:
        key = (
            repl.rel_id, repl.direction, repl.list_name,
            repl.source_concept, repl.source_property,
        )
        grouped.setdefault(key, set()).add(repl.owner_node)
    concept_of = as_numpy(logical.concept_index)
    row_of = as_numpy(logical.row_of)
    position = {c: i for i, c in enumerate(logical.concepts)}
    vertex_count = int(vid_of.max()) + 1 if len(vid_of) else 0
    #: label -> the vids carrying it, as a mask
    labelled: dict[str, np.ndarray] = {}

    def owner_mask(owner_nodes: frozenset[str]) -> np.ndarray:
        """The vids with a label in ``owner_nodes`` (and in
        ``owners``, unless ``None``), as a mask."""
        is_owner = np.zeros(vertex_count, dtype=bool)
        if owners is None:
            for owner in owner_nodes:
                if owner not in labelled:
                    labelled[owner] = np.zeros(vertex_count, dtype=bool)
                    labelled[owner][graph.vertices_with_label(owner)] = True
                is_owner |= labelled[owner]
        else:
            for vid in owners:
                if not owner_nodes.isdisjoint(graph.labels_of(vid)):
                    is_owner[vid] = True
        return is_owner

    layouts: dict[tuple, tuple | None] = {}
    #: (concept, property) -> whether every row holds a value
    clean: dict[tuple[str, str], bool] = {}
    roots = root.tolist()
    #: (concept, property) -> root -> the value its group supplies
    supplied: dict[tuple[str, str], dict[int, object]] = {}
    #: list name -> vid -> the list yielded for it.
    attached: dict[str, dict[int, list[object]]] = {}
    shapes = [
        (rel_id, direction, frozenset(owner_nodes))
        for (rel_id, direction, *_), owner_nodes in grouped.items()
    ]
    #: shape -> the index of the last entry of that shape
    last = {shape: at for at, shape in enumerate(shapes)}
    for at, (key, shape) in enumerate(zip(grouped, shapes)):
        _rel_id, _direction, list_name, concept, prop = key
        if shape not in layouts:
            rel_id, direction, owner_nodes = shape
            layouts[shape] = _list_layout(
                logical.link_ids.get(rel_id, ((), ())), direction,
                vid_of, row_of, owner_mask(owner_nodes),
            )
        # A layout is dropped after its last entry: they are the
        # largest arrays the load holds.
        layout = layouts[shape] if last[shape] > at else layouts.pop(shape)
        if layout is None:
            continue
        owner_vids, partners, rows, cuts = layout
        column = logical.columns.get(concept, {}).get(prop)
        own = concept_of[partners] == position.get(concept, -1)
        if column is not None and (concept, prop) not in clean:
            clean[concept, prop] = (
                None not in column and ABSENT not in column
            )
        if column is not None and own.all() and clean[concept, prop]:
            values = list(map(column.__getitem__, rows))
        else:
            # A partner without its own value reads its merged group's.
            if (concept, prop) not in supplied:
                supplied[concept, prop] = _group_values(
                    logical, root, concept, prop
                )
            from_group = supplied[concept, prop]
            values = [None] * len(rows)
            if column is not None:
                for at in np.flatnonzero(own).tolist():
                    values[at] = column[rows[at]]
            for at, (value, partner) in enumerate(
                zip(values, partners.tolist())
            ):
                if value is None or value is ABSENT:
                    values[at] = from_group.get(roots[partner])
            if None in values:
                kept = np.array([value is not None for value in values])
                owner_vids = owner_vids[kept]
                values = [value for value in values if value is not None]
                cuts = _owner_cuts(owner_vids)
        if not values:
            continue
        heads = owner_vids[cuts[:-1]].tolist()
        stored = attached.setdefault(list_name, {})
        fresh: dict[int, list[object]] = {}
        for vid, lo, hi in zip(heads, cuts, cuts[1:]):
            elements = stored.get(vid)
            if elements is None:
                stored[vid] = fresh[vid] = values[lo:hi]
            else:
                elements.extend(values[lo:hi])
        yield list_name, fresh


def _list_layout(
    links, direction: str, vid_of: np.ndarray, row_of: np.ndarray,
    is_owner: np.ndarray,
):
    """The ``links`` whose owner end (``direction``) is a vertex
    ``is_owner`` marks, stably sorted by owner vid: ``(owner vids,
    partner ids, partner rows, owner cuts)``, or ``None`` when no
    vertex is an owner."""
    if not is_owner.any():
        return None
    srcs, dsts = map(as_numpy, links)
    owner_ids, partners = (srcs, dsts) if direction == "fwd" else (
        dsts, srcs
    )
    owner_vids = vid_of[owner_ids]
    keep = is_owner[owner_vids]
    order = np.argsort(owner_vids[keep], kind="stable")
    owner_vids = owner_vids[keep][order]
    partners = partners[keep][order]
    rows = _to_array(row_of[partners])
    return owner_vids, partners, rows, _owner_cuts(owner_vids)


def _owner_cuts(owner_vids: np.ndarray) -> list[int]:
    """Where each owner's run starts in ``owner_vids`` (sorted), and
    its length."""
    cuts = np.flatnonzero(owner_vids[1:] != owner_vids[:-1]) + 1
    return [0] + cuts.tolist() + [len(owner_vids)]


def _group_values(
    logical: LogicalDataset, root: np.ndarray, concept: str, prop: str
) -> dict[int, object]:
    """root -> the value of ``concept.prop`` its merged group supplies:
    that of its least member of ``concept`` carrying one, else that of
    its least member of any concept carrying one.

    The value may live on a twin/partner merged into the same group
    (e.g. a union member's property read through the union twin).
    """
    found: list[tuple[np.ndarray, list[object]]] = []
    preferred: dict[int, object] = {}
    for name, columns in logical.columns.items():
        column = columns.get(prop)
        if column is None:
            continue
        rows = [
            row for row, value in enumerate(column)
            if value is not None and value is not ABSENT
        ]
        ids = as_numpy(logical.ids[name])[rows]
        values = [column[row] for row in rows]
        found.append((ids, values))
        if name == concept:
            preferred = _first_per_group(root, ids, values)
    if not found:
        return {}
    ids = np.concatenate([ids for ids, _values in found])
    values = [value for _ids, part in found for value in part]
    order = np.argsort(ids, kind="stable")
    supplied = _first_per_group(
        root, ids[order], list(map(values.__getitem__, order.tolist()))
    )
    supplied.update(preferred)
    return supplied


def _first_per_group(
    root: np.ndarray, ids: np.ndarray, values: list[object]
) -> dict[int, object]:
    """root -> the value of its least id among ``ids`` (ascending)."""
    groups, first = np.unique(root[ids], return_index=True)
    return dict(zip(groups.tolist(), map(values.__getitem__, first.tolist())))
