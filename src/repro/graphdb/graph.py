"""In-memory property graph storage (Definition 2 of the paper).

A directed multigraph whose vertices carry a *set of labels* (vertices
produced by collapsing rules keep the labels of every merged concept -
the same behaviour Neo4j multi-labels give) and whose vertices and
edges carry property maps.

Since the columnar-core refactor the primary representation is
column-oriented (the layout analytical graph engines use):

* every label / edge-type / property-key string is interned once into
  the graph's :class:`~repro.graphdb.columnar.SymbolTable`;
* vertices live in one :class:`~repro.graphdb.columnar.VertexTable`
  per distinct label *set*, with typed per-(label-set, key) property
  columns (``array``-backed for int/float, list-backed otherwise) and
  a dense table-local row id per vertex (``_v_tid`` / ``_v_row`` map a
  vid to its table and row);
* edges live in parallel columns indexed directly by eid
  (``_e_src`` / ``_e_dst`` / ``_e_label``); the rare edges with
  properties keep a sparse side dict;
* :meth:`PropertyGraph.freeze` materializes an immutable per-edge-type
  CSR read view (see :mod:`repro.graphdb.view`), invalidated by the
  graph's mutation epoch - the counter every mutation advances
  alongside the WAL listener callbacks.

The classic object API survives as façades: :class:`Vertex` and
:class:`Edge` are id-holding views whose ``labels`` / ``properties``
attributes read through to the columns, so existing callers (loaders,
optimizers, tests) are untouched while scans, statistics builds and
the snapshot codec iterate flat columns.

Every secondary structure (label index, adjacency lists, property
indexes, the endpoint-pair index) still uses insertion-ordered dict
buckets keyed by id, so membership tests, insertion and removal are
all O(1) while iteration order stays deterministic.  The
endpoint-pair index additionally gives ``has_edge_between`` an O(1)
answer to "is there a :T edge from u to v?", which the executor's
join-check step uses instead of scanning a full adjacency list.

The adjacency lists and the endpoint-pair index are *derived* state:
bulk ingest (``add_vertices`` / ``add_edges`` / ``set_properties``) and
the snapshot loader leave them unbuilt; the first reader or per-element
mutation builds each whole from the edge columns.  So are the planner's
statistics: :meth:`PropertyGraph.statistics` builds them from the
columns and rebuilds them when enough mutations have made them stale;
no mutation updates them.

Ids only ever grow, so adding an element appends it to every bucket;
a rolled-back removal puts it back where it was: in its table row, and
before the first greater id of every bucket it was taken out of.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from repro.exceptions import GraphError, TransactionError
from repro.graphdb.columnar import (
    KIND_FLOAT,
    KIND_INT,
    PropertyColumn,
    SymbolTable,
    VertexTable,
)
from repro.graphdb.statistics import GraphStatistics, hashable
from repro.graphdb.view import GraphView

#: Insertion-ordered bucket keyed by id.  Adjacency buckets map
#: eid -> neighbor vid (so expansion never dereferences edge records);
#: the label/property/pair indexes ignore the values.
_Bucket = dict
_Adjacency = dict[int, dict[str, _Bucket]]

_MISSING = object()


def _place(bucket: dict, key: int, value: object) -> None:
    """``bucket[key] = value``, before the first greater id: where a
    removal rolled back took ``key`` from, in O(len(bucket))."""
    if bucket and key < next(reversed(bucket)):
        _insert(bucket, next(i for i, k in enumerate(bucket) if k > key),
                key, value)
    else:
        bucket[key] = value


def _place_edge(
    by_label: dict[str, _Bucket], label: str, eid: int, value: object
) -> None:
    """:func:`_place` ``eid`` in its label's bucket, then put the
    labels back in first-eid order (the order
    :meth:`PropertyGraph._build_adjacency` gives), which a new label or
    a new first eid can have broken."""
    _place(by_label.setdefault(label, {}), eid, value)
    items = sorted(by_label.items(), key=_first_eid)
    by_label.clear()
    by_label.update(items)


def _first_eid(item: tuple[str, _Bucket]) -> int:
    return next(iter(item[1]))


def _insert(mapping: dict, at: int, key: object, value: object) -> None:
    """Insert ``key: value`` at position ``at`` of ``mapping``."""
    items = list(mapping.items())
    items.insert(at, (key, value))
    mapping.clear()
    mapping.update(items)


class VertexProperties(MutableMapping):
    """Dict-like façade over one vertex's property columns.

    Reads go straight to the columns.  Writes mirror the old
    plain-dict semantics: they update the stored value *without*
    touching property indexes or WAL listeners - code that needs
    those side effects calls
    :meth:`PropertyGraph.set_property` (exactly as before, when
    mutating ``vertex.properties`` bypassed the same machinery).
    """

    __slots__ = ("_graph", "_vid")

    def __init__(self, graph: "PropertyGraph", vid: int):
        self._graph = graph
        self._vid = vid

    def _locate(self) -> tuple[VertexTable, int]:
        return self._graph._locate(self._vid)

    def __getitem__(self, name: str) -> object:
        table, row = self._locate()
        sid = self._graph._symbols.sid(name)
        value = table.get_prop(row, sid, _MISSING)
        if value is _MISSING:
            raise KeyError(name)
        return value

    def get(self, name: str, default: object = None) -> object:
        table, row = self._locate()
        return table.get_prop(row, self._graph._symbols.sid(name), default)

    def __setitem__(self, name: str, value: object) -> None:
        table, row = self._locate()
        table.set_prop(row, self._graph._symbols.intern(name), value)
        self._graph._touch()

    def __delitem__(self, name: str) -> None:
        table, row = self._locate()
        sid = self._graph._symbols.sid(name)
        if sid is None or not table.has_prop(row, sid):
            raise KeyError(name)
        table.unset_prop(row, sid)
        self._graph._touch()

    def __contains__(self, name: str) -> bool:
        table, row = self._locate()
        return table.has_prop(row, self._graph._symbols.sid(name))

    def __iter__(self) -> Iterator[str]:
        table, row = self._locate()
        name = self._graph._symbols.name
        return iter([name(sid) for sid in table.row_keys(row)])

    def __len__(self) -> int:
        table, row = self._locate()
        return len(table.row_keys(row))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self))


class Vertex:
    """Lightweight façade over one row of a vertex table."""

    __slots__ = ("_graph", "vid")

    def __init__(self, graph: "PropertyGraph", vid: int):
        self._graph = graph
        self.vid = vid

    @property
    def labels(self) -> frozenset[str]:
        return self._graph.labels_of(self.vid)

    @property
    def properties(self) -> VertexProperties:
        return VertexProperties(self._graph, self.vid)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vertex)
            and other.vid == self.vid
            and other._graph is self._graph
        )

    def __hash__(self) -> int:
        return hash((id(self._graph), self.vid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vertex(vid={self.vid}, labels={set(self.labels)!r}, "
            f"properties={dict(self.properties)!r})"
        )


class EdgeProperties(MutableMapping):
    """Dict-like façade over one edge's sparse property dict.

    Reads never allocate: property-less edges stay absent from the
    graph's sparse side table.  The backing dict is created (and
    registered) only on the first write.
    """

    __slots__ = ("_graph", "_eid")

    def __init__(self, graph: "PropertyGraph", eid: int):
        self._graph = graph
        self._eid = eid

    def _props(self) -> dict:
        return self._graph._e_props.get(self._eid) or {}

    def __getitem__(self, name: str) -> object:
        return self._props()[name]

    def get(self, name: str, default: object = None) -> object:
        return self._props().get(name, default)

    def __setitem__(self, name: str, value: object) -> None:
        graph = self._graph
        eid = self._eid
        labels = graph._e_label
        if not (0 <= eid < len(labels)) or labels[eid] < 0:
            raise GraphError(f"unknown edge {eid}")
        props = graph._e_props.get(eid)
        if props is None:
            props = graph._e_props[eid] = {}
        props[name] = value

    def __delitem__(self, name: str) -> None:
        del self._props()[name]

    def __contains__(self, name: str) -> bool:
        return name in self._props()

    def __iter__(self):
        return iter(self._props())

    def __len__(self) -> int:
        return len(self._props())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self._props()))


class Edge:
    """Lightweight façade over one row of the edge columns."""

    __slots__ = ("_graph", "eid")

    def __init__(self, graph: "PropertyGraph", eid: int):
        self._graph = graph
        self.eid = eid

    @property
    def src(self) -> int:
        return self._graph._e_src[self.eid]

    @property
    def dst(self) -> int:
        return self._graph._e_dst[self.eid]

    @property
    def label(self) -> str:
        sid = self._graph._e_label[self.eid]
        if sid < 0:  # stale facade of a removed edge
            raise GraphError(f"unknown edge {self.eid}")
        return self._graph._symbols.name(sid)

    @property
    def properties(self) -> EdgeProperties:
        """Dict-like view of the edge's (sparse) properties."""
        return EdgeProperties(self._graph, self.eid)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Edge)
            and other.eid == self.eid
            and other._graph is self._graph
        )

    def __hash__(self) -> int:
        return hash((id(self._graph), self.eid))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Edge(eid={self.eid}, src={self.src}, dst={self.dst}, "
            f"label={self.label!r})"
        )


class _VerticesView:
    """Mapping-flavored view of the live vertex ids (test/debug aid)."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "PropertyGraph"):
        self._graph = graph

    def __contains__(self, vid: object) -> bool:
        tids = self._graph._v_tid
        return (
            isinstance(vid, int) and 0 <= vid < len(tids) and tids[vid] >= 0
        )

    def __len__(self) -> int:
        return sum(table.live for table in self._graph._tables)

    def __iter__(self) -> Iterator[int]:
        for vid, tid in enumerate(self._graph._v_tid):
            if tid >= 0:
                yield vid

    def __getitem__(self, vid: int) -> Vertex:
        if vid not in self:
            raise KeyError(vid)
        return Vertex(self._graph, vid)

    def values(self) -> Iterator[Vertex]:
        graph = self._graph
        return (Vertex(graph, vid) for vid in self)


class _EdgesView:
    """Mapping-flavored view of the live edge ids (test/debug aid)."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "PropertyGraph"):
        self._graph = graph

    def __contains__(self, eid: object) -> bool:
        labels = self._graph._e_label
        return (
            isinstance(eid, int)
            and 0 <= eid < len(labels)
            and labels[eid] >= 0
        )

    def __len__(self) -> int:
        return self._graph._num_edges

    def __iter__(self) -> Iterator[int]:
        for eid, sid in enumerate(self._graph._e_label):
            if sid >= 0:
                yield eid

    def __getitem__(self, eid: int) -> Edge:
        if eid not in self:
            raise KeyError(eid)
        return Edge(self._graph, eid)

    def values(self) -> Iterator[Edge]:
        graph = self._graph
        return (Edge(graph, eid) for eid in self)


class PropertyGraph:
    """Columnar vertex/edge stores with label, adjacency, pair indexes."""

    def __init__(self, name: str = "graph"):
        self.name = name
        #: String interning shared by labels, edge types, and keys.
        self._symbols = SymbolTable()
        #: One table per distinct label set; index == label-set id.
        self._tables: list[VertexTable] = []
        self._labelset_ids: dict[frozenset[int], int] = {}
        #: label-set id -> frozenset of label strings (façade reads).
        self._labelset_strs: list[frozenset[str]] = []
        #: vid -> owning table id (-1 = removed) / table-local row.
        self._v_tid: list[int] = []
        self._v_row: list[int] = []
        #: Edge columns indexed directly by eid (-1 label = removed).
        self._e_src: list[int] = []
        self._e_dst: list[int] = []
        self._e_label: list[int] = []
        #: Sparse eid -> property dict (most edges carry none).
        self._e_props: dict[int, dict] = {}
        self._num_edges = 0
        #: label sid -> insertion-ordered vid bucket.
        self._label_index: dict[int, _Bucket] = {}
        #: (out, in) adjacency, each vid -> label -> eid -> neighbor
        #: vid.  Derived state: ``None`` until a reader or a
        #: per-element mutation needs it, then built whole from the
        #: edge columns, maintained by every mutation from there on
        #: and never dropped.  ``_out`` / ``_in`` read it, building
        #: first; frozen reads expand over the CSR view instead.
        self._adjacency: tuple[_Adjacency, _Adjacency] | None = None
        #: (src, dst) -> label -> ordered set of eids.  ``None`` means
        #: "not materialized yet": bulk ingest and the snapshot loader
        #: defer building this index until the first endpoint probe,
        #: because batch construction from the edge columns is cheaper
        #: than the per-edge incremental path and many workloads never
        #: probe at all.  While deferred, mutations leave it deferred
        #: (they are visible to the eventual batch build); they must
        #: never create a partially-populated index.
        self._pairs: dict[tuple[int, int], dict[str, _Bucket]] | None = {}
        self._property_indexes: dict[tuple[str, str], dict] = {}
        self._next_vid = 0
        self._next_eid = 0
        #: Mutation listeners (the durable store's WAL hook).  Each is
        #: called as ``listener(op, args)`` *after* the mutation has
        #: been applied; ``op`` is the method name, ``args`` its
        #: essential arguments including assigned ids.
        self._listeners: list = []
        #: In-memory undo log of the active transaction (``None`` when
        #: no transaction is open).  Every mutation appends the inverse
        #: operation; :meth:`rollback_transaction` replays it in
        #: reverse.  See the Transactions section below.
        self._undo: list[tuple] | None = None
        #: While True, listener callbacks are suppressed (rollback
        #: replays inverses that recovery must never see - the WAL
        #: frame is discarded wholesale instead).
        self._muted = False
        #: Planner statistics as last built by :meth:`statistics`, and
        #: the element mutations applied since (every mutation counts
        #: them in :meth:`_touch`).  An index change drops them.
        self._stats: GraphStatistics | None = None
        self._stats_age = 0
        #: Mutation epoch + cached frozen CSR view.  Every mutation
        #: advances the epoch and drops the view; :meth:`freeze`
        #: rebuilds it on demand.
        self._epoch = 0
        self._view: GraphView | None = None
        #: labels-argument -> VertexTable memo for add_vertex: loaders
        #: pass the same str/tuple/frozenset label arguments millions
        #: of times, so the intern + frozenset work runs once per
        #: distinct argument.  Symbol ids and tables are append-only,
        #: so entries never go stale.
        self._table_cache: dict = {}
        self._vertices = _VerticesView(self)
        self._edges = _EdgesView(self)

    # ------------------------------------------------------------------
    # Mutation listeners (write-ahead logging hook)
    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Subscribe ``listener(op, args)`` to every mutation."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _emit(self, op: str, *args) -> None:
        if self._muted:
            return
        for listener in self._listeners:
            listener(op, args)

    # ------------------------------------------------------------------
    # Transactions (in-memory undo log + WAL framing events)
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._undo is not None

    def begin_transaction(self) -> None:
        """Open a transaction: mutations become revocable until commit.

        Emits a ``tx_begin`` listener event, which the durable store
        writes as a WAL BEGIN framing record - recovery discards any
        frame that never reached its COMMIT, so a crash mid-transaction
        recovers to the pre-transaction state.  Transactions do not
        nest.
        """
        if self._undo is not None:
            raise TransactionError("a transaction is already active")
        # First entry (applied last on rollback): restore the id
        # counters, so ids allocated by rolled-back mutations are
        # reused - keeping the live graph identical to what replaying
        # the WAL (which drops the frame wholesale) reconstructs.
        self._undo = [("counters", self._next_vid, self._next_eid)]
        self._emit("tx_begin")

    def commit_transaction(self) -> None:
        """Make the open transaction's mutations permanent."""
        if self._undo is None:
            raise TransactionError("no active transaction")
        self._undo = None
        self._emit("tx_commit")

    def rollback_transaction(self) -> None:
        """Revert every mutation of the open transaction.

        The undo log replays in reverse through the ordinary mutation
        machinery (indexes stay consistent) with listeners muted - the
        WAL instead gets one ``tx_rollback`` framing record closing the
        frame, so recovery skips the rolled-back mutations wholesale.
        """
        if self._undo is None:
            raise TransactionError("no active transaction")
        undo = self._undo
        self._undo = None
        self._muted = True
        try:
            for entry in reversed(undo):
                self._apply_undo(entry)
        finally:
            self._muted = False
        self._emit("tx_rollback")

    def _apply_undo(self, entry: tuple) -> None:
        op = entry[0]
        if op == "unadd_vertex":
            self.remove_vertex(entry[1])
        elif op == "unadd_edge":
            self.remove_edge(entry[1])
        elif op == "unset_property":
            self.remove_property(entry[1], entry[2])
        elif op == "reset_property":
            _op, vid, name, old = entry
            self.set_property(vid, name, old)
        elif op == "restore_edge":
            _op, eid, src, dst, label, props = entry
            self._restore_edge(eid, src, dst, label, props)
        elif op == "restore_vertex":
            _op, vid, tid, row, props = entry
            self._restore_vertex(vid, tid, row, props)
        elif op == "counters":
            # Applied last (it is the frame's first entry): every id
            # at or past the saved counters belonged to a rolled-back
            # add and is tombstoned by now - drop the tombstone tails
            # so the ids are reallocated, exactly as a WAL recovery
            # (which never sees the frame) would allocate them.
            _op, next_vid, next_eid = entry
            del self._v_tid[next_vid:]
            del self._v_row[next_vid:]
            del self._e_src[next_eid:]
            del self._e_dst[next_eid:]
            del self._e_label[next_eid:]
            self._next_vid = next_vid
            self._next_eid = next_eid
        else:  # drop_index
            _op, label, prop = entry
            self._drop_property_index(label, prop)

    def _restore_vertex(
        self, vid: int, tid: int, row: int, props: dict
    ) -> None:
        """Re-materialize a removed vertex under its original vid, in
        the table row it was removed from.

        Mirrors :meth:`add_vertex` (indexes, epoch) but reuses ``vid``
        and ``row`` instead of allocating: the id maps still have the
        slot and the table the row (both tombstoned).
        """
        table = self._tables[tid]
        table.vids[row] = vid
        table.live += 1
        self._v_tid[vid] = tid
        self._v_row[vid] = row
        intern = self._symbols.intern
        for name, value in props.items():
            table.set_prop(row, intern(name), value)
        self._attach_vertex(table, vid, props)

    def _restore_edge(
        self, eid: int, src: int, dst: int, label: str, props: dict
    ) -> None:
        """Re-materialize a removed edge under its original eid."""
        self._e_src[eid] = src
        self._e_dst[eid] = dst
        self._e_label[eid] = self._symbols.intern(label)
        if props:
            self._e_props[eid] = dict(props)
        self._attach_edge(eid, src, dst, label)

    def _drop_property_index(self, label: str, prop: str) -> None:
        """Undo of :meth:`create_property_index` (rollback only)."""
        self._property_indexes.pop((label, prop), None)
        # Cached plans may embed the dropped index as their access path.
        self._stats = None
        self._touch()

    # ------------------------------------------------------------------
    # Epoch / frozen view
    # ------------------------------------------------------------------
    @property
    def mutation_epoch(self) -> int:
        return self._epoch

    def _touch(self, elements: int = 1) -> None:
        """Advance the mutation epoch (invalidating any frozen view) and
        age the statistics by the ``elements`` mutated."""
        self._epoch += 1
        self._view = None
        self._stats_age += elements

    def freeze(self) -> GraphView:
        """The CSR read view of the current epoch (built on demand).

        O(V + E) when (re)built, O(1) while the graph stays unmutated.
        Hot read paths (the session's expand, PageRank, benchmarks)
        use a valid view automatically; they never build one
        implicitly.
        """
        view = self._view
        if view is None or view.epoch != self._epoch:
            view = self._view = GraphView(self)
        return view

    @property
    def frozen_view(self) -> GraphView | None:
        """The cached CSR view if still valid, else ``None``."""
        return self._view

    # ------------------------------------------------------------------
    # Internal columnar plumbing
    # ------------------------------------------------------------------
    def _locate(self, vid: int) -> tuple[VertexTable, int]:
        try:
            # vid < 0 must not fall into Python negative indexing.
            tid = self._v_tid[vid] if vid >= 0 else -1
        except (IndexError, TypeError):
            raise GraphError(f"unknown vertex {vid}") from None
        if tid < 0:
            raise GraphError(f"unknown vertex {vid}")
        return self._tables[tid], self._v_row[vid]

    def _table_for(self, label_sids: frozenset[int]) -> VertexTable:
        tid = self._labelset_ids.get(label_sids)
        if tid is None:
            tid = len(self._tables)
            self._labelset_ids[label_sids] = tid
            name = self._symbols.name
            labels = frozenset(name(sid) for sid in label_sids)
            self._tables.append(VertexTable(tid, label_sids, labels))
            self._labelset_strs.append(labels)
        return self._tables[tid]

    def _table_of(self, labels: Iterable[str] | str) -> VertexTable:
        """The table for a ``labels`` argument (see ``_table_cache``)."""
        cacheable = isinstance(labels, (str, tuple, frozenset))
        table = self._table_cache.get(labels) if cacheable else None
        if table is None:
            names = (labels,) if isinstance(labels, str) else labels
            intern = self._symbols.intern
            label_sids = frozenset(intern(label) for label in names)
            if not label_sids:
                raise GraphError("a vertex needs at least one label")
            table = self._table_for(label_sids)
            if cacheable:
                self._table_cache[labels] = table
        return table

    def _row_properties(self, table: VertexTable, row: int) -> dict:
        name = self._symbols.name
        return {
            name(sid): column.data[row]
            for sid, column in table.columns.items()
            if column.present(row)
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        labels: Iterable[str] | str,
        properties: dict[str, object] | None = None,
    ) -> int:
        table = self._table_of(labels)
        props = dict(properties or {})
        vid = self._next_vid
        self._next_vid += 1
        row = table.new_row(vid)
        self._v_tid.append(table.labelset_id)
        self._v_row.append(row)
        if props:
            intern = self._symbols.intern
            for name, value in props.items():
                table.set_prop(row, intern(name), value)
        self._attach_vertex(table, vid, props)
        if self._undo is not None:
            self._undo.append(("unadd_vertex", vid))
        if self._listeners:
            self._emit("add_vertex", vid, table.labels, props)
        return vid

    def _attach_vertex(
        self, table: VertexTable, vid: int, props: dict
    ) -> None:
        """Secondary-structure bookkeeping for a materialized vertex.

        Shared by :meth:`add_vertex` and the rollback path's
        :meth:`_restore_vertex`, so the label index, property indexes
        and epoch bump can never diverge between the two.  An add
        brings the greatest vid and appends; only a rollback brings
        back an older one, which goes back where it was.
        """
        put = dict.__setitem__ if vid == self._next_vid - 1 else _place
        label_index = self._label_index
        for sid in table.label_sids:
            put(label_index.setdefault(sid, {}), vid, None)
        # (A build just now has the new element already: no-op writes.)
        out, into = self._adjacency or self._build_adjacency()
        out[vid] = {}
        into[vid] = {}
        label_set = table.labels
        if self._property_indexes:
            for (label, prop), index in self._property_indexes.items():
                if label in label_set:
                    value = props.get(prop)
                    if value is not None:
                        put(index.setdefault(hashable(value), {}), vid, None)
        # _touch, inlined: this is the per-element hot path.
        self._epoch += 1
        self._view = None
        self._stats_age += 1

    def add_vertices(
        self,
        labels: Iterable[Iterable[str] | str],
        properties: Iterable[dict[str, object] | None],
    ) -> range:
        """Bulk :meth:`add_vertex`: vertex ``i`` gets ``labels[i]``
        and ``properties[i]``; returns the (consecutive) vids.

        Lengths and label sets are validated before anything is
        applied.  An observed graph (see :meth:`add_edges`; a property
        index observes vertices too) goes through :meth:`add_vertex`
        per element.  Otherwise the batch goes in by column: vertices
        are bucketed by label-set table, each table's dicts transposed
        into one value list per key and appended to that column in one
        step, and the epoch is bumped once.  Symbols are interned in
        the per-element order: a vertex's labels, then its keys.
        """
        labels = [
            arg if isinstance(arg, (str, tuple, frozenset)) else tuple(arg)
            for arg in labels
        ]
        properties = [props or {} for props in properties]
        count = len(labels)
        if len(properties) != count:
            raise GraphError(
                f"add_vertices: {count} label sets for "
                f"{len(properties)} property dicts"
            )
        vids = range(self._next_vid, self._next_vid + count)
        if any(not arg and not isinstance(arg, str) for arg in set(labels)):
            raise GraphError("a vertex needs at least one label")
        if self._observed() or self._property_indexes:
            for arg, props in zip(labels, properties):
                self.add_vertex(arg, props)
            return vids
        if not count:
            return vids
        # Gather: label argument -> its table's batch of
        # (table, vids, property dicts, property name -> symbol id).
        intern = self._symbols.intern
        by_arg: dict = {}
        batches: dict[int, tuple[VertexTable, list, list, dict]] = {}
        v_tid: list[int] = []
        v_row: list[int] = []
        for vid, arg, props in zip(vids, labels, properties):
            batch = by_arg.get(arg)
            if batch is None:
                table = self._table_of(arg)
                batch = by_arg[arg] = batches.setdefault(
                    table.labelset_id, (table, [], [], {})
                )
            table, members, rows, keys = batch
            if not props.keys() <= keys.keys():
                for name in props:
                    keys[name] = intern(name)
            v_tid.append(table.labelset_id)
            v_row.append(len(table.vids) + len(members))
            members.append(vid)
            rows.append(props)
        # Apply, table by table and column by column.
        for table, members, rows, keys in batches.values():
            row = len(table.vids)
            table.vids.extend(members)
            table.live += len(members)
            for name, sid in keys.items():
                try:
                    values = list(map(itemgetter(name), rows))
                    mask = None
                except KeyError:  # some vertex lacks the key
                    values = [props.get(name, _MISSING) for props in rows]
                    mask = bytearray(v is not _MISSING for v in values)
                table.append_column(sid, row, values, mask)
        self._index_labels(
            (table, members) for table, members, _, _ in batches.values()
        )
        self._v_tid.extend(v_tid)
        self._v_row.extend(v_row)
        if self._adjacency is not None:
            for adjacency in self._adjacency:
                adjacency.update((vid, {}) for vid in vids)
        self._next_vid = vids.stop
        self._touch(count)
        return vids

    def _index_labels(
        self, batches: Iterable[tuple[VertexTable, list[int]]]
    ) -> None:
        """Append each table's new ``members`` (ascending vids) to its
        labels' buckets; tables sharing a label interleave by vid."""
        by_label: dict[int, list[list[int]]] = {}
        for table, members in batches:
            for sid in table.label_sids:
                by_label.setdefault(sid, []).append(members)
        for sid, groups in by_label.items():
            self._label_index.setdefault(sid, {}).update(
                dict.fromkeys(sorted(chain.from_iterable(groups)))
            )

    def add_edge(
        self,
        src: int,
        dst: int,
        label: str,
        properties: dict[str, object] | None = None,
    ) -> int:
        tids = self._v_tid
        for endpoint in (src, dst):
            if not (0 <= endpoint < len(tids)) or tids[endpoint] < 0:
                raise GraphError(f"unknown vertex {endpoint}")
        props = dict(properties or {})
        eid = self._next_eid
        self._next_eid += 1
        self._e_src.append(src)
        self._e_dst.append(dst)
        self._e_label.append(self._symbols.intern(label))
        if props:
            self._e_props[eid] = props
        self._attach_edge(eid, src, dst, label)
        if self._undo is not None:
            self._undo.append(("unadd_edge", eid))
        if self._listeners:
            self._emit("add_edge", eid, src, dst, label, props)
        return eid

    def _attach_edge(
        self, eid: int, src: int, dst: int, label: str
    ) -> None:
        """Secondary-structure bookkeeping for a materialized edge.

        Shared by :meth:`add_edge` and the rollback path's
        :meth:`_restore_edge` - adjacency, the endpoint-pair index and
        the epoch bump stay in one place.  Placed as vertices are.
        """
        self._num_edges += 1
        out, into = self._adjacency or self._build_adjacency()
        pairs = self._pairs
        if eid == self._next_eid - 1:
            out[src].setdefault(label, {})[eid] = dst
            into[dst].setdefault(label, {})[eid] = src
            if pairs is not None:
                pair = pairs.setdefault((src, dst), {})
                pair.setdefault(label, {})[eid] = None
        else:
            _place_edge(out[src], label, eid, dst)
            _place_edge(into[dst], label, eid, src)
            if pairs is not None:
                pair = pairs.setdefault((src, dst), {})
                _place_edge(pair, label, eid, None)
        # _touch, inlined: this is the per-element hot path.
        self._epoch += 1
        self._view = None
        self._stats_age += 1

    def add_edges(
        self, label: str, srcs: list[int], dsts: list[int]
    ) -> range:
        """Bulk :meth:`add_edge` of property-less ``label`` edges.

        Adds ``srcs[i] -> dsts[i]`` for every ``i`` and returns the
        (consecutive) eids.  Every endpoint is validated before
        anything is applied, so a bad one leaves the graph untouched.

        An unobserved graph - no listener or open transaction, which is
        every loader build - takes one pass: the edge columns are
        extended, the adjacency filled if built, the epoch bumped once,
        and the endpoint-pair index left deferred for its first probe to
        build whole.  An observed graph goes through :meth:`add_edge`
        per element, so listener events (WAL bytes) and undo entries
        are the per-element ones, in eid order.
        """
        srcs = list(srcs)
        dsts = list(dsts)
        count = len(srcs)
        if len(dsts) != count:
            raise GraphError(
                f"add_edges: {count} sources for {len(dsts)} targets"
            )
        eids = range(self._next_eid, self._next_eid + count)
        if not count:
            return eids
        self._require_vertices(srcs, dsts)
        if self._observed():
            for src, dst in zip(srcs, dsts):
                self.add_edge(src, dst, label)
            return eids
        self._e_src.extend(srcs)
        self._e_dst.extend(dsts)
        self._e_label.extend([self._symbols.intern(label)] * count)
        if self._adjacency is not None:
            self._link(zip(eids, repeat(label), srcs, dsts))
        self._next_eid = eids.stop
        self._num_edges += count
        self._pairs = None
        self._touch(count)
        return eids

    def _require_vertices(self, *columns) -> None:
        """Raise for the first unknown vid of the (non-empty, equally
        long) ``columns``, read row by row as per element."""
        tids = self._v_tid
        try:
            # min() first: a negative vid must not index from the end.
            known = all(
                min(vids) >= 0 and min(map(tids.__getitem__, vids)) >= 0
                for vids in columns
            )
        except (IndexError, TypeError):
            known = False
        if not known:
            for vid in chain.from_iterable(zip(*columns)):
                self._locate(vid)

    def _observed(self) -> bool:
        """Whether mutations have per-element side effects to keep:
        a listener (WAL) or an open transaction."""
        return bool(self._listeners or self._undo is not None)

    def _build_adjacency(self) -> tuple[_Adjacency, _Adjacency]:
        """Materialize the adjacency from the id maps and edge columns
        in ascending vid / eid order - insertion order, since only bulk
        appends can have happened while it was unmaterialized."""
        out: _Adjacency = {
            vid: {} for vid, tid in enumerate(self._v_tid) if tid >= 0
        }
        adjacency = self._adjacency = (out, {vid: {} for vid in out})
        names = self._symbols.names()
        self._link(
            (eid, names[sid], src, dst)
            for eid, (sid, src, dst) in enumerate(
                zip(self._e_label, self._e_src, self._e_dst)
            )
            if sid >= 0
        )
        return adjacency

    @property
    def _out(self) -> _Adjacency:
        return (self._adjacency or self._build_adjacency())[0]

    @property
    def _in(self) -> _Adjacency:
        return (self._adjacency or self._build_adjacency())[1]

    def _link(self, edges: Iterable[tuple[int, str, int, int]]) -> None:
        """Append ``(eid, label, src, dst)`` edges to both directions
        of the materialized adjacency."""
        out, into = self._adjacency
        for eid, label, src, dst in edges:
            adjacency = out[src]
            bucket = adjacency.get(label)
            if bucket is None:
                bucket = adjacency[label] = {}
            bucket[eid] = dst
            adjacency = into[dst]
            bucket = adjacency.get(label)
            if bucket is None:
                bucket = adjacency[label] = {}
            bucket[eid] = src

    def set_property(self, vid: int, name: str, value: object) -> None:
        table, row = self._locate(vid)
        sid = self._symbols.intern(name)
        stored = table.has_prop(row, sid)  # a stored None counts
        old = table.get_prop(row, sid)
        table.set_prop(row, sid, value)
        labels = table.labels
        if self._property_indexes:
            for (label, prop), index in self._property_indexes.items():
                if prop != name or label not in labels:
                    continue
                if old is not None:
                    self._index_discard(index, old, vid)
                if value is not None:
                    index.setdefault(hashable(value), {})[vid] = None
        self._touch()
        if self._undo is not None:
            undo = "reset_property" if stored else "unset_property"
            self._undo.append((undo, vid, name, old))
        if self._listeners:
            self._emit("set_property", vid, name, value)

    def set_properties(self, name: str, values: dict[int, object]) -> None:
        """Bulk :meth:`set_property` of one key, ``values`` mapping vid
        to value.  Every vid is validated first; an unobserved graph (as
        for :meth:`add_vertices`) takes one epoch bump for the batch."""
        if not values:
            return
        self._require_vertices(values)
        if self._observed() or self._property_indexes:
            for vid, value in values.items():
                self.set_property(vid, name, value)
            return
        sid = self._symbols.intern(name)
        tids, rows, tables = self._v_tid, self._v_row, self._tables
        for vid, value in values.items():
            tables[tids[vid]].set_prop(rows[vid], sid, value)
        self._touch(len(values))

    def remove_property(self, vid: int, name: str) -> None:
        table, row = self._locate(vid)
        sid = self._symbols.sid(name)
        if not table.has_prop(row, sid):  # a stored None counts
            return
        old = table.get_prop(row, sid)
        table.unset_prop(row, sid)
        labels = table.labels
        if self._property_indexes and old is not None:
            for (label, prop), index in self._property_indexes.items():
                if prop == name and label in labels:
                    self._index_discard(index, old, vid)
        self._touch()
        if self._undo is not None:
            self._undo.append(("reset_property", vid, name, old))
        if self._listeners:
            self._emit("remove_property", vid, name)

    @staticmethod
    def _index_discard(index: dict, value: object, vid: int) -> None:
        key = hashable(value)
        bucket = index.get(key)
        if bucket is None:
            return
        bucket.pop(vid, None)
        if not bucket:
            del index[key]

    def remove_edge(self, eid: int) -> None:
        """Remove an edge (update handling, Section 4.2 of the paper)."""
        labels = self._e_label
        if not (0 <= eid < len(labels)) or labels[eid] < 0:
            raise GraphError(f"unknown edge {eid}")
        out, into = self._adjacency or self._build_adjacency()
        src = self._e_src[eid]
        dst = self._e_dst[eid]
        label = self._symbols.name(labels[eid])
        labels[eid] = -1
        self._num_edges -= 1
        props = self._e_props.pop(eid, None)
        self._adjacency_discard(out[src], label, eid)
        self._adjacency_discard(into[dst], label, eid)
        if self._pairs is not None:
            pair = self._pairs[(src, dst)]
            self._adjacency_discard(pair, label, eid)
            if not pair:
                del self._pairs[(src, dst)]
        self._touch()
        if self._undo is not None:
            self._undo.append(
                ("restore_edge", eid, src, dst, label, props or {})
            )
        if self._listeners:
            self._emit("remove_edge", eid)

    @staticmethod
    def _adjacency_discard(
        adjacency: dict[str, _Bucket], label: str, eid: int
    ) -> None:
        bucket = adjacency[label]
        del bucket[eid]
        if not bucket:
            del adjacency[label]

    def remove_vertex(self, vid: int) -> None:
        """Remove a vertex and every incident edge.

        When the cascade spans multiple listener events (incident
        edges plus the vertex itself) outside an explicit transaction,
        it is wrapped in ``tx_begin``/``tx_commit`` framing so the WAL
        records land as one atomic frame: a crash mid-cascade recovers
        to the pre-removal state, never to a vertex with some edges
        gone.
        """
        table, row = self._locate(vid)
        out, into = self._adjacency or self._build_adjacency()
        incident: list[int] = []
        for adjacency in (out[vid], into[vid]):
            for bucket in adjacency.values():
                incident.extend(bucket)
        e_labels = self._e_label
        frame = bool(
            self._listeners
            and self._undo is None
            and any(e_labels[eid] >= 0 for eid in incident)
        )
        if frame:
            self._emit("tx_begin")
        for eid in incident:
            if e_labels[eid] >= 0:  # self-loops appear on both sides
                self.remove_edge(eid)
        labels = table.labels
        props = self._row_properties(table, row)
        for sid in table.label_sids:
            bucket = self._label_index[sid]
            del bucket[vid]
            if not bucket:
                del self._label_index[sid]
        if self._property_indexes:
            for (label, prop), index in self._property_indexes.items():
                if label in labels:
                    value = props.get(prop)
                    if value is not None:
                        self._index_discard(index, value, vid)
        table.tombstone(row)
        self._v_tid[vid] = -1
        del out[vid]
        del into[vid]
        self._touch()
        if self._undo is not None:
            # Cascaded remove_edge calls above recorded their own
            # entries; reverse replay restores the vertex first, then
            # its edges.
            self._undo.append(
                ("restore_vertex", vid, table.labelset_id, row, props)
            )
        if self._listeners:
            self._emit("remove_vertex", vid)
        if frame:
            self._emit("tx_commit")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def vertex(self, vid: int) -> Vertex:
        self._locate(vid)  # raises GraphError when unknown
        return Vertex(self, vid)

    def edge(self, eid: int) -> Edge:
        labels = self._e_label
        if (
            not isinstance(eid, int)
            or not (0 <= eid < len(labels))
            or labels[eid] < 0
        ):
            raise GraphError(f"unknown edge {eid}")
        return Edge(self, eid)

    def labels_of(self, vid: int) -> frozenset[str]:
        """The label set of one vertex (no façade construction)."""
        try:
            tid = self._v_tid[vid] if vid >= 0 else -1
        except (IndexError, TypeError):
            raise GraphError(f"unknown vertex {vid}") from None
        if tid < 0:
            raise GraphError(f"unknown vertex {vid}")
        return self._labelset_strs[tid]

    def get_property(
        self, vid: int, name: str, default: object = None
    ) -> object:
        """One property value straight from its column."""
        table, row = self._locate(vid)
        return table.get_prop(row, self._symbols.sid(name), default)

    def has_label(self, vid: int, label: str) -> bool:
        return label in self.labels_of(vid)

    def vertices_with_label(self, label: str) -> list[int]:
        sid = self._symbols.sid(label)
        if sid is None:
            return []
        return list(self._label_index.get(sid, ()))

    def label_count(self, label: str) -> int:
        sid = self._symbols.sid(label)
        if sid is None:
            return 0
        return len(self._label_index.get(sid, ()))

    def labels(self) -> list[str]:
        name = self._symbols.name
        return sorted(name(sid) for sid in self._label_index)

    def vertex_ids(self) -> list[int]:
        """Live vertex ids in ascending (== insertion) order."""
        return [vid for vid, tid in enumerate(self._v_tid) if tid >= 0]

    def out_edges(self, vid: int, label: str | None = None) -> list[Edge]:
        adjacency = self._out.get(vid, {})
        return self._edges_from(adjacency, label)

    def in_edges(self, vid: int, label: str | None = None) -> list[Edge]:
        adjacency = self._in.get(vid, {})
        return self._edges_from(adjacency, label)

    def _edges_from(
        self, adjacency: dict[str, _Bucket], label: str | None
    ) -> list[Edge]:
        if label is not None:
            return [Edge(self, e) for e in adjacency.get(label, ())]
        result: list[Edge] = []
        for edge_ids in adjacency.values():
            result.extend(Edge(self, e) for e in edge_ids)
        return result

    def has_edge_between(
        self,
        src: int,
        dst: int,
        label: str | None = None,
        direction: str = "out",
    ) -> bool:
        """O(1) adjacency membership: is there a matching edge?

        ``direction`` follows pattern semantics relative to ``src``:
        ``out`` means src->dst, ``in`` means dst->src, ``any`` either.
        """
        return self.first_edge_between(src, dst, label, direction) is not None

    def first_edge_between(
        self,
        src: int,
        dst: int,
        label: str | None = None,
        direction: str = "out",
    ) -> int | None:
        """The first matching eid between two endpoints, or None."""
        if direction in ("out", "any"):
            eid = self._first_in_pair((src, dst), label)
            if eid is not None:
                return eid
        if direction in ("in", "any"):
            return self._first_in_pair((dst, src), label)
        return None

    def _build_pairs(self) -> dict[tuple[int, int], dict[str, _Bucket]]:
        """Materialize the endpoint-pair index from the edge columns.

        Runs over the *current* edge columns in ascending-eid order,
        so any mutations applied while the index was deferred are
        fully reflected - a deferred index is only ever built whole,
        never patched incrementally.
        """
        pairs: dict[tuple[int, int], dict[str, _Bucket]] = {}
        name = self._symbols.name
        for eid, (sid, src, dst) in enumerate(
            zip(self._e_label, self._e_src, self._e_dst)
        ):
            if sid < 0:
                continue
            key = (src, dst)
            by_label = pairs.get(key)
            if by_label is None:
                by_label = pairs[key] = {}
            label = name(sid)
            bucket = by_label.get(label)
            if bucket is None:
                bucket = by_label[label] = {}
            bucket[eid] = None
        self._pairs = pairs
        return pairs

    def _first_in_pair(
        self, key: tuple[int, int], label: str | None
    ) -> int | None:
        pairs = self._pairs
        if pairs is None:
            pairs = self._build_pairs()
        pair = pairs.get(key)
        if not pair:
            return None
        if label is None:
            for bucket in pair.values():
                for eid in bucket:
                    return eid
            return None
        bucket = pair.get(label)
        if bucket:
            for eid in bucket:
                return eid
        return None

    def degree(self, vid: int) -> int:
        out_deg = sum(len(v) for v in self._out.get(vid, {}).values())
        in_deg = sum(len(v) for v in self._in.get(vid, {}).values())
        return out_deg + in_deg

    def iter_vertices(self) -> Iterator[Vertex]:
        for vid, tid in enumerate(self._v_tid):
            if tid >= 0:
                yield Vertex(self, vid)

    def iter_edges(self) -> Iterator[Edge]:
        for eid, sid in enumerate(self._e_label):
            if sid >= 0:
                yield Edge(self, eid)

    def iter_tables(self) -> list[VertexTable]:
        """The per-label-set vertex tables (statistics / codec use)."""
        return self._tables

    @property
    def symbols(self) -> SymbolTable:
        return self._symbols

    # ------------------------------------------------------------------
    # Property indexes (exact-match lookups for {prop: value} patterns)
    # ------------------------------------------------------------------
    def create_property_index(self, label: str, prop: str) -> None:
        key = (label, prop)
        if key in self._property_indexes:
            return
        index: dict = {}
        sid = self._symbols.sid(label)
        prop_sid = self._symbols.sid(prop)
        if sid is not None and prop_sid is not None:
            for vid in self._label_index.get(sid, ()):
                table = self._tables[self._v_tid[vid]]
                value = table.get_prop(self._v_row[vid], prop_sid)
                if value is not None:
                    index.setdefault(hashable(value), {})[vid] = None
        self._property_indexes[key] = index
        # The new access path changes the planner's best choice.
        self._stats = None
        self._touch()
        if self._undo is not None:
            self._undo.append(("drop_index", label, prop))
        if self._listeners:
            self._emit("create_property_index", label, prop)

    def has_property_index(self, label: str, prop: str) -> bool:
        return (label, prop) in self._property_indexes

    def lookup_property(
        self, label: str, prop: str, value: object
    ) -> list[int]:
        try:
            index = self._property_indexes[(label, prop)]
        except KeyError:
            raise GraphError(
                f"no property index on ({label!r}, {prop!r})"
            ) from None
        return list(index.get(hashable(value), ()))

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def statistics(self) -> GraphStatistics:
        """Planner statistics: the cached build, rebuilt once stale.

        A build is one batch pass over the property and edge columns;
        it is reused until the element mutations since reach
        ``max(64, size >> 4)`` (a bulk call counts each element it
        applies), or an index is created or dropped.  A rebuild brings
        an empty plan cache.  See :mod:`repro.graphdb.statistics`.
        """
        stats = self._stats
        if stats is None or self._stats_age >= max(
            64, (stats.num_vertices + stats.num_edges) >> 4
        ):
            stats = self._stats = GraphStatistics.build(self)
            self._stats_age = 0
        return stats

    @property
    def num_vertices(self) -> int:
        return sum(table.live for table in self._tables)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def size_bytes(self, edge_bytes: int = 16) -> int:
        """Approximate storage footprint (used to sanity-check budgets)."""
        from repro.ontology.model import DataType

        total = 0
        for table in self._tables:
            for column in table.columns.values():
                if column.kind == KIND_INT:
                    total += DataType.INT.size_bytes * column.count
                elif column.kind == KIND_FLOAT:
                    total += DataType.FLOAT.size_bytes * column.count
                else:
                    for present, value in zip(column.mask, column.data):
                        if not present:
                            continue
                        if isinstance(value, list):
                            total += DataType.STRING.size_bytes * len(value)
                        elif isinstance(value, bool):
                            total += DataType.BOOL.size_bytes
                        elif isinstance(value, int):
                            total += DataType.INT.size_bytes
                        elif isinstance(value, float):
                            total += DataType.FLOAT.size_bytes
                        else:
                            total += DataType.STRING.size_bytes
        total += edge_bytes * self._num_edges
        return total

    def summary(self) -> str:
        return (
            f"PropertyGraph {self.name!r}: {self.num_vertices:,} vertices, "
            f"{self.num_edges:,} edges, {len(self._label_index)} labels"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.summary()}>"
