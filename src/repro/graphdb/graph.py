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
* those five id columns are ``array("q")``, so the bulk paths move
  them as int64 buffers: ``add_edges`` validates its endpoints with
  numpy and appends them with ``frombytes``, and the numpy readers
  (freeze, statistics) take a memcpy of them.  Nothing keeps a numpy
  *view* of one: while a buffer is exported, the column cannot grow
  or be truncated (``BufferError``);
* :meth:`PropertyGraph.arrays` hands out the numpy projections the
  batch path reads (see :mod:`repro.graphdb.view`), and
  :meth:`PropertyGraph.freeze` adds immutable per-edge-type CSR
  adjacency to them; the graph drops them whenever it advances its
  mutation epoch - the counter every mutation advances alongside the
  WAL listener callbacks.

Reads of one element hand out records: :class:`Vertex` and
:class:`Edge` are frozen copies whose ``properties`` mapping is
read-only.  The graph's mutation methods are the only property writers
(``set_property``, ``remove_property``, and ``add_vertex`` /
``add_edge`` with ``properties=``), so every write keeps the property
indexes, the undo log and the WAL listeners in step.

Label lookups read the label-set tables: a table's live vids ascend
(a rollback restores a vertex to its own row), so merging the tables
that carry a label lists its vertices in vid order.  Property indexes
use insertion-ordered dict buckets keyed by vid, so membership tests,
insertion and removal are all O(1) while iteration order stays
deterministic; a rolled-back removal puts a vid back before the first
greater one.

One adjacency serves every per-element read, frozen or not:
``out_edges`` / ``in_edges``, ``degree``, ``first_edge_between``,
``remove_vertex``'s cascade and the tuple path's expand and join check.
It is two parts over the edge columns:

* the *base*, both directions' per-type CSR of
  :func:`~repro.graphdb.view.build_csr`, over the eids below
  ``_base_eids``.  Mutations leave it as it is: a removed base edge is
  masked by its tombstone in ``_e_label`` (a typed read looks at the
  mask only once some base edge has been removed), and a rolled-back
  removal clears the tombstone;
* the *tail*, per direction vid -> the live eids at or past
  ``_base_eids``, ascending: an add appends, a removal takes the eid
  out and a rolled-back removal puts it back in eid order.

A read of one vertex and type is its base segment under the mask, then
its tail: ascending eid.  An untyped read orders the types by their
first eid at that vertex; the tuple path's untyped expand on a frozen
graph reads them in ``type_rank`` order instead, as the batch path
does.

The base is *derived* state: bulk ingest (``add_vertices`` /
``add_edges`` / ``set_properties``), the snapshot loader, WAL replay
and every other mutation leave it unbuilt, and while there is none no
mutation touches the adjacency.  :meth:`PropertyGraph.freeze` makes
the frozen CSR the base; otherwise the first per-element read builds
it from the columns.  Nothing else folds the tail into it.  A base
built inside a transaction may lack an edge removed before the build,
so the rollback drops it (an undo entry) and the next read builds
again.  The planner's statistics are derived too:
:meth:`PropertyGraph.statistics` builds its counts from the tables
and rebuilds them when enough mutations have made them stale, and its
equality estimates count the arrays of the epoch of their first ask
after the build; no mutation updates them.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from operator import index, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import GraphError, TransactionError
from repro.graphdb.columnar import (
    ABSENT,
    SymbolTable,
    VertexTable,
)
from repro.graphdb.statistics import GraphStatistics, hashable
from repro.graphdb.view import Csr, GraphArrays, build_csr

#: Whether a table row's vid is live (tombstoned rows hold -1).
_live = (0).__le__


def _column_rows(columns: dict[str, list], count: int) -> list[dict]:
    """Each row's present values of ``add_vertices``' columns, in
    column order: what the per-element path adds."""
    if not columns:
        return [{}] * count
    return [
        {name: value for name, value in zip(columns, row)
         if value is not ABSENT}
        for row in zip(*columns.values())
    ]


def _int64(values) -> np.ndarray | None:
    """``values`` as a 1-d int64 array (an ndarray as it is, a copy of
    any other sequence), or None where some value is not an int."""
    try:
        column = (
            values if isinstance(values, np.ndarray) else np.array(values)
        )
    except (TypeError, ValueError, OverflowError):
        return None
    if column.ndim != 1 or column.dtype.kind not in "iub":
        return None
    return column.astype(np.int64, copy=False)


def _place(bucket: dict, key: int, value: object) -> None:
    """``bucket[key] = value``, before the first greater id: where a
    removal rolled back took ``key`` from, in O(len(bucket))."""
    if bucket and key < next(reversed(bucket)):
        _insert(bucket, next(i for i, k in enumerate(bucket) if k > key),
                key, value)
    else:
        bucket[key] = value


def _insert(mapping: dict, at: int, key: object, value: object) -> None:
    """Insert ``key: value`` at position ``at`` of ``mapping``."""
    items = list(mapping.items())
    items.insert(at, (key, value))
    mapping.clear()
    mapping.update(items)


def _copy(value: object) -> object:
    """A stored value as a reader gets it: a list as a fresh list, so
    that changing it changes nothing stored (only the mutation methods
    write, keeping the indexes, the undo log and the WAL in step)."""
    return list(value) if isinstance(value, list) else value


#: The properties of every edge that carries none.
_NO_PROPERTIES: Mapping[str, object] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class Vertex:
    """One vertex as read: a record, not a handle.  ``properties`` is a
    read-only copy of its row; a write goes through
    :meth:`PropertyGraph.set_property` / ``remove_property``."""

    vid: int
    labels: frozenset[str]
    properties: Mapping[str, object] = field(hash=False)


@dataclass(frozen=True, slots=True)
class Edge:
    """One edge as read.  ``properties`` is a read-only copy of its
    sparse property dict, which only :meth:`PropertyGraph.add_edge`
    writes."""

    eid: int
    src: int
    dst: int
    label: str
    properties: Mapping[str, object] = field(hash=False)


class PropertyGraph:
    """Columnar vertex/edge stores with label and adjacency indexes."""

    def __init__(self, name: str = "graph"):
        self.name = name
        #: String interning shared by labels, edge types, and keys.
        self._symbols = SymbolTable()
        #: One table per distinct label set; index == label-set id.
        self._tables: list[VertexTable] = []
        self._labelset_ids: dict[frozenset[int], int] = {}
        #: vid -> owning table id (-1 = removed) / table-local row.
        self._v_tid = array("q")
        self._v_row = array("q")
        #: Edge columns indexed directly by eid (-1 label = removed).
        self._e_src = array("q")
        self._e_dst = array("q")
        self._e_label = array("q")
        #: Sparse eid -> property dict (most edges carry none).
        self._e_props: dict[int, dict] = {}
        self._num_edges = 0
        #: The adjacency (see the module docstring): the base, (out,
        #: in) edge-type sid -> Csr over the eids below ``_base_eids``,
        #: or None until freeze or a per-element read builds it; and
        #: the tail, (out, in) vid -> the live eids past the base.
        self._base: tuple[dict[int, Csr], dict[int, Csr]] | None = None
        self._base_eids = 0
        #: Whether a base eid has been removed since the base was
        #: built: until then a typed read skips the tombstone mask.
        self._base_dead = False
        self._tail: tuple[dict[int, list], dict[int, list]] = ({}, {})
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
        #: Mutation epoch + this epoch's arrays.  Every mutation
        #: advances the epoch and drops the arrays; :meth:`arrays`
        #: rebuilds them on demand, :meth:`freeze` adds the CSR.
        self._epoch = 0
        self._arrays: GraphArrays | None = None
        #: labels-argument -> VertexTable memo for add_vertex and
        #: add_vertices: callers pass the same str/tuple/frozenset label
        #: arguments over and over, so the intern + frozenset work runs
        #: once per distinct argument.  Symbol ids and tables are
        #: append-only, so entries never go stale.
        self._table_cache: dict = {}

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
        elif op == "drop_base":
            self._base = None
            self._tail = ({}, {})
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
        self._attach_edge(eid, src, dst)

    def _drop_property_index(self, label: str, prop: str) -> None:
        """Undo of :meth:`create_property_index` (rollback only)."""
        self._property_indexes.pop((label, prop), None)
        # Cached plans may embed the dropped index as their access path.
        self._stats = None
        self._touch()

    # ------------------------------------------------------------------
    # Epoch / arrays
    # ------------------------------------------------------------------
    @property
    def mutation_epoch(self) -> int:
        return self._epoch

    def _touch(self, elements: int = 1) -> None:
        """Advance the mutation epoch (dropping the arrays) and age the
        statistics by the ``elements`` mutated."""
        self._epoch += 1
        self._arrays = None
        self._stats_age += elements

    def arrays(self) -> GraphArrays:
        """This epoch's :class:`~repro.graphdb.view.GraphArrays`,
        frozen or not (created on demand, O(1))."""
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = GraphArrays(self)
        return arrays

    def freeze(self) -> GraphArrays:
        """This epoch's arrays with their CSR adjacency built, which
        becomes the adjacency base too.

        O(E log E) plus each edge type's anchor range when built,
        O(1) while the graph stays unmutated.
        The batch path expands only over frozen arrays; nothing
        freezes them implicitly.
        """
        arrays = self.arrays()
        if arrays.type_rank is None:
            arrays._out, arrays._in, arrays.type_rank = self._build_base()
        return arrays

    def _build_base(self) -> tuple:
        """Build the CSR of the columns as they stand and make it the
        adjacency base, with an empty tail; return :func:`build_csr`'s
        triple.  Only :meth:`freeze` installs it as frozen arrays: the
        batch path still refuses a graph that a read gave a base.
        Inside a transaction the rollback drops it, for it lacks any
        edge removed before now."""
        out, into, type_rank = build_csr(self)
        if self._undo is not None:
            self._undo.append(("drop_base",))
        self._base_eids = len(self._e_label)
        self._base_dead = False
        self._tail = ({}, {})
        self._base = out, into
        return out, into, type_rank

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
            name(sid): _copy(column.data[row])
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
        :meth:`_restore_vertex`, so the property indexes and epoch
        bump can never diverge between the two.  An add brings the
        greatest vid and appends; only a rollback brings back an older
        one, which goes back where it was.
        """
        if self._property_indexes:
            put = dict.__setitem__ if vid == self._next_vid - 1 else _place
            label_set = table.labels
            for (label, prop), index in self._property_indexes.items():
                if label in label_set:
                    value = props.get(prop)
                    if value is not None:
                        put(index.setdefault(hashable(value), {}), vid, None)
        # _touch, inlined: this is the per-element hot path.
        self._epoch += 1
        self._arrays = None
        self._stats_age += 1

    def add_vertices(
        self,
        labels: Iterable[str] | str,
        count: int,
        columns: dict[str, list] | None = None,
    ) -> range:
        """Bulk :meth:`add_vertex` of ``count`` vertices with the label
        set ``labels``; returns the (consecutive) vids.

        ``columns`` maps each property name to one value per vertex,
        :data:`~repro.graphdb.columnar.ABSENT` where the vertex lacks
        it: vertex ``i`` gets what ``add_vertex`` would give it for the
        dict of its values in column order.

        The labels and the column lengths are validated before anything
        is applied.  An observed graph (see :meth:`add_edges`; a
        property index observes vertices too) goes through
        :meth:`add_vertex` per element.  Otherwise each column list is
        appended to the table's column in one step and the epoch is
        bumped once.  Symbols are interned in the per-element order: the
        labels, then each key at the first vertex carrying it.
        """
        if not isinstance(labels, (str, tuple, frozenset)):
            labels = tuple(labels)
        if not labels and not isinstance(labels, str):
            raise GraphError("a vertex needs at least one label")
        columns = columns or {}
        for name, values in columns.items():
            if len(values) != count:
                raise GraphError(
                    f"add_vertices: {count} vertices for "
                    f"{len(values)} values of {name!r}"
                )
        vids = range(self._next_vid, self._next_vid + count)
        if self._observed() or self._property_indexes:
            for props in _column_rows(columns, count):
                self.add_vertex(labels, props)
            return vids
        if not count:
            return vids
        table = self._table_of(labels)
        row = len(table.vids)
        table.vids.extend(vids)
        table.live += count
        self._append_columns(table, row, columns)
        self._v_tid.extend(array("q", [table.labelset_id]) * count)
        self._v_row.frombytes(
            np.arange(row, row + count, dtype=np.int64).tobytes()
        )
        self._next_vid = vids.stop
        self._touch(count)
        return vids

    def _append_columns(
        self, table: VertexTable, row: int, columns: dict[str, list]
    ) -> None:
        """Append ``columns`` to ``table`` from ``row`` on.  Row by
        row, per-element adds would intern each key at the first row
        carrying it (in column order within a row) and add the table's
        columns in that order."""
        carried = []
        for position, (name, values) in enumerate(columns.items()):
            mask, first = None, 0
            if ABSENT in values:
                mask = bytearray(v is not ABSENT for v in values)
                first = mask.find(1)
                if first < 0:
                    continue
            carried.append((first, position, name, values, mask))
        carried.sort(key=itemgetter(0, 1))
        intern = self._symbols.intern
        for _first, _position, name, values, mask in carried:
            table.append_column(intern(name), row, values, mask)

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
        self._attach_edge(eid, src, dst)
        if self._undo is not None:
            self._undo.append(("unadd_edge", eid))
        if self._listeners:
            self._emit("add_edge", eid, src, dst, label, props)
        return eid

    def _attach_edge(self, eid: int, src: int, dst: int) -> None:
        """Secondary-structure bookkeeping for a materialized edge.

        Shared by :meth:`add_edge` and the rollback path's
        :meth:`_restore_edge` - adjacency and the epoch bump stay in
        one place.  An eid past the base goes into the tail; a base
        eid is back once its tombstone is cleared.
        """
        self._num_edges += 1
        if self._base is not None and eid >= self._base_eids:
            self._to_tail(((eid, src, dst),))
        # _touch, inlined: this is the per-element hot path.
        self._epoch += 1
        self._arrays = None
        self._stats_age += 1

    def add_edges(self, label: str, srcs, dsts) -> range:
        """Bulk :meth:`add_edge` of property-less ``label`` edges.

        Adds ``srcs[i] -> dsts[i]`` for every ``i`` and returns the
        (consecutive) eids.  ``srcs`` and ``dsts`` are int arrays
        (numpy or ``array``) or any other iterables of ints.  Every
        endpoint is validated before anything is applied, so a bad one
        leaves the graph untouched.

        An unobserved graph - no listener or open transaction, which is
        every loader build - takes one pass: the endpoints are appended
        to the edge columns as int64 bytes, the tail filled if there
        is a base and the epoch bumped once.  An observed graph goes
        through :meth:`add_edge` per element, with Python ints, so
        listener events (WAL bytes) and undo entries are the
        per-element ones, in eid order.
        """
        if not isinstance(srcs, (np.ndarray, array, list, tuple)):
            srcs = list(srcs)
        if not isinstance(dsts, (np.ndarray, array, list, tuple)):
            dsts = list(dsts)
        count = len(srcs)
        if len(dsts) != count:
            raise GraphError(
                f"add_edges: {count} sources for {len(dsts)} targets"
            )
        eids = range(self._next_eid, self._next_eid + count)
        if not count:
            return eids
        srcs, dsts = self._require_vertices(srcs, dsts)
        if self._observed():
            for src, dst in zip(srcs.tolist(), dsts.tolist()):
                self.add_edge(src, dst, label)
            return eids
        self._e_src.frombytes(srcs.tobytes())
        self._e_dst.frombytes(dsts.tobytes())
        self._e_label.extend(
            array("q", [self._symbols.intern(label)]) * count
        )
        if self._base is not None:
            self._to_tail(zip(eids, srcs.tolist(), dsts.tolist()))
        self._next_eid = eids.stop
        self._num_edges += count
        self._touch(count)
        return eids

    def _require_vertices(self, *columns) -> list[np.ndarray]:
        """The (non-empty, equally long) ``columns`` as int64 arrays,
        each value a live vid; else raise for the first unknown one,
        read row by row as per element.  One numpy pass over a copy of
        ``_v_tid`` checks them all."""
        vids = [_int64(column) for column in columns]
        if all(column is not None for column in vids):
            tids = np.array(self._v_tid, dtype=np.int64)
            if all(
                column.min() >= 0 and column.max() < len(tids)
                and tids[column].min() >= 0
                for column in vids
            ):
                return vids
        for vid in chain.from_iterable(zip(*columns)):
            self._locate(vid)
        # Every value located: each is an int, or has __index__.
        return [
            np.fromiter(map(index, column), np.int64, len(column))
            for column in columns
        ]

    def _observed(self) -> bool:
        """Whether mutations have per-element side effects to keep:
        a listener (WAL) or an open transaction."""
        return bool(self._listeners or self._undo is not None)

    def _to_tail(self, edges: Iterable[tuple[int, int, int]]) -> None:
        """Put ``(eid, src, dst)`` edges past the base into the tail,
        each in eid order: an add appends, a rollback inserts."""
        out, into = self._tail
        for eid, src, dst in edges:
            insort(out.setdefault(src, []), eid)
            insort(into.setdefault(dst, []), eid)

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
        to value.  Every vid is validated first.

        An observed graph (as for :meth:`add_vertices`) goes through
        :meth:`set_property` per element.  Otherwise the vids are
        grouped by table, in order of each table's first vid; each
        table takes one ``VertexTable.assign_column`` write (the column
        it creates, and the dtype it ends with, are the per-element
        ones) and the batch one epoch bump."""
        if not values:
            return
        (vids,) = self._require_vertices(list(values))
        if self._observed() or self._property_indexes:
            for vid, value in values.items():
                self.set_property(vid, name, value)
            return
        sid = self._symbols.intern(name)
        tids = np.array(self._v_tid, dtype=np.int64)[vids]
        rows = np.array(self._v_row, dtype=np.int64)[vids].tolist()
        items = list(values.values())
        # One slice per run of vids in one table; each table's runs
        # joined, tables in first-vid order.
        cuts = (np.flatnonzero(tids[1:] != tids[:-1]) + 1).tolist()
        tids = tids.tolist()
        by_table: dict[int, tuple[list, list]] = {}
        for lo, hi in zip([0] + cuts, cuts + [len(tids)]):
            held = by_table.get(tids[lo])
            if held is None:
                held = by_table[tids[lo]] = ([], [])
            held[0].extend(rows[lo:hi])
            held[1].extend(items[lo:hi])
        for tid, (rows, items) in by_table.items():
            self._tables[tid].assign_column(sid, rows, items)
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
        src = self._e_src[eid]
        dst = self._e_dst[eid]
        label = self._symbols.name(labels[eid])
        labels[eid] = -1  # masks a base eid
        self._num_edges -= 1
        props = self._e_props.pop(eid, None)
        if self._base is not None:
            if eid < self._base_eids:
                self._base_dead = True
            else:
                for tail, vid in zip(self._tail, (src, dst)):
                    eids = tail[vid]
                    eids.remove(eid)
                    if not eids:
                        del tail[vid]
        self._touch()
        if self._undo is not None:
            self._undo.append(
                ("restore_edge", eid, src, dst, label, props or {})
            )
        if self._listeners:
            self._emit("remove_edge", eid)

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
        incident = self._incident(vid)
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
        if self._property_indexes:
            for (label, prop), index in self._property_indexes.items():
                if label in labels:
                    value = props.get(prop)
                    if value is not None:
                        self._index_discard(index, value, vid)
        table.tombstone(row)
        self._v_tid[vid] = -1
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
        table, row = self._locate(vid)  # raises GraphError when unknown
        return Vertex(
            vid, table.labels,
            MappingProxyType(self._row_properties(table, row)),
        )

    def edge(self, eid: int) -> Edge:
        labels = self._e_label
        if (
            not isinstance(eid, int)
            or not (0 <= eid < len(labels))
            or labels[eid] < 0
        ):
            raise GraphError(f"unknown edge {eid}")
        return self._edge(eid)

    def _edge(self, eid: int) -> Edge:
        """The record of a live edge."""
        props = self._e_props.get(eid)
        return Edge(
            eid, self._e_src[eid], self._e_dst[eid],
            self._symbols.name(self._e_label[eid]),
            _NO_PROPERTIES if props is None else MappingProxyType(
                {name: _copy(value) for name, value in props.items()}
            ),
        )

    def labels_of(self, vid: int) -> frozenset[str]:
        """The label set of one vertex (no record construction)."""
        try:
            tid = self._v_tid[vid] if vid >= 0 else -1
        except (IndexError, TypeError):
            raise GraphError(f"unknown vertex {vid}") from None
        if tid < 0:
            raise GraphError(f"unknown vertex {vid}")
        return self._tables[tid].labels

    def get_property(
        self, vid: int, name: str, default: object = None
    ) -> object:
        """One property value straight from its column (a list as a
        copy)."""
        table, row = self._locate(vid)
        return _copy(table.get_prop(row, self._symbols.sid(name), default))

    def has_label(self, vid: int, label: str) -> bool:
        return label in self.labels_of(vid)

    def _label_tables(self, label: str) -> list[VertexTable]:
        """The tables whose label set holds ``label``."""
        sid = self._symbols.sid(label)
        return [table for table in self._tables if sid in table.label_sids]

    def vertices_with_label(self, label: str) -> list[int]:
        """Live vids carrying ``label``, ascending: each table's live
        vids ascend, so one table's are in order as they stand."""
        vids: list[int] = []
        runs = 0
        for table in self._label_tables(label):
            if table.live:
                runs += 1
                vids += (
                    table.vids if table.live == len(table.vids)
                    else filter(_live, table.vids)
                )
        return vids if runs < 2 else sorted(vids)

    def label_count(self, label: str) -> int:
        return sum(table.live for table in self._label_tables(label))

    def labels(self) -> list[str]:
        """The labels some live vertex carries, sorted."""
        return sorted({
            label for table in self._tables if table.live
            for label in table.labels
        })

    def vertex_ids(self) -> list[int]:
        """Live vertex ids in ascending (== insertion) order."""
        return np.flatnonzero(
            np.array(self._v_tid, dtype=np.int64) >= 0
        ).tolist()

    def out_edges(self, vid: int, label: str | None = None) -> list[Edge]:
        return [self._edge(eid) for eid in self._eids(vid, 0, label)]

    def in_edges(self, vid: int, label: str | None = None) -> list[Edge]:
        return [self._edge(eid) for eid in self._eids(vid, 1, label)]

    def _eids(self, vid: int, d: int, label: str | None = None) -> list[int]:
        """The adjacency read: ``vid``'s live eids out (``d`` 0) or in
        (1) of type ``label``, ascending - its base segment under the
        tombstone mask, then its tail - or of every type, the types in
        order of their first eid here.  The first read without a base
        builds it."""
        if self._base is None:
            self._build_base()
        csrs = self._base[d]
        tail = self._tail[d].get(vid)
        labels = self._e_label
        if label is None:
            return self._grouped([
                eid for csr in csrs.values() for eid in csr.segment(vid)
                if labels[eid] >= 0
            ] + (tail or []))
        sid = self._symbols.sid(label)
        csr = csrs.get(sid)
        eids = [] if csr is None else csr.segment(vid)
        if self._base_dead:
            eids = [eid for eid in eids if labels[eid] >= 0]
        if tail:
            eids += [eid for eid in tail if labels[eid] == sid]
        return eids

    def _grouped(self, eids: list[int]) -> list[int]:
        """Live ``eids`` (each type's ascending) by edge type, the
        types in order of their first eid: a vertex's untyped order."""
        labels = self._e_label
        groups: dict[int, list[int]] = {}
        for eid in eids:
            groups.setdefault(labels[eid], []).append(eid)
        if len(groups) < 2:
            return eids
        return [eid for group in sorted(groups.values()) for eid in group]

    def _incident(self, vid: int) -> list[int]:
        """``vid``'s out eids, then its in eids, each in untyped read
        order.  Without a base, one pass over the edge columns: a
        mutation builds none."""
        if self._base is not None:
            return self._eids(vid, 0) + self._eids(vid, 1)
        live = np.array(self._e_label, dtype=np.int64) >= 0
        return [
            eid for ends in (self._e_src, self._e_dst)
            for eid in self._grouped(np.flatnonzero(
                live & (np.array(ends, dtype=np.int64) == vid)
            ).tolist())
        ]

    def has_edge_between(
        self,
        src: int,
        dst: int,
        label: str | None = None,
        direction: str = "out",
    ) -> bool:
        """Is there a matching edge?  See :meth:`first_edge_between`."""
        return self.first_edge_between(src, dst, label, direction) is not None

    def first_edge_between(
        self,
        src: int,
        dst: int,
        label: str | None = None,
        direction: str = "out",
    ) -> int | None:
        """The smallest matching eid between two endpoints, or None.

        ``direction`` follows pattern semantics relative to ``src``:
        ``out`` means src->dst, ``in`` means dst->src, ``any`` either,
        an ``out`` edge first.  A scan of ``src``'s adjacency for
        ``dst``: O(degree of src).
        """
        for d, (side, far) in enumerate(
            (("out", self._e_dst), ("in", self._e_src))
        ):
            if direction in (side, "any"):
                eid = min(
                    (e for e in self._eids(src, d, label) if far[e] == dst),
                    default=None,
                )
                if eid is not None:
                    return eid
        return None

    def degree(self, vid: int) -> int:
        return len(self._eids(vid, 0)) + len(self._eids(vid, 1))

    def iter_vertices(self) -> Iterator[Vertex]:
        for vid, tid in enumerate(self._v_tid):
            if tid >= 0:
                yield self.vertex(vid)

    def iter_edges(self) -> Iterator[Edge]:
        for eid, sid in enumerate(self._e_label):
            if sid >= 0:
                yield self._edge(eid)

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
        prop_sid = self._symbols.sid(prop)
        if prop_sid is not None:
            for vid in self.vertices_with_label(label):
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

        A build is one batch pass over the vertex tables and the edge
        columns; it is reused until the element mutations since reach
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

    def summary(self) -> str:
        return (
            f"PropertyGraph {self.name!r}: {self.num_vertices:,} vertices, "
            f"{self.num_edges:,} edges, {len(self.labels())} labels"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.summary()}>"
