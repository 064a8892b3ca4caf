"""The arrays the batch path reads of one graph epoch.

A :class:`PropertyGraph` owns one :class:`GraphArrays` at a time
(:meth:`PropertyGraph.arrays`) and drops it wherever it advances its
mutation epoch, so an arrays object stands for one epoch: a caller that
still holds the same object is reading the graph as it is, and nothing
compares epochs.  The object holds numpy projections of the columnar
state, each built on its first read - a property key's values scattered
into vid-indexed arrays (:meth:`GraphArrays.column`; an edge property's
into eid-indexed ones, :meth:`GraphArrays.edge_column`), the live vids
of a label, of a table and of the whole graph, and vid -> table id -
and, once :meth:`PropertyGraph.freeze` has frozen it, the CSR
adjacency.

A column carries two further projections, each built on its first read
over the present slots only (:meth:`_Column.codes`,
:meth:`_Column.weights`): a dense int code per slot, equal for two
slots exactly when a grouping dict would merge the values they read,
and what a flattening ``count`` keeps of each value.  The batch path
groups and counts over these instead of reading and hashing values, and
the planner's equality estimates count them
(:meth:`~repro.graphdb.statistics.GraphStatistics.eq_estimate`): one
coding decides, for both, when two values are one key.
Every projection is published by one assignment, so concurrent readers
of one epoch at worst build one twice.

Freezing builds, for every edge type, compressed-sparse-row adjacency
in both directions (:class:`Csr`) and the order of the types, nothing
else.  The batch path's expand reads those arrays through
:meth:`Csr.span`.  The same build (:func:`build_csr`) is the graph's
adjacency *base*, which outlives the epoch: per-element reads, the
tuple executor's included, read one vid's segment through
:meth:`Csr.segment` and add the edges appended since (see
:mod:`repro.graphdb.graph`).  A type's per-vid index covers only its
*anchor range* in that direction, the smallest to the largest vid with
such an edge: loaders create vertices concept by concept, so each
type's anchors sit in one narrow vid range and the index costs
O(range), not O(vid slots).
The build is one stable sort of the live eids on (edge type, anchor
vid) per direction and one ``bincount`` per type over its run of the
sorted anchors: O(E log E + sum of ranges), no Python loop over vid
slots or edges.  Freezing is a deliberate act for read-heavy phases,
never an implicit per-query cost.

Edge types rank by their first live eid graph-wide: the key order of
the per-direction dicts, in which batch expansion concatenates an
untyped hop's types, and :attr:`GraphArrays.type_rank`, in which the
tuple path's untyped expand reads a vertex's types on a frozen graph -
so both emit pairs in one order.  Unfrozen, a per-element read orders
a vertex's types by its first edge at that vertex
(``test_freeze.py::test_untyped_type_order_is_global_when_frozen``).
Within a (vertex, edge type) segment pairs ascend by edge id, base and
tail alike, so a *typed* expansion reads the same frozen or not.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.graphdb.columnar import KIND_FLOAT, KIND_INT
from repro.graphdb.statistics import hashable


class Csr:
    """One direction of one edge type: read-only int64 arrays.

    ``neighbors`` and ``eids`` are flat, grouped by anchor vid and
    eid-ordered within a vid.  ``starts`` / ``counts`` index them over
    the anchor range ``[lo, hi]`` only, with one zero-count pad at each
    end: entry ``vid - base`` (``base = lo - 1``) is ``vid``'s segment.
    Nothing outside this module indexes them; :meth:`span` and
    :meth:`segment` do.
    """

    __slots__ = ("base", "starts", "counts", "neighbors", "eids", "_lists")

    def __init__(self, anchors, neighbors, eids):
        # ``anchors``: this type's run of the sorted anchor vids.
        lo = int(anchors[0])
        self.base = lo - 1
        self.counts = np.zeros(int(anchors[-1]) - lo + 3, dtype=np.int64)
        self.counts[1:-1] = np.bincount(anchors - lo)
        self.starts = np.zeros_like(self.counts)
        np.cumsum(self.counts[:-1], out=self.starts[1:])
        self.neighbors = neighbors
        self.eids = eids
        for column in (self.starts, self.counts, neighbors, eids):
            column.flags.writeable = False
        #: ``(bounds, eids)`` as lists for :meth:`segment`, built on its
        #: first call: segment ``i`` is ``eids[bounds[i]:bounds[i + 1]]``.
        self._lists: tuple[list[int], list[int]] | None = None

    def span(self, vids):
        """Per vid, the (starts, counts) of its segment in ``neighbors``
        / ``eids``.  A vid outside the anchor range clips onto a pad
        and reads as zero edges - no branch, no mask.  ``take`` with
        ``mode="clip"`` costs what a dense ``offsets[vids]`` did;
        ``np.clip`` first, or one array read at ``i`` and ``i + 1``,
        cost more per lookup."""
        i = vids - self.base
        return (
            self.starts.take(i, mode="clip"),
            self.counts.take(i, mode="clip"),
        )

    def segment(self, vid: int) -> list[int]:
        """One vid's eids, ascending: the per-element read, ``[]``
        outside the anchor range.  It slices list copies of the
        segment bounds and eids, built on the first read (one
        assignment), since a numpy scalar read or slice costs more
        than the few eids it returns."""
        lists = self._lists
        if lists is None:
            bounds = np.append(self.starts, self.starts[-1] + self.counts[-1])
            lists = self._lists = bounds.tolist(), self.eids.tolist()
        bounds, eids = lists
        i = vid - self.base
        if 0 <= i < len(bounds) - 1:
            return eids[bounds[i]:bounds[i + 1]]
        return []


def build_csr(
    graph,
) -> tuple[dict[int, Csr], dict[int, Csr], dict[str, int]]:
    """The CSR of ``graph``'s live edges as they stand: per direction,
    edge-type sid -> :class:`Csr` in type-rank order, and each type
    name's rank.  :meth:`PropertyGraph.freeze` installs it in the
    epoch's arrays; the graph's adjacency base is the same build."""
    out: dict[int, Csr] = {}
    into: dict[int, Csr] = {}
    labels = np.array(graph._e_label, dtype=np.int64)
    live = np.flatnonzero(labels >= 0)
    if not len(live):
        return out, into, {}
    labels = labels[live]
    # Edge types rank by their first live eid: the key order of the
    # per-direction dicts, which untyped expansion iterates.
    sids, first = np.unique(labels, return_index=True)
    sids = sids[np.argsort(first)]
    rank_of = np.empty(int(sids.max()) + 1, dtype=np.int64)
    rank_of[sids] = np.arange(len(sids))
    ranks = rank_of[labels]
    cuts = np.cumsum(np.bincount(ranks))[:-1]  # where each type ends
    sids = sids.tolist()
    names = graph._symbols.names()
    type_rank = {names[sid]: rank for rank, sid in enumerate(sids)}
    src = np.array(graph._e_src, dtype=np.int64)[live]
    dst = np.array(graph._e_dst, dtype=np.int64)[live]
    stride = len(graph._v_tid) + 1
    for anchors, fars, csrs in ((src, dst, out), (dst, src, into)):
        # Stable sort on (type, anchor): live eids ascend, so each
        # (type, vid) run ends up eid-ordered.
        order = np.argsort(ranks * stride + anchors, kind="stable")
        runs = zip(
            np.split(anchors[order], cuts),
            np.split(fars[order], cuts),
            np.split(live[order], cuts),
        )
        for sid, run in zip(sids, runs):
            csrs[sid] = Csr(*run)
    return out, into, type_rank


class _Column:
    """One property key's values scattered into id-indexed arrays.

    ``kind`` is ``"int64"``/``"float64"`` (typed values + presence),
    ``"object"``/``"mixed"`` (``values`` has dtype ``object`` and
    holds the stored objects themselves, ``None`` where absent -
    readable, never compared or added; ``present`` is already the
    *reads-non-null* mask, so a stored ``None`` counts as absent,
    exactly as every read path reports it), or ``"absent"`` (key
    never stored; reads are None everywhere).  ``fresh`` holds the
    slots of a ``"mixed"`` column that a float64 table stores: a read
    of one makes a new float, as every read of a ``"float64"`` column
    does.
    """

    __slots__ = (
        "kind", "values", "present", "has_tids", "vmin", "vmax", "fresh",
        "_coding", "_weights",
    )

    def __init__(
        self, kind, values, present, has_tids, vmin, vmax, fresh=None
    ):
        self.kind = kind
        self.values = values
        self.present = present
        #: Table ids that materialized a column for this key (drives
        #: scan_rows' column-missing charging shortcut).
        self.has_tids = has_tids
        self.vmin = vmin
        self.vmax = vmax
        self.fresh = fresh
        self._coding = None
        self._weights = None

    def codes(self) -> np.ndarray:
        """Slot -> an int64 group code, built on first use.

        Two slots share a code >= 0 exactly when the dict a grouping
        keys by (:func:`~repro.graphdb.statistics.hashable` of the
        value read) would merge their reads: ``0`` for every slot that
        reads None, ``True``, ``1`` and ``1.0`` as one, a stored NaN
        object as itself.  ``-1`` marks a slot whose every read is a
        new NaN float, which equals no earlier key: each row reading
        it is a group of its own.  Raises ``TypeError`` on a value no
        dict can key, as the grouping dict would."""
        return self.coding()[0]

    def coding(self) -> tuple[np.ndarray, dict | np.ndarray,
                              np.ndarray | None]:
        """``(codes, index, lists)``, built together on first use:
        :meth:`codes`; what a hashable value's code is looked up in (by
        :func:`~repro.graphdb.statistics.value_code`) - the value -> code
        dict (a list's code is its tuple form's), or
        for an int or float column its sorted distinct values, code
        ``i + 1`` at ``index[i]``; and the bool mask of the slots
        holding a list, None where none does.  Raises as :meth:`codes`
        does."""
        coding = self._coding
        if coding is None:
            coding = self._coding = self._build_codes()
        return coding

    def _build_codes(self):
        codes = np.zeros(len(self.present), dtype=np.int64)
        slots = np.flatnonzero(self.present)
        if not len(slots):
            return codes, {}, None
        values = self.values[slots]
        if self.kind == KIND_INT or self.kind == KIND_FLOAT:
            if self.kind == KIND_FLOAT:
                # Coded apart first: np.unique's equal_nan would merge
                # the NaNs into one code.
                nan = np.isnan(values)
                codes[slots[nan]] = -1
                slots, values = slots[~nan], values[~nan]
            distinct, inverse = np.unique(values, return_inverse=True)
            codes[slots] = inverse.reshape(-1) + 1
            return codes, distinct, None
        keys = values.tolist()
        lists = None
        try:
            first = dict.fromkeys(keys)  # the grouping dict's merges
        except TypeError:  # a list: keyed by its hashable form
            lists = np.zeros(len(codes), dtype=bool)
            lists[slots] = [type(key) is list for key in keys]
            keys = list(map(hashable, keys))
            first = dict.fromkeys(keys)
        index = dict(zip(first, range(1, len(first) + 1)))
        codes[slots] = np.fromiter(
            map(index.__getitem__, keys), dtype=np.int64, count=len(keys)
        )
        if self.fresh is not None:
            floats = self.values[self.fresh].astype(np.float64)
            codes[self.fresh[np.isnan(floats)]] = -1
        return codes, index, lists

    def weights(self) -> np.ndarray:
        """Slot -> what a flattening ``count`` keeps of its value:
        ``len`` of a list, 1 of any other non-null value, 0 of a null
        (int64, or the bool ``present`` where no slot holds a list)."""
        weights = self._weights
        if weights is None:
            weights = self.present
            if self.kind == "object" or self.kind == "mixed":
                slots = np.flatnonzero(self.present)
                kept = self.values[slots].tolist()
                weights = np.zeros(len(self.present), dtype=np.int64)
                weights[slots] = (
                    list(map(len, kept)) if set(map(type, kept)) == {list}
                    else [len(v) if isinstance(v, list) else 1 for v in kept]
                )
            self._weights = weights
        return weights


class GraphArrays:
    """Numpy projections of one graph epoch, built per consumer."""

    def __init__(self, graph):
        # Weak: the graph caches its arrays, and a cycle would leave
        # both to the cyclic collector.
        self._graph = weakref.ref(graph)
        self.nslots = len(graph._v_tid)
        self._v_tid = None
        self._columns: dict[str, _Column] = {}
        self._edge_columns: dict[str, _Column] = {}
        self._label_vids: dict[str, np.ndarray] = {}
        self._table_vids: dict[int, np.ndarray] = {}
        self._all_vids = None
        #: Per direction, edge-type sid -> Csr, in type-rank order;
        #: None until frozen.
        self._out: dict[int, Csr] | None = None
        self._in: dict[int, Csr] | None = None
        #: Edge-type name -> rank, the key order of ``_out`` / ``_in``;
        #: None until frozen.
        self.type_rank: dict[str, int] | None = None

    @property
    def graph(self):
        """The graph these arrays project."""
        return self._graph()

    # -- CSR adjacency (installed by PropertyGraph.freeze) -------------
    def csr_nbytes(self) -> tuple[int, int]:
        """(index, payload) bytes of the frozen CSR, both directions:
        ``starts`` + ``counts``, and ``neighbors`` + ``eids``."""
        index = payload = 0
        for csrs in (self._out, self._in):
            for csr in csrs.values():
                index += csr.starts.nbytes + csr.counts.nbytes
                payload += csr.neighbors.nbytes + csr.eids.nbytes
        return index, payload

    # -- columns -------------------------------------------------------
    def column(self, name: str) -> _Column:
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        column = self._build_column(name)
        self._columns[name] = column
        return column

    def _build_column(self, name: str) -> _Column:
        graph = self.graph
        sid = graph._symbols.sid(name)
        parts = []
        kinds = set()
        has_tids = set()
        if sid is not None:
            for tid, table in enumerate(graph._tables):
                col = table.columns.get(sid)
                if col is None:
                    continue
                has_tids.add(tid)
                kinds.add(col.kind)
                parts.append((tid, table, col))
        if not parts:
            return _Column(
                "absent", None, np.zeros(self.nslots, dtype=bool),
                has_tids, None, None,
            )
        if kinds == {KIND_INT}:
            kind, dtype = KIND_INT, np.int64
        elif kinds == {KIND_FLOAT}:
            kind, dtype = KIND_FLOAT, np.float64
        else:
            kind, dtype = ("object" if len(kinds) == 1 else "mixed"), object
        present = np.zeros(self.nslots, dtype=bool)
        # An object array starts out all-None: absent reads as None.
        values = (
            np.empty(self.nslots, dtype=object) if dtype is object
            else np.zeros(self.nslots, dtype=dtype)
        )
        fresh = []
        for tid, table, col in parts:
            vids = np.asarray(table.vids, dtype=np.int64)
            mask = np.zeros(len(vids), dtype=bool)
            if col.mask:
                nn = col.notnull_mask()
                mask[: len(nn)] = np.frombuffer(
                    bytes(nn), dtype=np.uint8
                ).astype(bool)
            mask &= vids >= 0
            rows = np.flatnonzero(mask)
            if not len(rows):
                continue
            targets = vids[rows]
            present[targets] = True
            if kind == "mixed" and col.kind == KIND_FLOAT:
                fresh.append(targets)
            if dtype is object:
                # Element by element: a list-valued property stays
                # one element instead of becoming an array axis.
                data = np.fromiter(
                    col.data, dtype=object, count=len(col.data)
                )
            else:
                # Copy, not frombuffer (nor np.asarray: the same view),
                # as for the graph's id maps and edge columns in _build
                # and v_tid: while a view exports a growable array's
                # buffer, its next append, or a rollback's truncation
                # of its tail, raises BufferError.
                data = np.array(col.data, dtype=dtype)
            values[targets] = data[rows]
        vmin = vmax = None
        if dtype is not object and present.any():
            selected = values[present]
            vmin = selected.min().item()
            vmax = selected.max().item()
        return _Column(
            kind, values, present, has_tids, vmin, vmax,
            np.concatenate(fresh) if fresh else None,
        )

    def edge_column(self, name: str) -> _Column:
        """One edge property key's values scattered into eid-indexed
        arrays: an ``"object"`` column (the stored objects, ``present``
        the reads-non-null mask), from one pass over the edge property
        maps."""
        cached = self._edge_columns.get(name)
        if cached is not None:
            return cached
        graph = self.graph
        eids, stored = [], []
        for eid, props in graph._e_props.items():
            value = props.get(name)
            if value is not None:
                eids.append(eid)
                stored.append(value)
        values = np.empty(len(graph._e_label), dtype=object)
        present = np.zeros(len(values), dtype=bool)
        present[eids] = True
        values[eids] = np.fromiter(stored, dtype=object, count=len(stored))
        column = _Column("object", values, present, set(), None, None)
        self._edge_columns[name] = column
        return column

    # -- vid sets ------------------------------------------------------
    def v_tid(self):
        """vid -> table id (every row of a table shares one label set)."""
        if self._v_tid is None:
            self._v_tid = np.array(self.graph._v_tid, dtype=np.int64)
        return self._v_tid

    def label_vids(self, label: str):
        cached = self._label_vids.get(label)
        if cached is None:
            cached = np.asarray(
                self.graph.vertices_with_label(label), dtype=np.int64
            )
            self._label_vids[label] = cached
        return cached

    def all_vids(self):
        if self._all_vids is None:
            self._all_vids = np.flatnonzero(self.v_tid() >= 0)
        return self._all_vids

    def table_vids(self, tid: int):
        """Live vids of one table, in row (insertion) order."""
        cached = self._table_vids.get(tid)
        if cached is None:
            vids = np.asarray(
                self.graph._tables[tid].vids, dtype=np.int64
            )
            cached = vids[vids >= 0]
            self._table_vids[tid] = cached
        return cached
