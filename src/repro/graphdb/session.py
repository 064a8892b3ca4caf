"""Execution context: instrumented access to a property graph.

Every read the query executor performs goes through a
:class:`GraphSession`, which counts the work (edge traversals, vertex and
property reads) and simulates page I/O through an LRU cache sized by the
backend profile.  Vertices live on property pages, adjacency lists on
adjacency pages; ids are clustered onto pages in insertion order, which
approximates how both Neo4j record stores and JanusGraph's adjacency
layout behave.

The reads are the fused paths the streaming executor uses:
:meth:`GraphSession.expand_pairs` (raw (eid, neighbor) pairs from the
graph's adjacency, frozen or not), :meth:`GraphSession.accept_vertex`
(label + property check in one call, reading property columns
directly), :meth:`GraphSession.property_reader` (one property per
call) and :meth:`GraphSession.edge_between` (the join check: a scan of
the source's adjacency for the far endpoint).
:meth:`GraphSession.scan_rows` streams an entire label (or
all-vertices) scan with a folded equality predicate as one columnar
pass - ``zip`` over the vid list and the property column instead of a
per-vertex dict probe - while staying lazy so ``LIMIT`` still
short-circuits.  The batch path charges the pages of a whole vid
array at once through :meth:`GraphSession.charge_pages`, the one place
that knows the page geometry.

A session is the read and charge model only: it owns no store.  A
durable graph is opened through :func:`repro.graphdb.api.connect`,
whose :class:`~repro.graphdb.api.database.Database` is the one owner
of a :class:`~repro.graphdb.storage.GraphStore`, and whose sessions
wrap a :class:`GraphSession` over the store's graph.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import GraphError
from repro.graphdb.backends import BackendProfile, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import ExecutionMetrics, LruPageCache


#: Bound on the vid bytes of the page traces one session keeps.  The
#: paper's sessions keep 9-15 traces and at most ~52 KB.
TRACE_KEY_BYTES = 1 << 20


class _PageTrace:
    """What settling a charge in the page LRU needs from a vid array:
    its same-page runs (one touch each; the rest of a run, ``repeats``,
    hits), its distinct pages latest last touch first, and - built on
    the first call of :meth:`first`, when a miss can evict - its
    distinct pages in first-touch order."""

    __slots__ = ("runs", "repeats", "last", "_first")

    def __init__(self, pages: np.ndarray, dedup: bool):
        starts = np.ones(len(pages), dtype=bool)
        np.not_equal(pages[1:], pages[:-1], out=starts[1:])
        runs = pages[starts].tolist()
        self.runs = runs
        self.repeats = 0 if dedup else len(pages) - len(runs)
        self.last = dict.fromkeys(reversed(runs))
        self._first: dict[int, None] | None = None

    def first(self) -> dict[int, None]:
        if self._first is None:
            self._first = dict.fromkeys(self.runs)
        return self._first


class GraphSession:
    """Instrumented read API over a :class:`PropertyGraph`."""

    def __init__(
        self,
        graph: PropertyGraph,
        profile: BackendProfile = NEO4J_LIKE,
        cache: LruPageCache | None = None,
    ):
        self.graph = graph
        self.profile = profile
        # ``is None``, not truthiness: an empty cache has length 0.
        self.cache = (
            LruPageCache(profile.cache_pages) if cache is None else cache
        )
        self.metrics = ExecutionMetrics()
        self._vertices_per_page = max(1, profile.vertices_per_page)
        self._adjacency_per_page = max(1, profile.adjacency_per_page)
        # charge_pages' memo: (page size, dedup, dtype, vid bytes) ->
        # _PageTrace, oldest first; _trace_bytes sums the vid bytes.
        self._traces: dict[tuple, _PageTrace] = {}
        self._trace_bytes = 0

    # ------------------------------------------------------------------
    # Page simulation
    # ------------------------------------------------------------------
    def _touch_page(self, page: tuple) -> None:
        """Record one page access as a cache hit or miss."""
        if self.cache.touch(page):
            self.metrics.page_hits += 1
        else:
            self.metrics.page_misses += 1

    def charge_pages(self, kind: str, vids: np.ndarray, dedup: bool) -> None:
        """Bulk page charging for the batch path: the touches of the
        vertex (``kind="v"``) or adjacency (``"a"``) pages of ``vids``,
        accessed in order, settled by :meth:`LruPageCache.touch_many` -
        the hit/miss split and the recency order of one
        :meth:`_touch_page` per touch at every cache size, for
        O(distinct pages) Python work.  ``dedup=False`` is the per-row
        flavor (``accept_vertex`` / ``property_reader`` /
        ``expand_pairs``): every row touches its page.  ``dedup=True``
        is the :meth:`scan_rows` flavor, which skips a row on the same
        page as the row before it: only run starts touch.

        The settle reads ``vids`` through a :class:`_PageTrace`, a pure
        function of the vids' bytes, the page size and ``dedup``, so
        the session keeps the traces it builds: charging an array it
        has charged before costs one ``tobytes`` and one dict lookup.
        The kept traces' key bytes stay under :data:`TRACE_KEY_BYTES`,
        oldest evicted first, and an array larger than that is traced
        and dropped.
        """
        if not len(vids):
            return
        per_page = (
            self._vertices_per_page if kind == "v"
            else self._adjacency_per_page
        )
        if vids.nbytes > TRACE_KEY_BYTES:
            trace = _PageTrace(vids // per_page, dedup)
        else:
            key = (per_page, dedup, vids.dtype, vids.tobytes())
            traces = self._traces
            trace = traces.get(key)
            if trace is None:
                trace = _PageTrace(vids // per_page, dedup)
                self._trace_bytes += vids.nbytes
                while self._trace_bytes > TRACE_KEY_BYTES:
                    oldest = next(iter(traces))
                    self._trace_bytes -= len(oldest[3])
                    del traces[oldest]
                traces[key] = trace
        cache = self.cache
        runs = trace.runs
        misses = cache.touch_many(kind, runs, trace.last, trace.first)
        if not cache.capacity:
            # A repeat touches the page touched just before it: on a
            # cache with room for a page it hits and moves nothing.
            misses += trace.repeats
        metrics = self.metrics
        metrics.page_misses += misses
        metrics.page_hits += len(runs) + trace.repeats - misses

    # ------------------------------------------------------------------
    # Instrumented reads
    # ------------------------------------------------------------------
    def property_reader(self, name: str):
        """A fused per-query closure for reading one vertex property.

        Resolves the property key's symbol id once and binds every
        hot attribute (metrics, page geometry, column maps) into the
        closure, so the executor's compiled projections pay one call
        per row.  Safe to hold for one execution: symbol ids are
        append-only and a query never mutates the graph.  Each read
        counts one property read and touches the vertex's page.
        """
        graph = self.graph
        sid = graph._symbols.sid(name)
        v_tid = graph._v_tid
        v_row = graph._v_row
        tables = graph._tables
        metrics = self.metrics
        per_page = self._vertices_per_page
        touch = self._touch_page

        def read(vid: int) -> object:
            metrics.property_reads += 1
            touch(("v", vid // per_page))
            tid = v_tid[vid]
            if tid < 0:
                raise GraphError(f"unknown vertex {vid}")
            column = tables[tid].columns.get(sid)
            if column is None:
                return None
            row = v_row[vid]
            mask = column.mask
            if row >= len(mask) or not mask[row]:
                return None
            return column.data[row]

        if sid is None:
            # Key never interned: every read is None (same page/metric
            # accounting as a probing read).
            def read_absent(vid: int) -> object:
                metrics.property_reads += 1
                touch(("v", vid // per_page))
                if v_tid[vid] < 0:
                    raise GraphError(f"unknown vertex {vid}")
                return None

            return read_absent
        return read

    def read_edge_property(self, eid: int, name: str) -> object:
        self.metrics.property_reads += 1
        graph = self.graph
        labels = graph._e_label
        if not (0 <= eid < len(labels)) or labels[eid] < 0:
            raise GraphError(f"unknown edge {eid}")
        props = graph._e_props.get(eid)
        if props is None:
            return None
        return props.get(name)

    def expand_pairs(
        self, vid: int, labels: tuple[str, ...], direction: str
    ) -> list[tuple[int, int]]:
        """(eid, neighbor) pairs of ``vid``; one page touch per expand.

        The fast path behind pattern expansion, served by the graph's
        one adjacency (base CSR plus tail, see
        :mod:`repro.graphdb.graph`), frozen or not.  Pairs of one type
        ascend by eid; types come in ``labels`` order or, untyped, in
        order of the vertex's first eid of each type - in the frozen
        ``type_rank`` order while the graph's arrays are frozen, which
        is the order the batch path emits.
        """
        self._touch_page(("a", vid // self._adjacency_per_page))
        graph = self.graph
        arrays = graph._arrays
        if not labels and arrays is not None and arrays.type_rank:
            labels = tuple(arrays.type_rank)  # in rank order
        read = graph._eids
        sides = ((0, graph._e_dst, "in"), (1, graph._e_src, "out"))
        pairs: list[tuple[int, int]] = []
        for d, far, skip in sides:
            if direction == skip:
                continue
            for label in labels or (None,):
                pairs += [(eid, far[eid]) for eid in read(vid, d, label)]
        self.metrics.edge_traversals += len(pairs)
        return pairs

    def accept_vertex(
        self,
        vid: int,
        labels: frozenset[str] | None,
        props: tuple[tuple[str, object], ...],
    ) -> bool:
        """Fused label/property acceptance check for one vertex.

        Counts one vertex read when labels are checked and one property
        read per checked property, each with a touch of the vertex's
        page.  Reads go straight to the label-set table and its
        columns.
        """
        metrics = self.metrics
        touch_page = self._touch_page
        page = ("v", vid // self._vertices_per_page)
        graph = self.graph
        try:
            tid = graph._v_tid[vid]
        except IndexError:
            raise GraphError(f"unknown vertex {vid}") from None
        if tid < 0:
            raise GraphError(f"unknown vertex {vid}")
        table = graph._tables[tid]
        if labels is not None:
            metrics.vertex_reads += 1
            touch_page(page)
            if not labels <= table.labels:
                return False
        if props:
            row = graph._v_row[vid]
            sid = graph._symbols.sid
            columns = table.columns
            for prop, value in props:
                metrics.property_reads += 1
                touch_page(page)
                column = columns.get(sid(prop))
                if column is None:
                    if value is not None:
                        return False
                    continue
                mask = column.mask
                stored = (
                    column.data[row]
                    if row < len(mask) and mask[row] else None
                )
                if stored != value:
                    return False
        return True

    def scan_rows(
        self,
        label: str | None,
        check_labels: frozenset[str] | None,
        check_props: tuple[tuple[str, object], ...],
    ) -> Iterator[int]:
        """Columnar label/all scan with inline residual checks.

        Streams the vids that pass - lazily, so ``LIMIT`` stops the
        scan early - by iterating each matching label-set table's vid
        list zipped against the checked property's column.  Residual
        *label* checks collapse to a per-table subset test (every row
        of a table shares one label set); the first property check
        rides the column zip; any further properties fall back to
        per-row column reads.  Work accounting mirrors the per-vertex
        path: one vertex read per examined row when labels are
        checked, one property read per property actually examined, and
        one page touch per distinct vertex page (vids within a table
        ascend, so consecutive rows share pages).
        """
        graph = self.graph
        self.metrics.index_lookups += 1
        sym = graph._symbols
        label_sid = None
        if label is not None:
            label_sid = sym.sid(label)
            if label_sid is None:
                return
        count_labels = check_labels is not None
        primary = check_props[0] if check_props else None
        rest = check_props[1:] if len(check_props) > 1 else ()
        rest_sids = tuple((sym.sid(p), v) for p, v in rest)
        metrics = self.metrics
        per_page = self._vertices_per_page
        touch = self._touch_page
        for table in graph._tables:
            if table.live == 0:
                continue
            if label_sid is not None and label_sid not in table.label_sids:
                continue
            if check_labels is not None and not check_labels <= table.labels:
                # Whole table rejected by its label set: the label
                # check still "examined" each live row once.
                metrics.vertex_reads += table.live
                continue
            vids = table.vids
            examined = 0
            last_page = -1
            try:
                if primary is None:
                    for vid in vids:
                        if vid < 0:
                            continue
                        examined += 1
                        page = vid // per_page
                        if page != last_page:
                            touch(("v", page))
                            last_page = page
                        yield vid
                    continue
                name, value = primary
                name_sid = sym.sid(name)
                column = (
                    table.columns.get(name_sid)
                    if name_sid is not None else None
                )
                if column is None:
                    # Property never set on this table: only a None
                    # target can match (absent reads as None).
                    if value is not None:
                        metrics.property_reads += table.live
                        continue
                    mask: bytes = b"\x00" * len(vids)
                    data: list = [None] * len(vids)
                else:
                    mask = column.mask
                    data = column.data
                matches_none = value is None
                if matches_none and len(mask) < len(vids):
                    # Columns pad lazily: rows past the mask's end are
                    # absent, which a None target must still match -
                    # zip would otherwise silently truncate them away.
                    short = len(vids) - len(mask)
                    mask = bytes(mask) + b"\x00" * short
                    data = list(data) + [None] * short
                for vid, present, stored in zip(vids, mask, data):
                    if vid < 0:
                        continue
                    examined += 1
                    if present:
                        if stored != value:
                            continue
                    elif not matches_none:
                        continue
                    page = vid // per_page
                    if page != last_page:
                        touch(("v", page))
                        last_page = page
                    if rest_sids:
                        row = graph._v_row[vid]
                        if any(
                            table.get_prop(row, sid) != want
                            for sid, want in rest_sids
                        ):
                            continue
                    yield vid
                # Live rows past the column's end are absent: examined
                # like the rest and (the target is not None, or the
                # column would have been padded) never a match.
                examined += sum(vid >= 0 for vid in vids[len(mask):])
            finally:
                # Charged per examined row: one vertex read when the
                # label set was checked, one property read per declared
                # property (residual props are charged even for rows
                # the primary check pruned - acceptable for the
                # simulated model and monotone under LIMIT).
                if count_labels:
                    metrics.vertex_reads += examined
                metrics.property_reads += examined * len(check_props)

    def edge_between(
        self,
        src: int,
        dst: int,
        labels: tuple[str, ...],
        direction: str,
    ) -> int | None:
        """Join-check probe: the smallest matching eid, or None.

        A typed check answers for the first of ``labels`` with a match
        (:meth:`PropertyGraph.first_edge_between` scans ``src``'s
        edges).  Costs one adjacency-page touch and one edge
        traversal: the executor's join-check step uses this instead of
        expanding and re-counting the full adjacency list of ``src``.
        """
        self._touch_page(("a", src // self._adjacency_per_page))
        self.metrics.edge_traversals += 1
        for label in labels or (None,):
            eid = self.graph.first_edge_between(src, dst, label, direction)
            if eid is not None:
                return eid
        return None

    def label_scan(self, label: str) -> list[int]:
        self.metrics.index_lookups += 1
        return self.graph.vertices_with_label(label)

    def index_lookup(self, label: str, prop: str, value: object) -> list[int]:
        self.metrics.index_lookups += 1
        return self.graph.lookup_property(label, prop, value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset_metrics(self) -> ExecutionMetrics:
        """Return the collected metrics and start a fresh counter."""
        finished = self.metrics
        self.metrics = ExecutionMetrics()
        return finished
