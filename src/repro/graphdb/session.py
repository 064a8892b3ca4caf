"""Execution context: instrumented access to a property graph.

Every read the query executor performs goes through a
:class:`GraphSession`, which counts the work (edge traversals, vertex and
property reads) and simulates page I/O through an LRU cache sized by the
backend profile.  Vertices live on property pages, adjacency lists on
adjacency pages; ids are clustered onto pages in insertion order, which
approximates how both Neo4j record stores and JanusGraph's adjacency
layout behave.

The reads are the fused paths the streaming executor uses:
:meth:`GraphSession.expand_pairs` (raw (eid, neighbor) pairs - served
from the graph's frozen CSR view when one is valid, from the mutable
dict adjacency otherwise), :meth:`GraphSession.accept_vertex` (label
+ property check in one call, reading property columns directly),
:meth:`GraphSession.property_reader` (one property per call) and
:meth:`GraphSession.edge_between` (O(1) endpoint-pair join probe).
:meth:`GraphSession.scan_rows` streams an entire label (or
all-vertices) scan with a folded equality predicate as one columnar
pass - ``zip`` over the vid list and the property column instead of a
per-vertex dict probe - while staying lazy so ``LIMIT`` still
short-circuits.

A session is the read and charge model only: it owns no store.  A
durable graph is opened through :func:`repro.graphdb.api.connect`,
whose :class:`~repro.graphdb.api.database.Database` is the one owner
of a :class:`~repro.graphdb.storage.GraphStore`, and whose sessions
wrap a :class:`GraphSession` over the store's graph.
"""

from __future__ import annotations

from typing import Iterator

from repro.exceptions import GraphError
from repro.graphdb.backends import BackendProfile, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import ExecutionMetrics, LruPageCache


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
        #: Edge-label tuple -> interned-sid tuple (symbol ids are
        #: append-only, so entries never go stale; labels the graph
        #: has not seen yet re-resolve on each miss until interned).
        self._label_sids: dict[tuple[str, ...], tuple] = {}

    # ------------------------------------------------------------------
    # Page simulation
    # ------------------------------------------------------------------
    def _touch_page(self, page: tuple) -> None:
        """Record one page access as a cache hit or miss."""
        if self.cache.touch(page):
            self.metrics.page_hits += 1
        else:
            self.metrics.page_misses += 1

    def charge_pages(self, kind: str, pages: list[int], repeats: int) -> None:
        """Bulk page charging for the batch path: one counted touch
        per element of ``pages``, in order, through
        :meth:`LruPageCache.touch_many` - the hit/miss split and the
        recency order of that many :meth:`_touch_page` calls at every
        cache size, for O(distinct pages) Python work.  Readers that
        suppress repeats (:meth:`scan_rows`) pass run starts only and
        ``repeats=0``.

        ``repeats`` counts further touches that each repeat the page
        touched just before them (the rest of a run of same-page rows,
        passed once in ``pages``): on a cache with room for a page such
        a touch hits and moves nothing, on a zero-capacity one it
        misses.
        """
        misses = self.cache.touch_many(kind, pages)
        if not self.cache.capacity:
            misses += repeats
        metrics = self.metrics
        metrics.page_misses += misses
        metrics.page_hits += len(pages) + repeats - misses

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

        The fast path behind pattern expansion.  When the graph holds
        a valid frozen CSR view the pairs come from its per-type
        segments (cut from the CSR arrays the first time a type is
        asked for); otherwise the mutable adjacency dicts serve them
        (buckets store the neighbor id, so no edge record is
        dereferenced either way).
        """
        self._touch_page(("a", vid // self._adjacency_per_page))
        graph = self.graph
        view = graph._view
        if view is not None and view.epoch == graph._epoch:
            if labels:
                sids = self._label_sids.get(labels)
                if sids is None:
                    sid = graph._symbols.sid
                    sids = tuple(sid(label) for label in labels)
                    if None not in sids:
                        self._label_sids[labels] = sids
            else:
                sids = None
            pairs = view.expand_pairs(vid, sids, direction)
            self.metrics.edge_traversals += len(pairs)
            return pairs
        # Derived state: the graph builds the dicts on first need.
        out, into = graph._adjacency or graph._build_adjacency()
        pairs: list[tuple[int, int]] = []
        if direction != "in":
            adjacency = out.get(vid)
            if adjacency:
                self._collect_pairs(adjacency, labels, pairs)
        if direction != "out":
            adjacency = into.get(vid)
            if adjacency:
                self._collect_pairs(adjacency, labels, pairs)
        self.metrics.edge_traversals += len(pairs)
        return pairs

    @staticmethod
    def _collect_pairs(
        adjacency: dict, labels: tuple[str, ...], pairs: list
    ) -> None:
        if labels:
            for label in labels:
                bucket = adjacency.get(label)
                if bucket:
                    pairs.extend(bucket.items())
        else:
            for bucket in adjacency.values():
                pairs.extend(bucket.items())

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
        """O(1) join-check probe: the first matching eid, or None.

        Costs one adjacency-page touch and one edge traversal - the
        executor's join-check step uses this instead of scanning and
        re-counting the full adjacency list of ``src``.
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
