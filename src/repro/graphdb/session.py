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
that knows the page geometry, by way of a :class:`PageRun` per run of
a compiled pipeline, which keeps the pipeline's page traces by call
ordinal and settles a repeat run's calls from them, merged.

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


#: Bound on the page touches (same-page runs) the kept traces of one
#: compiled pipeline hold; a pipeline whose runs charge more re-traces
#: every run and keeps nothing.  A paper op's pipeline charges at most
#: a few thousand.
TRACE_PAGES = 1 << 14


class _PageTrace:
    """What settling page touches in the LRU needs from them: the keys
    of their same-page runs, in order (one touch each; the rest of a
    run, ``repeats``, hits), the distinct keys latest last touch first,
    and - built on the first call of :meth:`first`, when a miss can
    evict - the distinct keys in first-touch order."""

    __slots__ = ("runs", "repeats", "last", "_first")

    def __init__(self, runs: list[int], repeats: int):
        self.runs = runs
        self.repeats = repeats
        self.last = dict.fromkeys(reversed(runs))
        self._first: dict[int, None] | None = None

    @classmethod
    def of(cls, keys: np.ndarray, dedup: bool) -> _PageTrace:
        """The trace of one charge's page keys, in access order:
        ``dedup`` touches run starts only, else every key."""
        starts = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        runs = keys[starts].tolist()
        return cls(runs, 0 if dedup else len(keys) - len(runs))

    def first(self) -> dict[int, None]:
        if self._first is None:
            self._first = dict.fromkeys(self.runs)
        return self._first


_NO_PAGES = _PageTrace([], 0)


class PageTraces:
    """What a compiled pipeline keeps of its page charges: the per-call
    traces of its last complete run, by call ordinal (``kept``, None
    until a run completes).  A pipeline is a pure function of its
    plan, arrays and parameters, so its k-th charge is the same on
    every run; only the page geometry, a session's, is not, and
    ``kept`` names it.  Runs read ``kept`` once and replace it by one
    assignment, so concurrent runs never see a partial recording."""

    __slots__ = ("kept",)

    def __init__(self):
        self.kept: _Recording | None = None


class _Recording:
    """One complete run's charges: ``traces[k]`` is call ``k``'s;
    ``cuts`` the call counts at which the run yielded rows."""

    __slots__ = ("geometry", "traces", "cuts", "plans")

    def __init__(self, geometry, traces, cuts):
        self.geometry = geometry
        self.traces = traces
        self.cuts = frozenset(cuts)
        #: cache capacity -> settle units (see :meth:`units`).
        self.plans: dict[int, list[tuple[int, _PageTrace]]] = {}

    def units(self, capacity: int) -> list[tuple[int, _PageTrace]]:
        """``(stop, trace)`` per settle: the calls up to ``stop``
        since the unit before, as one trace.  Consecutive calls merge
        while their distinct pages fit ``capacity``, so the merged
        settle takes :meth:`LruPageCache.touch_many`'s two passes, and
        never across a cut, so no charge waits while rows are out; a
        call that does not fit alone settles alone."""
        plan = self.plans.get(capacity)
        if plan is not None:
            return plan
        traces = self.traces
        cuts = self.cuts
        plan = []
        start = 0
        while start < len(traces):
            stop = start + 1
            union = set(traces[start].last)
            while stop < len(traces) and stop not in cuts:
                wider = union.union(traces[stop].last)
                if len(wider) > capacity:
                    break
                union = wider
                stop += 1
            group = traces[start:stop]
            trace = group[0] if len(group) == 1 else _PageTrace(
                [key for t in group for key in t.runs],
                sum(t.repeats for t in group),
            )
            plan.append((stop, trace))
            start = stop
        self.plans[capacity] = plan
        return plan


#: The unit a replay waits for once its plan is spent: no call count
#: reaches -1.
_SPENT = (-1, _NO_PAGES)


class PageRun:
    """One run of a compiled pipeline, as its kernels see the session:
    ``metrics`` and ``charge_pages``.  The first run over a page
    geometry records every call's trace and settles it at once; a
    complete recording is kept on the pipeline's :class:`PageTraces`,
    and later runs settle call ``k`` from it by ordinal - the vids are
    not read - merged into the units :meth:`_Recording.units` plans.
    A unit never spans a yield, and :meth:`settled` settles what an
    error or a closed cursor leaves of one, so a run stopped,
    abandoned or interleaved with another leaves the cache as
    per-touch charging would."""

    __slots__ = (
        "session", "charge_pages", "_pages", "_geometry", "_traces",
        "_cuts", "_size", "_plan", "_unit", "_k", "_done",
    )

    def __init__(self, session: GraphSession, pages: PageTraces):
        self.session = session
        self._pages = pages
        self._geometry = geometry = (
            session._vertices_per_page, session._adjacency_per_page,
        )
        kept = pages.kept
        if kept is not None and kept.geometry == geometry:
            self._traces = kept.traces
            self._plan = iter(kept.units(session.cache.capacity))
            self._unit = next(self._plan, _SPENT)
            self._k = self._done = 0
            self.charge_pages = self._replay
        else:
            self._plan = None
            self._traces: list[_PageTrace] | None = []
            self._cuts: list[int] = []
            self._size = 0
            self.charge_pages = self._record

    @property
    def metrics(self) -> ExecutionMetrics:
        return self.session.metrics

    def _record(self, kind: str, vids: np.ndarray, dedup: bool) -> None:
        trace = self.session.charge_pages(kind, vids, dedup)
        traces = self._traces
        if traces is not None:
            self._size += len(trace.runs)
            if self._size > TRACE_PAGES:
                self._traces = None  # too big to keep: keep nothing
            else:
                traces.append(trace)

    def _replay(self, kind: str, vids: np.ndarray, dedup: bool) -> None:
        k = self._k = self._k + 1
        stop, trace = self._unit
        if k == stop:
            self.session._settle(trace)
            self._done = k
            self._unit = next(self._plan, _SPENT)

    def settled(self, chunks):
        """``chunks``, passed through; the calls of a unit cut short
        by an error or a close are settled one by one, and a complete
        recording is kept."""
        recording = self._plan is None
        try:
            for chunk in chunks:
                if recording and self._traces is not None:
                    self._cuts.append(len(self._traces))
                yield chunk
        finally:
            if not recording:
                settle = self.session._settle
                for trace in self._traces[self._done:self._k]:
                    settle(trace)
        if recording and self._traces is not None:
            self._pages.kept = _Recording(
                self._geometry, self._traces, self._cuts
            )


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

    # ------------------------------------------------------------------
    # Page simulation
    # ------------------------------------------------------------------
    def _touch_page(self, page: int) -> None:
        """Record one page access (a key: ``page * 2 + kind``, kind 0
        vertex, 1 adjacency) as a cache hit or miss."""
        if self.cache.touch(page):
            self.metrics.page_hits += 1
        else:
            self.metrics.page_misses += 1

    def charge_pages(
        self, kind: str, vids: np.ndarray, dedup: bool
    ) -> _PageTrace:
        """Bulk page charging: the touches of the vertex (``kind="v"``)
        or adjacency (``"a"``) pages of ``vids``, accessed in order,
        settled by :meth:`LruPageCache.touch_many` - the hit/miss split
        and the recency order of one :meth:`_touch_page` per touch at
        every cache size, for O(distinct pages) Python work.
        ``dedup=False`` is the per-row flavor (``accept_vertex`` /
        ``property_reader`` / ``expand_pairs``): every row touches its
        page.  ``dedup=True`` is the :meth:`scan_rows` flavor, which
        skips a row on the same page as the row before it: only run
        starts touch.  Returns the trace it settled.

        A compiled batch pipeline's kernels charge through the
        :class:`PageRun` of :meth:`page_run`: its first run charges
        each call here and keeps the traces, by call ordinal, on the
        pipeline; a later run settles them from there, merged, and
        reads no vids.
        """
        if not len(vids):
            return _NO_PAGES
        if kind == "v":
            keys = vids // self._vertices_per_page * 2
        else:
            keys = vids // self._adjacency_per_page * 2 + 1
        trace = _PageTrace.of(keys, dedup)
        self._settle(trace)
        return trace

    def _settle(self, trace: _PageTrace) -> None:
        """Charge ``trace``'s touches, in order."""
        cache = self.cache
        misses = cache.touch_many(trace.runs, trace.last, trace.first)
        if not cache.capacity:
            # A repeat touches the page touched just before it: on a
            # cache with room for a page it hits and moves nothing.
            misses += trace.repeats
        metrics = self.metrics
        metrics.page_misses += misses
        metrics.page_hits += len(trace.runs) + trace.repeats - misses

    def page_run(self, pages: PageTraces) -> PageRun:
        """What one run of a compiled pipeline charges, given the
        traces that pipeline keeps."""
        return PageRun(self, pages)

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
            touch(vid // per_page * 2)
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
                touch(vid // per_page * 2)
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
        self._touch_page(vid // self._adjacency_per_page * 2 + 1)
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
                eids = read(vid, d, label)
                pairs += zip(eids, map(far.__getitem__, eids))
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
        page = vid // self._vertices_per_page * 2
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
                            touch(page * 2)
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
                        touch(page * 2)
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
        self._touch_page(src // self._adjacency_per_page * 2 + 1)
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
