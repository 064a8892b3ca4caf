"""Tests for the instrumented graph session and metrics."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryTimeoutError, ResourceLimitError
from repro.graphdb import session as session_module
from repro.graphdb.api import connect
from repro.graphdb.api import session as api_session
from repro.graphdb.backends import JANUSGRAPH_LIKE, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import ExecutionMetrics, LruPageCache
from repro.graphdb.query import vectorized
from repro.graphdb.query.executor import ExecutionGuard, Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from tests.graphdb.lru_oracle import (
    LoopLruPageCache,
    PerRowSession,
    touch_rows,
)


N = frozenset({"N"})


@pytest.fixture()
def graph():
    g = PropertyGraph()
    for i in range(100):
        g.add_vertex("N", {"x": i})
    for i in range(99):
        g.add_edge(i, i + 1, "next")
    return g


class TestMetrics:
    def test_merge(self):
        a = ExecutionMetrics(edge_traversals=2, rows=1, queries=1)
        b = ExecutionMetrics(edge_traversals=3, vertex_reads=4, queries=1)
        a.merge(b)
        assert a.edge_traversals == 5
        assert a.vertex_reads == 4
        assert a.queries == 2

    def test_as_dict(self):
        d = ExecutionMetrics(page_hits=2).as_dict()
        assert d["page_hits"] == 2
        assert set(d) >= {"edge_traversals", "page_misses", "rows"}


class TestLruCache:
    def test_hit_after_touch(self):
        cache = LruPageCache(2)
        assert not cache.touch(1)
        assert cache.touch(1)

    def test_eviction_order(self):
        cache = LruPageCache(2)
        cache.touch(1)
        cache.touch(2)
        cache.touch(1)     # 1 becomes most recent
        cache.touch(3)     # evicts 2
        assert cache.touch(1)
        assert not cache.touch(2)

    def test_zero_capacity_never_hits(self):
        cache = LruPageCache(0)
        assert not cache.touch(1)
        assert not cache.touch(1)

    def test_clear(self):
        cache = LruPageCache(4)
        cache.touch(1)
        cache.clear()
        assert len(cache) == 0
        assert not cache.touch(1)


def warm(capacity, pages):
    """A cache that has touched the keys ``pages``, in order."""
    cache = LruPageCache(capacity)
    for page in pages:
        cache.touch(page)
    return cache


def order(cache):
    """Resident page keys, least recently used first."""
    return list(cache._pages)


@st.composite
def touch_scripts(draw):
    """``(capacity, steps)``: interleaved single and bulk touches over
    a small alphabet of page keys, so that calls repeat pages,
    straddle the capacity and find their pages half-evicted."""
    capacity = draw(st.sampled_from([0, 1, 2, 4, 7, 96]))
    page = st.integers(0, 2 * draw(st.integers(2, 30)) - 1)
    step = st.one_of(page, st.lists(page, min_size=1, max_size=60))
    return capacity, draw(st.lists(step, min_size=1, max_size=25))


#: ``adjacency_per_page`` differs from ``vertices_per_page``: an array
#: charged as both kinds must not share one trace.
SPLIT_PAGES = replace(NEO4J_LIKE, adjacency_per_page=8)


class TestTouchMany:
    """``touch_many`` is one ``touch`` per page, in order: the same
    misses, the same recency order afterwards."""

    @given(touch_scripts())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_loop(self, script):
        capacity, steps = script
        cache, oracle = LruPageCache(capacity), LoopLruPageCache(capacity)
        for arg in steps:
            if isinstance(arg, list):
                before = list(arg)
                got = cache.touch_many(arg)
                assert arg == before
                want = oracle.touch_many(arg)
            else:
                got = cache.touch(arg)
                want = oracle.touch(arg)
            assert got == want, (capacity, arg)
            assert list(cache._pages) == list(oracle._pages), arg

    def test_victim_of_an_earlier_miss_is_touched_later(self):
        # Page 1 is resident and least recent; the miss on 9 evicts it
        # before the call reaches it, so its own touch misses too (and
        # evicts 2).  Counting the absent pages up front would say 1.
        cache = warm(3, [1, 2, 3])
        assert cache.touch_many([9, 1, 9]) == 2
        assert order(cache) == [3, 1, 9]

    def test_distinct_pages_fill_the_cache_exactly(self):
        cache = warm(3, [1, 2, 3])
        assert cache.touch_many([4, 5, 6, 4, 4]) == 3
        assert order(cache) == [5, 6, 4]
        assert cache.touch_many([6, 5, 6]) == 0
        assert order(cache) == [4, 5, 6]

    def test_one_distinct_page_too_many_thrashes(self):
        # Four distinct pages, three frames: 1 is gone when the call
        # comes back to it - within-call repeats are not hits here.
        cache = warm(3, [1, 2, 3])
        assert cache.touch_many([1, 4, 5, 6, 1]) == 4
        assert order(cache) == [5, 6, 1]

    def test_no_eviction_keeps_untouched_pages_in_place(self):
        cache = warm(8, [1, 2, 3, 4])
        assert cache.touch_many([3, 7, 1, 3]) == 1
        assert order(cache) == [2, 4, 7, 1, 3]

    def test_empty_call(self):
        cache = warm(3, [1, 2])
        assert cache.touch_many([]) == 0
        assert order(cache) == [1, 2]

    def test_zero_capacity_misses_every_touch(self):
        cache = LruPageCache(0)
        assert cache.touch_many([1, 1, 2, 1]) == 4
        assert len(cache) == 0

    def test_kinds_do_not_alias(self):
        # Vertex page 1 is key 2, adjacency page 1 key 3.
        session = GraphSession(PropertyGraph(), SPLIT_PAGES, warm(4, [2]))
        session.charge_pages("a", np.array([8, 9]), False)
        assert session.metrics.page_misses == 1
        assert order(session.cache) == [2, 3]


@st.composite
def charge_scripts(draw):
    """``(profile, capacity, warm-up pages, steps)``.  A step charges a
    vid array - often ascending (long same-page runs), sometimes not -
    or charges an earlier step's array again, as either kind, or makes
    one single-page touch, so a kept trace meets a changed LRU."""
    profile = draw(st.sampled_from([NEO4J_LIKE, SPLIT_PAGES]))
    capacity = draw(st.sampled_from([0, 1, 4, 96]))
    vid = st.integers(0, draw(st.integers(1, 400)))
    vids = st.lists(vid, max_size=80)
    kind = st.sampled_from(["v", "a"])
    step = st.one_of(
        st.tuples(
            st.just("charge"), kind, st.one_of(vids.map(sorted), vids),
            st.booleans(),
        ),
        st.tuples(st.just("again"), kind, st.integers(0, 7), st.booleans()),
        st.tuples(st.just("touch"), kind, st.integers(0, 40)),
    )
    warm_up = draw(st.lists(st.integers(0, 40), max_size=20))
    return profile, capacity, warm_up, draw(
        st.lists(step, min_size=1, max_size=12)
    )


def paired_sessions(profile=NEO4J_LIKE, capacity=96):
    """A session and its reference, which settles no page in bulk."""
    graph = PropertyGraph()
    return (
        GraphSession(graph, profile, LruPageCache(capacity)),
        GraphSession(graph, profile, LoopLruPageCache(capacity)),
    )


class TestChargePages:
    """``GraphSession.charge_pages`` settles a vid array from its page
    trace: every counter and the recency order must equal one
    ``_touch_page`` per row (``dedup=False``) or per run start
    (``dedup=True``)."""

    @given(charge_scripts())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_touch_per_row(self, script):
        profile, capacity, warm_up, steps = script
        bulk, loop = paired_sessions(profile, capacity)
        for session in (bulk, loop):
            for page in warm_up:
                session.cache.touch(page * 2)
        arrays = []
        for step in steps:
            op, kind, arg = step[:3]
            if op == "touch":
                for session in (bulk, loop):
                    session._touch_page(arg * 2 + (kind == "a"))
            else:
                if op == "charge":
                    arrays.append(np.array(arg, dtype=np.int64))
                    vids = arrays[-1]
                elif arrays:
                    vids = arrays[arg % len(arrays)]
                else:
                    continue
                dedup = step[3]
                bulk.charge_pages(kind, vids, dedup)
                touch_rows(loop, kind, vids.tolist(), dedup)
            assert bulk.metrics == loop.metrics, (capacity, step)
            assert list(bulk.cache._pages) == list(loop.cache._pages)

    def test_loop_oracle_ignores_the_orders(self):
        # The reference must not read what the bulk path precomputed.
        def first():
            raise AssertionError("first-touch order read")

        cache = LoopLruPageCache(4)
        assert cache.touch_many([1, 1, 2], last=[7], first=first) == 2
        assert order(cache) == [1, 2]


#: Four vertices and four adjacency lists a page: the chain below
#: spans 15 pages of each kind.
FOUR_PAGES = replace(NEO4J_LIKE, vertices_per_page=4, adjacency_per_page=4)
HOP = "MATCH (a:N)-[:next]->(b:N) RETURN a.x, b.x"
GROUPED = "MATCH (a:N)-[:next]->(b:N) RETURN b.x, count(*) AS c"


@pytest.fixture()
def chain(monkeypatch):
    """A frozen 60-vertex chain, scanned 7 rows a batch: every run of
    ``HOP`` yields nine chunks, ``GROUPED`` one after nine batches."""
    monkeypatch.setattr(vectorized, "BATCH_ROWS", 7)
    g = PropertyGraph()
    for i in range(60):
        g.add_vertex("N", {"x": i % 7})
    for i in range(59):
        g.add_edge(i, i + 1, "next")
    g.freeze()
    return g


def sessions(graph, capacity, profile=FOUR_PAGES):
    """A session and its reference, which touches every row."""
    return (
        GraphSession(graph, profile, LruPageCache(capacity)),
        PerRowSession(graph, profile, LruPageCache(capacity)),
    )


def stream(session, query, guard=None):
    report = ExecutionReport()
    _, _, _, rows = Executor(session).stream(
        query, {}, guard=guard, report=report
    )
    assert report.mode == "vectorized", report.reason
    return rows


def state(session):
    return session.metrics.as_dict(), list(session.cache._pages)


def pipeline_of(graph, query):
    session = GraphSession(graph)
    return Executor(session)._prepare(query).compiled[2]


class TripAfter(ExecutionGuard):
    """A deadline that passes at the ``checks + 1``-th check."""

    def __init__(self, checks):
        super().__init__(timeout=3600.0)
        self.left = checks

    def check_deadline(self):
        self.left -= 1
        if self.left < 0:
            raise QueryTimeoutError("deadline passed")


class TestPipelineTraces:
    """A compiled pipeline keeps its first complete run's page traces
    by call ordinal, and later runs settle them merged: after every
    run, however it ends, the counters and the recency order equal a
    session that touches each row the kernels produce."""

    @pytest.mark.parametrize("capacity", [0, 1, 4, 22, 96])
    def test_repeat_runs_equal_per_row_charging(self, chain, capacity):
        bulk, loop = sessions(chain, capacity)
        for query in (HOP, GROUPED, HOP, GROUPED, HOP, GROUPED):
            for session in (bulk, loop):
                list(stream(session, query))
            assert state(bulk) == state(loop), (capacity, query)
        for query in (HOP, GROUPED):
            kept = pipeline_of(chain, query).pages.kept
            assert kept is not None and kept.plans.keys() == {capacity}
            # A cache the run's pages fit in settles merged units.
            if capacity == 96:
                assert len(kept.units(capacity)) < len(kept.traces)
        # HOP's rows leave the run nine times: no unit spans that.
        hop = pipeline_of(chain, HOP).pages.kept
        assert len(hop.cuts) == 9
        stops = [stop for stop, _ in hop.units(capacity)]
        assert hop.cuts <= set(stops)

    @pytest.mark.parametrize("capacity", [1, 22, 96])
    def test_max_rows_trip_settles_what_was_charged(self, chain, capacity):
        bulk, loop = sessions(chain, capacity)
        tripped = []
        for session in (bulk, loop):
            list(stream(session, HOP))  # recorded
            # Held open, as a cursor holds it: the trip is read while
            # the run is suspended, not after it is closed.
            rows = stream(session, HOP, ExecutionGuard(max_rows=10))
            with pytest.raises(ResourceLimitError):
                for _ in rows:
                    pass
            tripped.append((rows, state(session)))
        assert tripped[0][1] == tripped[1][1]
        for session in (bulk, loop):
            list(stream(session, HOP))
        assert state(bulk) == state(loop)

    @pytest.mark.parametrize("capacity", [1, 22, 96])
    @pytest.mark.parametrize("query", [HOP, GROUPED])
    def test_timeout_trip_settles_what_was_charged(
        self, chain, capacity, query
    ):
        bulk, loop = sessions(chain, capacity)
        for session in (bulk, loop):
            list(stream(session, query))  # recorded
            with pytest.raises(QueryTimeoutError):
                list(stream(session, query, TripAfter(4)))
        # GROUPED merged all nine batches' charges into one unit: the
        # trip left four batches of it to settle one call at a time.
        assert state(bulk) == state(loop)
        for session in (bulk, loop):
            list(stream(session, query))
        assert state(bulk) == state(loop)

    def test_cursor_detached_by_the_next_run(self, chain, monkeypatch):
        summaries, caches = [], []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(api_session, "GraphSession", PerRowSession)
            cache = LruPageCache(22)
            with connect(chain, profile=FOUR_PAGES) as db:
                with db.session(cache=cache) as session:
                    session.run(HOP).consume()
                    abandoned = session.run(HOP)
                    next(iter(abandoned))
                    last = session.run(GROUPED).consume()
                    summaries.append((
                        abandoned.consume().metrics.as_dict(),
                        last.metrics.as_dict(),
                    ))
            caches.append(list(cache._pages))
        assert summaries[0] == summaries[1]
        assert caches[0] == caches[1]

    @pytest.mark.parametrize("capacity", [4, 96])
    def test_interleaved_cursors(self, chain, capacity):
        bulk, loop = sessions(chain, capacity)
        # Cold, both cursors record; warm, both replay.
        for _ in ("cold", "warm"):
            for session in (bulk, loop):
                one, two = stream(session, HOP), stream(session, HOP)
                for _ in zip(one, two):
                    pass
                list(one)
                list(two)
            assert state(bulk) == state(loop)

    def test_threads_running_one_pipeline(self, chain):
        # More threads than cores, switching often: each records or
        # replays on its own session, one pipeline under them all.
        runs, width = 8, 4
        barrier = threading.Barrier(width, timeout=30)
        states = [None] * width

        def work(i):
            session = GraphSession(chain, FOUR_PAGES, LruPageCache(22))
            barrier.wait()
            for _ in range(runs):
                for query in (HOP, GROUPED):
                    list(stream(session, query))
            states[i] = state(session)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(width)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        _, loop = sessions(chain, 22)
        for _ in range(runs):
            for query in (HOP, GROUPED):
                list(stream(loop, query))
        assert states == [state(loop)] * width

    def test_kept_traces_stay_under_the_bound(self, chain, monkeypatch):
        bulk, _ = sessions(chain, 96)
        list(stream(bulk, HOP))
        kept = pipeline_of(chain, HOP).pages.kept
        size = sum(len(trace.runs) for trace in kept.traces)
        assert size <= session_module.TRACE_PAGES
        # A bound the recording exactly meets keeps it.
        monkeypatch.setattr(session_module, "TRACE_PAGES", size)
        pipeline_of(chain, HOP).pages.kept = None
        list(stream(bulk, HOP))
        assert pipeline_of(chain, HOP).pages.kept is not None

    def test_pipeline_over_the_bound_retraces_and_keeps_nothing(
        self, chain, monkeypatch
    ):
        monkeypatch.setattr(session_module, "TRACE_PAGES", 20)
        bulk, loop = sessions(chain, 4)
        for _ in range(3):
            for session in (bulk, loop):
                list(stream(session, HOP))
            assert state(bulk) == state(loop)
            assert pipeline_of(chain, HOP).pages.kept is None

    def test_sessions_of_another_page_size_share_no_trace(self, chain):
        for profile in (FOUR_PAGES, SPLIT_PAGES, FOUR_PAGES):
            bulk, loop = sessions(chain, 22, profile)
            for _ in range(2):
                for session in (bulk, loop):
                    list(stream(session, HOP))
                assert state(bulk) == state(loop), profile
            kept = pipeline_of(chain, HOP).pages.kept
            assert kept.geometry == (
                profile.vertices_per_page, profile.adjacency_per_page,
            )


class TestNegativeCacheSize:
    def test_cache_rejects_it(self):
        with pytest.raises(ValueError, match="capacity"):
            LruPageCache(-1)

    def test_session_from_such_a_profile_rejects_it(self, graph):
        with pytest.raises(ValueError, match="capacity"):
            GraphSession(graph, replace(NEO4J_LIKE, cache_pages=-4))


class TestSession:
    def test_callers_cache_is_used(self, graph):
        # A fresh cache is empty, and an empty cache is falsy.
        cache = LruPageCache(4)
        assert GraphSession(graph, NEO4J_LIKE, cache).cache is cache
        with connect(graph) as db, db.session(cache=cache) as session:
            assert session._graph_session.cache is cache
            session.run("MATCH (n:N) RETURN n.x").consume()
        assert 0 < len(cache) <= 4

    def test_zero_capacity_session_never_hits(self, diff_graph):
        # Within-run repeats are misses too, on both paths.
        misses = {}
        for vectorize in (False, True):
            session = GraphSession(diff_graph, NEO4J_LIKE, LruPageCache(0))
            executor = Executor(session, vectorize=vectorize)
            report = ExecutionReport()
            _, _, _, rows = executor.stream(
                "MATCH (p:Patient)-[:takes]->(d:Drug) RETURN p.pid, d.dose",
                {}, report=report,
            )
            assert len(list(rows)) > 90
            assert report.mode == ("vectorized" if vectorize else "tuple")
            assert session.metrics.page_hits == 0
            misses[report.mode] = session.metrics.page_misses
        # At least one touch per property read.
        assert misses["vectorized"] == misses["tuple"] > 2 * 90

    def test_counts_reads(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        assert session.accept_vertex(0, N, ())
        assert session.property_reader("x")(0) == 0
        assert session.metrics.vertex_reads == 1
        assert session.metrics.property_reads == 1

    def test_expand_counts_traversals(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        pairs = session.expand_pairs(5, ("next",), "out")
        assert len(pairs) == 1
        assert session.metrics.edge_traversals == 1
        session.expand_pairs(5, ("next",), "any")
        assert session.metrics.edge_traversals == 3  # 1 out + 1 in + prev

    def test_expand_direction(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        assert session.expand_pairs(5, ("next",), "out") == [(5, 6)]
        assert session.expand_pairs(5, ("next",), "in") == [(4, 4)]

    def test_page_accounting(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        session.accept_vertex(0, N, ())
        assert session.metrics.page_misses == 1
        session.accept_vertex(1, N, ())  # same page (32 vertices per page)
        assert session.metrics.page_misses == 1
        assert session.metrics.page_hits == 1
        session.accept_vertex(64, N, ())  # different page
        assert session.metrics.page_misses == 2

    def test_reset_metrics(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        session.accept_vertex(0, N, ())
        old = session.reset_metrics()
        assert old.vertex_reads == 1
        assert session.metrics.vertex_reads == 0

    def test_latency_profiles_differ(self, graph):
        for profile in (NEO4J_LIKE, JANUSGRAPH_LIKE):
            session = GraphSession(graph, profile)
            for i in range(50):
                session.expand_pairs(i, ("next",), "out")
            latency = profile.latency_ms(session.metrics)
            assert latency > 0
        # Janus per-op costs dominate at small scale.
        neo = GraphSession(graph, NEO4J_LIKE)
        janus = GraphSession(graph, JANUSGRAPH_LIKE)
        for i in range(50):
            neo.expand_pairs(i, ("next",), "out")
            janus.expand_pairs(i, ("next",), "out")
        assert JANUSGRAPH_LIKE.latency_ms(janus.metrics) > NEO4J_LIKE.latency_ms(
            neo.metrics
        )

    def test_missing_property_is_none(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        assert session.property_reader("missing")(0) is None

    def test_index_lookup_counts(self, graph):
        graph.create_property_index("N", "x")
        session = GraphSession(graph, NEO4J_LIKE)
        assert session.index_lookup("N", "x", 5) == [5]
        assert session.metrics.index_lookups == 1

    def test_label_scan_counts(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        assert len(session.label_scan("N")) == 100
        assert session.metrics.index_lookups == 1

    def test_scan_rows_examines_rows_past_the_columns_end(self, graph):
        """Columns pad lazily: a vertex added after the last write of
        the checked key lies past its column's end.  It is absent, so
        it never matches - but the scan examined it, and charges what
        the per-vertex path charges for the same candidates."""
        late = graph.add_vertex("N", {})
        labels, props = frozenset({"N"}), (("x", 7),)
        scan = GraphSession(graph, NEO4J_LIKE)
        assert list(scan.scan_rows("N", labels, props)) == [7]
        probe = GraphSession(graph, NEO4J_LIKE)
        candidates = probe.label_scan("N")
        assert candidates[-1] == late
        assert [
            vid for vid in candidates
            if probe.accept_vertex(vid, labels, props)
        ] == [7]
        for counter in ("vertex_reads", "property_reads"):
            assert getattr(scan.metrics, counter) == 101, counter
            assert getattr(probe.metrics, counter) == 101, counter


class TestBackendProfiles:
    def test_latency_formula(self):
        metrics = ExecutionMetrics(
            edge_traversals=10, vertex_reads=4, property_reads=2,
            index_lookups=1, page_misses=3, queries=1,
        )
        profile = NEO4J_LIKE
        expected_us = (
            profile.fixed_overhead_us
            + 10 * profile.traversal_us
            + 4 * profile.vertex_read_us
            + 2 * profile.property_read_us
            + 1 * profile.index_lookup_us
            + 3 * profile.page_miss_us
        )
        assert profile.latency_ms(metrics) == pytest.approx(
            expected_us / 1000
        )

    def test_zero_queries_still_counts_one_overhead(self):
        metrics = ExecutionMetrics()
        assert NEO4J_LIKE.latency_ms(metrics) == pytest.approx(
            NEO4J_LIKE.fixed_overhead_us / 1000
        )

    def test_profiles_registry(self):
        from repro.graphdb.backends import PROFILES

        assert set(PROFILES) == {"neo4j-like", "janusgraph-like"}
