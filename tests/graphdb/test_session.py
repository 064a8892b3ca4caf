"""Tests for the instrumented graph session and metrics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import session as session_module
from repro.graphdb.api import connect
from repro.graphdb.backends import JANUSGRAPH_LIKE, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import ExecutionMetrics, LruPageCache
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from tests.graphdb.lru_oracle import LoopLruPageCache


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
        assert not cache.touch(("v", 1))
        assert cache.touch(("v", 1))

    def test_eviction_order(self):
        cache = LruPageCache(2)
        cache.touch(("v", 1))
        cache.touch(("v", 2))
        cache.touch(("v", 1))     # 1 becomes most recent
        cache.touch(("v", 3))     # evicts 2
        assert cache.touch(("v", 1))
        assert not cache.touch(("v", 2))

    def test_zero_capacity_never_hits(self):
        cache = LruPageCache(0)
        assert not cache.touch(("v", 1))
        assert not cache.touch(("v", 1))

    def test_clear(self):
        cache = LruPageCache(4)
        cache.touch(("v", 1))
        cache.clear()
        assert len(cache) == 0
        assert not cache.touch(("v", 1))


def warm(capacity, pages):
    """A cache that has touched ``("v", p)`` for ``pages``, in order."""
    cache = LruPageCache(capacity)
    for page in pages:
        cache.touch(("v", page))
    return cache


def order(cache):
    """Resident page numbers, least recently used first."""
    return [page for _, page in cache._pages]


@st.composite
def touch_scripts(draw):
    """``(capacity, steps)``: interleaved single and bulk touches of
    two kinds over a small page alphabet, so that calls repeat pages,
    straddle the capacity and find their pages half-evicted."""
    capacity = draw(st.sampled_from([0, 1, 2, 4, 7, 96]))
    page = st.integers(0, draw(st.integers(2, 30)) - 1)
    kind = st.sampled_from(["v", "a"])
    step = st.one_of(
        st.tuples(kind, page),
        st.tuples(kind, st.lists(page, min_size=1, max_size=60)),
    )
    return capacity, draw(st.lists(step, min_size=1, max_size=25))


class TestTouchMany:
    """``touch_many`` is one ``touch`` per page, in order: the same
    misses, the same recency order afterwards."""

    @given(touch_scripts())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_loop(self, script):
        capacity, steps = script
        cache, oracle = LruPageCache(capacity), LoopLruPageCache(capacity)
        for kind, arg in steps:
            if isinstance(arg, list):
                before = list(arg)
                got = cache.touch_many(kind, arg)
                assert arg == before
                want = oracle.touch_many(kind, arg)
            else:
                got = cache.touch((kind, arg))
                want = oracle.touch((kind, arg))
            assert got == want, (capacity, kind, arg)
            assert list(cache._pages) == list(oracle._pages), (kind, arg)

    def test_victim_of_an_earlier_miss_is_touched_later(self):
        # Page 1 is resident and least recent; the miss on 9 evicts it
        # before the call reaches it, so its own touch misses too (and
        # evicts 2).  Counting the absent pages up front would say 1.
        cache = warm(3, [1, 2, 3])
        assert cache.touch_many("v", [9, 1, 9]) == 2
        assert order(cache) == [3, 1, 9]

    def test_distinct_pages_fill_the_cache_exactly(self):
        cache = warm(3, [1, 2, 3])
        assert cache.touch_many("v", [4, 5, 6, 4, 4]) == 3
        assert order(cache) == [5, 6, 4]
        assert cache.touch_many("v", [6, 5, 6]) == 0
        assert order(cache) == [4, 5, 6]

    def test_one_distinct_page_too_many_thrashes(self):
        # Four distinct pages, three frames: 1 is gone when the call
        # comes back to it - within-call repeats are not hits here.
        cache = warm(3, [1, 2, 3])
        assert cache.touch_many("v", [1, 4, 5, 6, 1]) == 4
        assert order(cache) == [5, 6, 1]

    def test_no_eviction_keeps_untouched_pages_in_place(self):
        cache = warm(8, [1, 2, 3, 4])
        assert cache.touch_many("v", [3, 7, 1, 3]) == 1
        assert order(cache) == [2, 4, 7, 1, 3]

    def test_empty_call(self):
        cache = warm(3, [1, 2])
        assert cache.touch_many("v", []) == 0
        assert order(cache) == [1, 2]

    def test_zero_capacity_misses_every_touch(self):
        cache = LruPageCache(0)
        assert cache.touch_many("v", [1, 1, 2, 1]) == 4
        assert len(cache) == 0

    def test_kinds_do_not_alias(self):
        cache = warm(4, [1])
        assert cache.touch_many("a", [1, 1]) == 1
        assert list(cache._pages) == [("v", 1), ("a", 1)]


#: ``adjacency_per_page`` differs from ``vertices_per_page``: an array
#: charged as both kinds must not share one trace.
SPLIT_PAGES = replace(NEO4J_LIKE, adjacency_per_page=8)


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


def touch_rows(session, kind, vids, dedup):
    """The reference: one ``_touch_page`` per row, or per run start."""
    size = (
        session._vertices_per_page if kind == "v"
        else session._adjacency_per_page
    )
    last = None
    for vid in vids:
        page = vid // size
        if not (dedup and page == last):
            session._touch_page((kind, page))
        last = page


def paired_sessions(profile=NEO4J_LIKE, capacity=96):
    """A session and its reference, which settles no page in bulk."""
    graph = PropertyGraph()
    return (
        GraphSession(graph, profile, LruPageCache(capacity)),
        GraphSession(graph, profile, LoopLruPageCache(capacity)),
    )


class TestChargePages:
    """``GraphSession.charge_pages`` settles a vid array from its page
    trace - kept per array, so a repeat reads the trace it built
    before: every counter and the recency order must equal one
    ``_touch_page`` per row (``dedup=False``) or per run start
    (``dedup=True``)."""

    @given(charge_scripts())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_touch_per_row(self, script):
        profile, capacity, warm_up, steps = script
        bulk, loop = paired_sessions(profile, capacity)
        for session in (bulk, loop):
            for page in warm_up:
                session.cache.touch(("v", page))
        arrays = []
        for step in steps:
            op, kind, arg = step[:3]
            if op == "touch":
                for session in (bulk, loop):
                    session._touch_page((kind, arg))
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

    def test_kept_key_bytes_stay_under_the_bound(self, monkeypatch):
        monkeypatch.setattr(session_module, "TRACE_KEY_BYTES", 256)
        session, _ = paired_sessions()
        for start in range(0, 400, 10):
            # 80, 160 or 240 bytes each: old traces make room.
            n = 10 * (1 + start % 3)
            session.charge_pages("v", np.arange(start, start + n), False)
            kept = sum(len(key[3]) for key in session._traces)
            assert kept == session._trace_bytes <= 256
        newest = np.arange(390, 400).tobytes()
        assert list(session._traces)[-1][3] == newest

    def test_array_over_the_bound_is_charged_and_not_kept(
        self, monkeypatch
    ):
        monkeypatch.setattr(session_module, "TRACE_KEY_BYTES", 256)
        bulk, loop = paired_sessions(capacity=4)
        vids = np.array([0, 1, 40, 200, 3] * 8)  # 320 bytes
        for dedup in (False, True, False):
            bulk.charge_pages("v", vids, dedup)
            touch_rows(loop, "v", vids.tolist(), dedup)
            assert bulk.metrics == loop.metrics
            assert list(bulk.cache._pages) == list(loop.cache._pages)
        assert not bulk._traces and bulk._trace_bytes == 0

    def test_sessions_share_no_trace(self):
        one, two = paired_sessions()
        vids = np.arange(100)
        one.charge_pages("v", vids, False)
        two.charge_pages("v", vids, False)
        assert one._traces.keys() == two._traces.keys()
        key, = one._traces
        assert one._traces[key] is not two._traces[key]

    def test_loop_oracle_ignores_the_orders(self):
        # The reference must not read what the bulk path precomputed.
        def first():
            raise AssertionError("first-touch order read")

        cache = LoopLruPageCache(4)
        assert cache.touch_many("v", [1, 1, 2], last=[7], first=first) == 2
        assert order(cache) == [1, 2]


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
