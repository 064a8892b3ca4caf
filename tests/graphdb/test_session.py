"""Tests for the instrumented graph session and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb.api import connect
from repro.graphdb.backends import JANUSGRAPH_LIKE, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import ExecutionMetrics, LruPageCache
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.vectorized import ExecutionReport, _charge_pages
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


@st.composite
def charge_scripts(draw):
    """``(capacity, warm-up pages, [(vids, dedup)])``: vid arrays that
    are often ascending (long same-page runs) and sometimes not."""
    capacity = draw(st.sampled_from([0, 1, 4, 96]))
    vid = st.integers(0, draw(st.integers(1, 400)))
    vids = st.lists(vid, max_size=80)
    call = st.tuples(
        st.one_of(vids.map(sorted), vids), st.booleans()
    )
    warm_up = draw(st.lists(st.integers(0, 40), max_size=20))
    return capacity, warm_up, draw(st.lists(call, min_size=1, max_size=8))


class TestChargePages:
    """The batch path's ``_charge_pages`` hands the cache one page per
    same-page run: every counter and the recency order must equal one
    ``_touch_page`` per row (``dedup=False``) or per run start
    (``dedup=True``)."""

    @given(charge_scripts())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_touch_per_row(self, script):
        capacity, warm_up, calls = script
        graph = PropertyGraph()
        bulk = GraphSession(graph, NEO4J_LIKE, LruPageCache(capacity))
        loop = GraphSession(graph, NEO4J_LIKE, LoopLruPageCache(capacity))
        for session in (bulk, loop):
            for page in warm_up:
                session.cache.touch(("v", page))
        per_page = bulk._vertices_per_page
        for vids, dedup in calls:
            _charge_pages(bulk, "v", np.array(vids, dtype=np.int64), dedup)
            last = None
            for vid in vids:
                page = vid // per_page
                if not (dedup and page == last):
                    loop._touch_page(("v", page))
                last = page
            assert bulk.metrics == loop.metrics, (capacity, vids, dedup)
            assert list(bulk.cache._pages) == list(loop.cache._pages)


class TestSession:
    def test_callers_cache_is_used(self, graph, tmp_path):
        # A fresh cache is empty, and an empty cache is falsy.
        cache = LruPageCache(4)
        assert GraphSession(graph, NEO4J_LIKE, cache).cache is cache
        with GraphSession.open(tmp_path / "data", cache=cache) as session:
            assert session.cache is cache
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
            latency = session.latency_ms()
            assert latency > 0
        # Janus per-op costs dominate at small scale.
        neo = GraphSession(graph, NEO4J_LIKE)
        janus = GraphSession(graph, JANUSGRAPH_LIKE)
        for i in range(50):
            neo.expand_pairs(i, ("next",), "out")
            janus.expand_pairs(i, ("next",), "out")
        assert janus.latency_ms() > neo.latency_ms()

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
