"""Morsel-parallel execution: equivalence, lifecycle, faults.

The parallel path's contract is the same strict one the vectorized
path carries - identical rows in identical order AND identical work
counters against the serial oracle - plus process-level obligations
the serial paths never had: a persistent worker pool that survives
crashed workers, shared-memory segments that never leak past
``shutdown_pool()``, and guardrails that cancel outstanding morsels.

The differential corpus (tests/graphdb/test_differential.py) covers
the query-surface breadth; this module pins the parallel-specific
machinery: morsel partitioning, pool lifecycle, failpoint-driven
worker crashes, the PageRank and statistics scatter-gather drivers,
and the ``parallelism=`` / ``REPRO_PARALLEL`` configuration surface.
"""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ParallelExecutionError, QueryTimeoutError
from repro.graphdb import faults
from repro.graphdb.api import connect
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.metrics import LruPageCache
from repro.graphdb.morsel import Morsel, MorselSource
from repro.graphdb.query import parallel, vectorized
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import GraphStatistics
from repro.graphdb.view import graph_pagerank
from tests.graphdb.diffquery import WORK_COUNTERS, norm_rows

AGG_QUERY = "MATCH (p:Patient) WHERE p.age > 20 RETURN sum(p.age) AS s"
ROW_QUERY = "MATCH (p:Patient) WHERE p.age > 40 RETURN p.age, p.weight"


def run(graph, text, params=None, parallelism=1, threshold=0,
        vectorize=True, guard=None, cache=None):
    """One execution on a fresh session; returns (cols, rows, work,
    report)."""
    session = GraphSession(graph, NEO4J_LIKE, cache)
    executor = Executor(
        session, vectorize=vectorize, parallelism=parallelism,
        parallel_threshold=threshold,
    )
    report = ExecutionReport()
    _, _, cols, rows = executor.stream(
        text, dict(params or {}), report=report, guard=guard
    )
    out = [tuple(r) for r in rows]
    metrics = session.reset_metrics().as_dict()
    return cols, out, {k: metrics[k] for k in WORK_COUNTERS}, report


# ----------------------------------------------------------------------
# Morsel partitioning
# ----------------------------------------------------------------------
class TestMorselSource:
    def test_segment_major_fixed_size_slices(self):
        source = MorselSource([10, 0, 5], morsel_rows=4)
        assert list(source) == [
            Morsel(0, 0, 4), Morsel(0, 4, 8), Morsel(0, 8, 10),
            Morsel(2, 0, 4), Morsel(2, 4, 5),
        ]
        assert len(source) == 5
        assert Morsel(0, 4, 8).rows == 4

    def test_rejects_nonpositive_morsel_rows(self):
        with pytest.raises(ValueError):
            MorselSource([1], morsel_rows=0)

    def test_from_tables_covers_raw_table_extents(self, diff_graph):
        source = MorselSource.from_tables(diff_graph, morsel_rows=64)
        covered = sum(m.rows for m in source)
        assert covered == sum(
            len(t.vids) for t in diff_graph._tables
        )


# ----------------------------------------------------------------------
# Query equivalence and mode reporting
# ----------------------------------------------------------------------
class TestParallelQueries:
    def test_parallel_mode_engages_and_matches_serial(self, diff_graph):
        t_cols, t_rows, t_work, _ = run(
            diff_graph, ROW_QUERY, vectorize=False
        )
        p_cols, p_rows, p_work, report = run(
            diff_graph, ROW_QUERY, parallelism=2
        )
        assert report.mode == "parallel"
        assert report.parallel_reason is None
        assert p_cols == t_cols
        assert norm_rows(p_rows) == norm_rows(t_rows)
        assert p_work == t_work

    def test_aggregate_matches_serial_exactly(self, diff_graph):
        _, t_rows, t_work, _ = run(diff_graph, AGG_QUERY, vectorize=False)
        _, p_rows, p_work, report = run(
            diff_graph, AGG_QUERY, parallelism=2
        )
        assert report.mode == "parallel"
        assert p_rows == t_rows
        assert p_work == t_work

    def test_multi_morsel_equivalence(self, diff_graph, monkeypatch):
        """Shrink the batch size so one query spans many morsels; rows
        and counters must still match both serial paths exactly."""
        monkeypatch.setattr(vectorized, "BATCH_ROWS", 16)
        for text in (ROW_QUERY, AGG_QUERY,
                     "MATCH (v:Visit) RETURN min(v.cost) AS m"):
            t_cols, t_rows, t_work, _ = run(
                diff_graph, text, vectorize=False
            )
            p_cols, p_rows, p_work, report = run(
                diff_graph, text, parallelism=2
            )
            assert report.mode == "parallel", report.parallel_reason
            assert report.batches > 1, text
            assert p_cols == t_cols
            assert norm_rows(p_rows) == norm_rows(t_rows)
            assert p_work == t_work, text

    def test_recorded_charges_replay_under_eviction(
        self, diff_graph, monkeypatch
    ):
        """Six vertex pages through a four-page cache, so every run
        finds some of its pages evicted by the one before: the
        replayed ``(kind, pages)`` log must leave the serial batch
        run's counters and recency order."""
        monkeypatch.setattr(vectorized, "BATCH_ROWS", 16)
        serial, replayed = LruPageCache(4), LruPageCache(4)
        visits = "MATCH (v:Visit) RETURN min(v.cost) AS m"
        for text in (ROW_QUERY, visits, AGG_QUERY, visits):
            _, _, s_work, _ = run(diff_graph, text, cache=serial)
            _, _, p_work, report = run(
                diff_graph, text, parallelism=2, cache=replayed
            )
            assert report.mode == "parallel", report.parallel_reason
            assert p_work == s_work, text
            assert p_work["page_misses"] > 0, text
            assert list(replayed._pages) == list(serial._pages), text

    def test_fallback_reasons_are_recorded(self, diff_graph):
        # Estimated rows below the threshold: stays serial vectorized.
        _, _, _, report = run(
            diff_graph, ROW_QUERY, parallelism=2, threshold=10 ** 9
        )
        assert report.mode == "vectorized"
        assert report.parallel_reason == "small-scan"
        # Expansions are not single-scan plans yet.
        _, _, _, report = run(
            diff_graph,
            "MATCH (p:Patient)-[:takes]->(d:Drug) RETURN count(*) AS n",
            parallelism=2,
        )
        assert report.mode == "vectorized"
        assert report.parallel_reason == "multi-step"
        # Grouped aggregation folds whole bindings: serial batch only.
        _, _, _, report = run(
            diff_graph,
            "MATCH (p:Patient) RETURN p.name, count(*) AS n",
            parallelism=2,
        )
        assert report.mode == "vectorized"
        assert report.parallel_reason == "aggregate-shape"
        # Shapes no batch path takes decline with the vectorized reason.
        _, _, _, report = run(
            diff_graph, "MATCH (p:Patient) RETURN p.age LIMIT 3",
            parallelism=2,
        )
        assert report.mode == "tuple"
        assert report.parallel_reason == "limit"

    def test_object_arrays_never_reach_shared_memory(
        self, diff_graph, monkeypatch
    ):
        """A string projection above the threshold stays serial, and a
        filter that only needs an object column's presence mask shares
        the mask but not the pointer array."""
        shared = []
        arena = parallel.get_pool(2).arena
        share = arena.share

        def spy(key, arr):
            shared.append((key, arr.dtype))
            return share(key, arr)

        monkeypatch.setattr(arena, "share", spy)
        text = "MATCH (p:Patient) RETURN p.pid, p.name"
        expected = run(diff_graph, text, vectorize=False)[:3]
        cols, rows, work, report = run(diff_graph, text, parallelism=2)
        assert report.mode == "vectorized"
        assert report.parallel_reason == "object-column"
        assert (cols, rows, work) == expected
        assert shared == []
        _, _, _, report = run(
            diff_graph,
            "MATCH (p:Patient) WHERE p.name IS NOT NULL RETURN p.pid",
            parallelism=2,
        )
        assert report.mode == "parallel", report.parallel_reason
        assert shared
        assert all(dtype != object for _, dtype in shared)

    def test_order_by_limit_vectorizes(self, diff_graph):
        """Satellite: ORDER BY + LIMIT drains fully into the shared
        top-k heap, so it no longer forces the tuple path."""
        text = (
            "MATCH (p:Patient) WHERE p.age > 10 "
            "RETURN p.age ORDER BY p.age DESC LIMIT 5"
        )
        t_cols, t_rows, t_work, _ = run(diff_graph, text, vectorize=False)
        v_cols, v_rows, v_work, v_report = run(diff_graph, text)
        p_cols, p_rows, p_work, p_report = run(
            diff_graph, text, parallelism=2
        )
        assert v_report.mode == "vectorized", v_report.reason
        assert p_report.mode == "parallel", p_report.parallel_reason
        assert v_rows == t_rows == p_rows
        assert v_work == t_work == p_work
        # LIMIT without ORDER BY still short-circuits: tuple only.
        _, _, _, report = run(
            diff_graph, "MATCH (p:Patient) RETURN p.age LIMIT 3"
        )
        assert report.mode == "tuple"


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestConfiguration:
    def test_resolve_parallelism(self, monkeypatch):
        monkeypatch.delenv(parallel.PARALLEL_ENV, raising=False)
        assert parallel.resolve_parallelism() == 1
        assert parallel.resolve_parallelism(4) == 4
        assert parallel.resolve_parallelism(0) == 1
        monkeypatch.setenv(parallel.PARALLEL_ENV, "3")
        assert parallel.resolve_parallelism() == 3
        with pytest.raises(ParallelExecutionError):
            parallel.resolve_parallelism("eight")

    def test_resolve_threshold(self, monkeypatch):
        monkeypatch.delenv(parallel.THRESHOLD_ENV, raising=False)
        assert parallel.resolve_threshold() == parallel.DEFAULT_THRESHOLD
        assert parallel.resolve_threshold(0) == 0
        monkeypatch.setenv(parallel.THRESHOLD_ENV, "17")
        assert parallel.resolve_threshold() == 17
        with pytest.raises(ParallelExecutionError):
            parallel.resolve_threshold("lots")

    def test_env_threads_into_executor(self, diff_graph, monkeypatch):
        monkeypatch.setenv(parallel.PARALLEL_ENV, "2")
        monkeypatch.setenv(parallel.THRESHOLD_ENV, "0")
        session = GraphSession(diff_graph, NEO4J_LIKE)
        executor = Executor(session)
        report = ExecutionReport()
        _, _, _, rows = executor.stream(ROW_QUERY, {}, report=report)
        list(rows)
        assert report.mode == "parallel"

    def test_session_run_per_query_override(self, diff_graph):
        # parallelism=1 pins the session baseline so the test holds
        # even when REPRO_PARALLEL is set in the environment (the CI
        # matrix runs the whole suite under REPRO_PARALLEL=2).
        with connect(diff_graph, parallelism=1) as db:
            with db.session(parallel_threshold=0) as session:
                summary = session.run(ROW_QUERY).consume()
                assert summary.mode == "vectorized"
                summary = session.run(ROW_QUERY, parallelism=2).consume()
                assert summary.mode == "parallel"
                # The override is per query, not sticky.
                summary = session.run(ROW_QUERY).consume()
                assert summary.mode == "vectorized"

    def test_connect_parallelism_is_session_default(self, diff_graph):
        with connect(diff_graph, parallelism=2) as db:
            with db.session(parallel_threshold=0) as session:
                summary = session.run(ROW_QUERY).consume()
                assert summary.mode == "parallel"


# ----------------------------------------------------------------------
# Fault injection and guardrails
# ----------------------------------------------------------------------
class TestFaults:
    def test_worker_crash_fails_query_and_pool_recovers(self, diff_graph):
        with faults.REGISTRY.armed("parallel.worker", mode="crash"):
            with pytest.raises(ParallelExecutionError):
                run(diff_graph, ROW_QUERY, parallelism=2)
        # The pool respawns dead workers on the next job.
        _, _, _, report = run(diff_graph, ROW_QUERY, parallelism=2)
        assert report.mode == "parallel"

    def test_worker_error_fails_query_and_pool_survives(self, diff_graph):
        with faults.REGISTRY.armed("parallel.worker", mode="error"):
            with pytest.raises(ParallelExecutionError):
                run(diff_graph, AGG_QUERY, parallelism=2)
        _, p_rows, _, report = run(diff_graph, AGG_QUERY, parallelism=2)
        _, t_rows, _, _ = run(diff_graph, AGG_QUERY, vectorize=False)
        assert report.mode == "parallel"
        assert p_rows == t_rows

    def test_dispatch_failpoint_fires_on_coordinator(self, diff_graph):
        with faults.REGISTRY.armed("parallel.dispatch", mode="error"):
            with pytest.raises(OSError):
                run(diff_graph, ROW_QUERY, parallelism=2)

    def test_timeout_cancels_job_and_next_query_is_clean(self, diff_graph):
        from repro.graphdb.query.executor import ExecutionGuard

        guard = ExecutionGuard(timeout=0.0)
        with pytest.raises(QueryTimeoutError):
            run(diff_graph, ROW_QUERY, parallelism=2, guard=guard)
        # Any stale in-flight results are discarded by task id; the
        # very next query on the same pool must be exact.
        _, p_rows, p_work, report = run(
            diff_graph, ROW_QUERY, parallelism=2
        )
        _, t_rows, t_work, _ = run(diff_graph, ROW_QUERY, vectorize=False)
        assert report.mode == "parallel"
        assert norm_rows(p_rows) == norm_rows(t_rows)
        assert p_work == t_work


# ----------------------------------------------------------------------
# Pool lifecycle and shared-memory hygiene
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    def test_shutdown_unlinks_every_segment(self, diff_graph):
        _, _, _, report = run(diff_graph, ROW_QUERY, parallelism=2)
        assert report.mode == "parallel"
        assert parallel.live_segment_names()  # columns are exported
        parallel.shutdown_pool()
        assert parallel.live_segment_names() == frozenset()

    def test_pool_restarts_after_shutdown(self, diff_graph):
        parallel.shutdown_pool()
        _, _, _, report = run(diff_graph, ROW_QUERY, parallelism=2)
        assert report.mode == "parallel"

    def test_job_scoped_segments_are_dropped_per_query(self, diff_graph):
        run(diff_graph, ROW_QUERY, parallelism=2)
        before = parallel.live_segment_names()
        run(diff_graph, ROW_QUERY, parallelism=2)
        # Column exports are reused (same graph epoch); the per-job
        # candidate arrays from the first query are gone.
        assert parallel.live_segment_names() == before

    def test_closed_pool_refuses_work(self):
        pool = parallel.WorkerPool(2)
        pool.shutdown()
        with pytest.raises(ParallelExecutionError):
            pool.ensure_started()


# ----------------------------------------------------------------------
# PageRank and statistics drivers
# ----------------------------------------------------------------------
class TestParallelPageRank:
    def test_matches_serial_to_tolerance(self, diff_graph):
        serial = graph_pagerank(diff_graph)
        par = parallel_scores = parallel.parallel_pagerank(
            diff_graph, workers=2
        )
        assert set(par) == set(serial)
        worst = max(
            abs(parallel_scores[v] - serial[v]) for v in serial
        )
        assert worst < 1e-9, worst

    def test_single_worker_falls_back_to_serial(self, diff_graph):
        assert parallel.parallel_pagerank(
            diff_graph, workers=1
        ) == graph_pagerank(diff_graph)

    def test_empty_graph(self):
        from repro.graphdb.graph import PropertyGraph

        assert parallel.parallel_pagerank(
            PropertyGraph("empty"), workers=2
        ) == {}


def _norm_hist(hist):
    """NaN keys collapse to one sentinel: ``array('d')`` hands back a
    fresh float per read, so every NaN is its own Counter key and even
    two *serial* builds differ on NaN identity."""
    out = {}
    for key, count in hist.items():
        if isinstance(key, float) and math.isnan(key):
            key = "<NaN>"
        out[key] = out.get(key, 0) + count
    return out


class TestParallelStats:
    def assert_stats_equal(self, par, ser):
        assert par.num_vertices == ser.num_vertices
        assert par.label_counts == ser.label_counts
        assert par._label_pairs == ser._label_pairs
        assert par.edge_label_counts == ser.edge_label_counts
        assert par._src == ser._src
        assert par._dst == ser._dst
        assert par._triples == ser._triples
        assert par._src_total == ser._src_total
        assert par._dst_total == ser._dst_total
        assert set(par.props) == set(ser.props)
        for key, ps in ser.props.items():
            pp = par.props[key]
            assert pp.count == ps.count, key
            assert pp.unhashable == ps.unhashable, key
            assert _norm_hist(pp.hist) == _norm_hist(ps.hist), key

    def test_build_matches_serial(self, diff_graph):
        self.assert_stats_equal(
            parallel.parallel_build_stats(diff_graph, workers=2),
            GraphStatistics.build(diff_graph),
        )

    def test_build_classmethod_delegates(self, diff_graph):
        self.assert_stats_equal(
            GraphStatistics.build(diff_graph, parallelism=2),
            GraphStatistics.build(diff_graph),
        )

    def test_single_worker_falls_back(self, diff_graph):
        ser = GraphStatistics.build(diff_graph)
        par = parallel.parallel_build_stats(diff_graph, workers=1)
        self.assert_stats_equal(par, ser)
