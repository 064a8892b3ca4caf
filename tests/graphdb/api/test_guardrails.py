"""Query guardrails: ``session.run(..., timeout=, max_rows=)``.

The deadline is enforced *inside* the executor's streaming loop (one
check per binding pulled), so it interrupts aggregations and sorts
that drain the pipeline eagerly, not just slow consumers.  ``max_rows``
is a budget, not a ``LIMIT``: exceeding it raises, because silently
truncating would let a buggy query masquerade as a healthy one.
"""

import pytest

from repro.graphdb import (
    GraphError,
    QueryError,
    QueryTimeoutError,
    ResourceLimitError,
    connect,
)
from repro.graphdb.graph import PropertyGraph


@pytest.fixture
def db():
    graph = PropertyGraph("guard")
    people = [
        graph.add_vertex("Person", {"name": f"p{i}", "age": i})
        for i in range(20)
    ]
    for i, vid in enumerate(people[1:], start=1):
        graph.add_edge(people[i - 1], vid, "knows")
    with connect(graph) as database:
        yield database


class TestHierarchy:
    def test_guardrail_errors_are_graph_errors(self):
        assert issubclass(ResourceLimitError, GraphError)
        assert issubclass(QueryTimeoutError, ResourceLimitError)
        # Not query errors: the query text is fine, the budget is not.
        assert not issubclass(ResourceLimitError, QueryError)


class TestMaxRows:
    def test_over_budget_raises(self, db):
        with db.session() as session:
            result = session.run(
                "MATCH (p:Person) RETURN p.name", max_rows=5
            )
            with pytest.raises(ResourceLimitError, match="max_rows=5"):
                result.records()

    def test_under_budget_passes(self, db):
        with db.session() as session:
            result = session.run(
                "MATCH (p:Person) RETURN p.name", max_rows=20
            )
            assert len(result.records()) == 20
            assert result.consume().rows == 20

    def test_limit_inside_budget_is_fine(self, db):
        with db.session() as session:
            rows = session.run(
                "MATCH (p:Person) RETURN p.name LIMIT 3", max_rows=5
            ).values()
            assert len(rows) == 3

    def test_raises_lazily_at_the_offending_row(self, db):
        with db.session() as session:
            result = session.run(
                "MATCH (p:Person) RETURN p.name", max_rows=2
            )
            it = iter(result)
            assert next(it) is not None
            assert next(it) is not None
            with pytest.raises(ResourceLimitError):
                next(it)

    def test_aggregate_single_row_passes(self, db):
        with db.session() as session:
            record = session.run(
                "MATCH (p:Person) RETURN count(*) AS n", max_rows=1
            ).single()
            assert record["n"] == 20

    def test_session_survives_a_trip(self, db):
        with db.session() as session:
            with pytest.raises(ResourceLimitError):
                session.run(
                    "MATCH (p:Person) RETURN p.name", max_rows=1
                ).records()
            # The session stays usable for the next query.
            assert session.run(
                "MATCH (p:Person) RETURN count(*) AS n"
            ).single()["n"] == 20

    def test_abandoned_tripped_result_settles_quietly(self, db):
        with db.session() as session:
            session.run("MATCH (p:Person) RETURN p.name", max_rows=1)
            # Starting the next query detaches (drains) the first one;
            # its budget trip must not surface from this call.
            assert session.run(
                "MATCH (p:Person) RETURN count(*) AS n"
            ).single()["n"] == 20

    def test_invalid_budget_rejected(self, db):
        with db.session() as session:
            with pytest.raises(QueryError):
                session.run("MATCH (p:Person) RETURN p", max_rows=-1)


class TestTimeout:
    def test_zero_timeout_trips_deterministically(self, db):
        with db.session() as session:
            result = session.run(
                "MATCH (p:Person) RETURN p.name", timeout=0
            )
            with pytest.raises(QueryTimeoutError):
                result.records()

    def test_expiry_interrupts_aggregation(self, db):
        """Aggregation drains the match stream eagerly (inside
        ``session.run``); the deadline check sits upstream of
        projection, so it interrupts that drain too."""
        with db.session() as session:
            with pytest.raises(QueryTimeoutError):
                session.run(
                    "MATCH (p:Person)-[:knows]->(q:Person) "
                    "RETURN count(*) AS n",
                    timeout=0,
                ).records()

    def test_generous_timeout_passes(self, db):
        with db.session() as session:
            record = session.run(
                "MATCH (p:Person) RETURN count(*) AS n", timeout=60.0
            ).single()
            assert record["n"] == 20

    def test_timeout_is_a_resource_limit(self, db):
        with db.session() as session:
            result = session.run(
                "MATCH (p:Person) RETURN p.name", timeout=0
            )
            with pytest.raises(ResourceLimitError):
                result.records()

    def test_negative_timeout_rejected(self, db):
        with db.session() as session:
            with pytest.raises(QueryError):
                session.run("MATCH (p:Person) RETURN p", timeout=-1)


class TestVectorizedGuardrails:
    """The same guardrails, tripped *inside* the batch pipeline.

    The vectorized driver checks the deadline between batches and the
    row budget in the executor's shared tail, so every behavior above
    must hold unchanged when the query takes the batch path.  Each
    test first proves its query actually vectorizes (otherwise it
    would silently re-test the tuple pipeline).
    """

    @pytest.fixture
    def vdb(self):
        graph = PropertyGraph("vguard")
        people = [
            graph.add_vertex("Person", {"age": i, "score": i / 4})
            for i in range(30)
        ]
        for i in range(1, 30):
            graph.add_edge(people[i - 1], people[i], "knows")
        graph.freeze()
        with connect(graph) as database:
            yield database

    def _assert_vectorized(self, session, text):
        summary = session.run(text).consume()
        assert summary.mode == "vectorized", summary.plan
        assert summary.fallback_reason is None
        return summary

    def test_a_tuple_run_says_why(self, vdb):
        with vdb.session() as session:
            summary = session.run(
                "MATCH (p:Person) RETURN p.age LIMIT 3"
            ).consume()
            assert summary.mode == "tuple"
            assert summary.fallback_reason == "limit"
            assert summary.plan.endswith("mode=tuple reason=limit")
            assert session.explain(
                "MATCH (p:Person) RETURN p.age LIMIT 3"
            ).endswith("mode=tuple reason=limit")

    def test_max_rows_trips_in_batch_pipeline(self, vdb):
        with vdb.session() as session:
            self._assert_vectorized(
                session, "MATCH (p:Person) RETURN p.age"
            )
            result = session.run(
                "MATCH (p:Person) RETURN p.age", max_rows=5
            )
            with pytest.raises(ResourceLimitError, match="max_rows=5"):
                result.records()

    def test_timeout_trips_between_batches(self, vdb):
        with vdb.session() as session:
            self._assert_vectorized(
                session, "MATCH (p:Person) RETURN p.age"
            )
            result = session.run(
                "MATCH (p:Person) RETURN p.age", timeout=0
            )
            with pytest.raises(QueryTimeoutError):
                result.records()

    def test_timeout_interrupts_batch_aggregation(self, vdb):
        with vdb.session() as session:
            self._assert_vectorized(
                session,
                "MATCH (p:Person)-[:knows]->(q:Person) "
                "RETURN count(*) AS n",
            )
            with pytest.raises(QueryTimeoutError):
                session.run(
                    "MATCH (p:Person)-[:knows]->(q:Person) "
                    "RETURN count(*) AS n",
                    timeout=0,
                ).records()

    def test_tripped_abandoned_cursor_settles_quietly(self, vdb):
        with vdb.session() as session:
            session.run("MATCH (p:Person) RETURN p.age", max_rows=1)
            # The next query detaches (drains) the tripped cursor; the
            # budget trip must not surface from this unrelated call.
            record = session.run(
                "MATCH (p:Person) RETURN count(*) AS n"
            ).single()
            assert record["n"] == 30
            assert session.last_summary().mode == "vectorized"

    def test_under_budget_batch_run_passes(self, vdb):
        with vdb.session() as session:
            result = session.run(
                "MATCH (p:Person) RETURN p.age", max_rows=30, timeout=60.0
            )
            assert len(result.records()) == 30
            summary = result.consume()
            assert summary.mode == "vectorized"
            assert summary.rows == 30


class TestMetricsCounters:
    def test_summary_reports_fault_counters(self, db):
        with db.session() as session:
            summary = session.run(
                "MATCH (p:Person) RETURN count(*) AS n"
            ).consume()
        assert summary.metrics.io_retries == 0
        assert summary.metrics.faults_injected == 0
        assert "io_retries" in summary.metrics.as_dict()
        assert "faults_injected" in summary.metrics.as_dict()

    def test_counters_attribute_to_the_open_execution(self, tmp_path):
        """Storage retries during a result's window land in its
        summary (durable store + injected transient fsync errors)."""
        import errno

        from repro.graphdb import faults
        from repro.graphdb.graph import PropertyGraph
        from repro.graphdb.storage import GraphStore

        graph = PropertyGraph("m")
        graph.add_vertex("A", {"n": 1})
        GraphStore.create(tmp_path / "d", graph).close()
        with connect(tmp_path / "d", create=False, sync="always") as db:
            with db.session() as session:
                result = session.run("MATCH (a:A) RETURN a.n")
                with faults.REGISTRY.armed(
                    "wal.flush.fsync", mode="error",
                    errno_code=errno.EINTR, times=1,
                ):
                    db.graph.add_vertex("A", {"n": 2})
                summary = result.consume()
        faults.REGISTRY.reset()
        assert summary.metrics.io_retries >= 1
        assert summary.metrics.faults_injected >= 1
