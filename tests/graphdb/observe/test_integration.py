"""Observability through the driver: metrics, traces, event log.

The registry and event log are process-global, so these tests measure
*deltas* around their own workload and always restore the global state
they touch.
"""

import json
from dataclasses import fields

import pytest

from repro.exceptions import ResourceLimitError
from repro.graphdb import ObserveConfig, PropertyGraph, connect
from repro.graphdb import observe
from repro.graphdb.metrics import ExecutionMetrics


def small_graph() -> PropertyGraph:
    g = PropertyGraph("obs")
    for i in range(30):
        g.add_vertex("Drug", {"id": i, "name": f"d{i}"})
    g.create_property_index("Drug", "id")
    return g


@pytest.fixture(autouse=True)
def pristine_observe_state():
    """Restore the global observe layer after each test."""
    was_enabled = observe.REGISTRY.enabled
    yield
    observe.REGISTRY.enabled = was_enabled
    observe.EVENTS.disable()


def counter(name: str) -> float:
    return observe.REGISTRY.snapshot()["counters"][name]


class TestDatabaseMetrics:
    def test_query_workload_populates_registry(self):
        before = counter("repro_queries_total")
        rows_before = counter("repro_query_rows_total")
        with connect(small_graph()) as db:
            with db.session() as session:
                session.run("MATCH (d:Drug) RETURN d.name").consume()
            snap = db.metrics()
        assert snap["counters"]["repro_queries_total"] == before + 1
        assert (
            snap["counters"]["repro_query_rows_total"] == rows_before + 30
        )
        hist = snap["histograms"]["repro_query_seconds"]
        assert hist["count"] >= 1

    def test_plan_cache_and_guardrail_counters(self):
        hits_before = counter("repro_plan_cache_hits_total")
        with connect(small_graph()) as db:
            with db.session() as session:
                q = "MATCH (d:Drug {id: $id}) RETURN d.name"
                session.run(q, id=1).consume()
                session.run(q, id=2).consume()  # cached plan
                trips = observe.REGISTRY.snapshot()["labeled_counters"][
                    "repro_guardrail_trips_total"
                ]["values"].get("max_rows", 0)
                with pytest.raises(ResourceLimitError):
                    session.run(
                        "MATCH (d:Drug) RETURN d.name", max_rows=3
                    ).consume()
        assert counter("repro_plan_cache_hits_total") == hits_before + 1
        snap = observe.REGISTRY.snapshot()
        assert (
            snap["labeled_counters"]["repro_guardrail_trips_total"][
                "values"
            ]["max_rows"]
            == trips + 1
        )

    def test_plan_observations_record_est_vs_actual(self):
        # Est vs actual rows live on the run's own summary; the
        # registry keeps no per-plan store beside it.
        query = "MATCH (obsdrug:Drug) RETURN obsdrug.name"
        with connect(small_graph()) as db:
            with db.session() as session:
                summary = session.run(query).consume()
        assert "est~30, actual=30 rows" in summary.plan
        assert len(summary.plan_digest) == 12
        assert "plans" not in observe.REGISTRY.snapshot()

    def test_disabled_registry_freezes_counters(self):
        observe.REGISTRY.enabled = False
        before = counter("repro_queries_total")
        with connect(small_graph()) as db:
            with db.session() as session:
                session.run("MATCH (d:Drug) RETURN d.name").consume()
        assert counter("repro_queries_total") == before

    def test_connect_observe_metrics_false_disables(self):
        with connect(small_graph(), observe={"metrics": False}) as db:
            assert db.metrics()["enabled"] is False
        observe.REGISTRY.enabled = True


class TestTracing:
    def test_summary_trace_spans(self):
        with connect(small_graph()) as db:
            with db.session() as session:
                result = session.run(
                    "MATCH (d:Drug) RETURN d.name", trace=True
                )
                records = list(result)
                summary = result.consume()
        trace = summary.trace
        assert trace is not None
        names = [s.name for s in trace.root.children]
        assert names == ["parse", "plan", "execute"]
        execute = trace.execute_span
        assert execute.attrs["rows"] == len(records) == 30
        assert execute.end is not None
        assert all(
            child.end is not None for child in execute.children
        )

    def test_untraced_summary_has_no_trace(self):
        with connect(small_graph()) as db:
            with db.session() as session:
                summary = session.run(
                    "MATCH (d:Drug) RETURN d.name"
                ).consume()
        assert summary.trace is None

    def test_trace_actuals_match_explain_analyze(self):
        query = "MATCH (d:Drug {id: $id}) RETURN d.name"
        with connect(small_graph()) as db:
            with db.session() as session:
                result = session.run(query, id=3, trace=True)
                summary = result.consume()
                analyzed = session.explain(query, analyze=True, id=3)
        ops = summary.trace.execute_span.children
        # One source of truth: every operator span's text and actual
        # row count appears verbatim in EXPLAIN ANALYZE.
        for span in ops:
            text = span.name.split(". ", 1)[1]
            assert text in analyzed
            assert f"actual={span.attrs['actual_rows']} rows" in analyzed

    def test_traced_and_untraced_rows_identical(self):
        query = "MATCH (d:Drug) RETURN d.name"
        with connect(small_graph()) as db:
            with db.session() as session:
                plain = [r.values() for r in session.run(query)]
                traced = [
                    r.values() for r in session.run(query, trace=True)
                ]
        assert sorted(map(tuple, plain)) == sorted(map(tuple, traced))

    def test_cached_plan_collapses_to_plan_span(self):
        query = "MATCH (d:Drug {id: $id}) RETURN d.name"
        with connect(small_graph()) as db:
            with db.session() as session:
                session.run(query, id=1).consume()
                summary = session.run(query, id=2, trace=True).consume()
        names = [s.name for s in summary.trace.root.children]
        assert names == ["plan", "execute"]
        plan_span = summary.trace.root.children[0]
        assert plan_span.attrs.get("cached") is True


class TestEventLogWiring:
    def test_connect_observe_arms_slow_query_log(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        config = ObserveConfig(log_path=log_path, slow_query_ms=0)
        with connect(small_graph(), observe=config) as db:
            with db.session() as session:
                summary = session.run(
                    "MATCH (d:Drug) RETURN d.name"
                ).consume()
                limited = session.run(
                    "MATCH (d:Drug) RETURN d.name LIMIT 2", trace=True
                ).consume()
        events = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        slow = [e for e in events if e["event"] == "slow_query"]
        assert len(slow) == 2
        # A slow query says which path it took and, if tuple, why.
        assert (slow[0]["mode"], slow[0]["fallback_reason"]) == (
            "vectorized", None
        )
        assert (slow[1]["mode"], slow[1]["fallback_reason"]) == (
            "tuple", "limit"
        )
        assert "mode=tuple, reason=limit" in limited.trace.render()
        event = slow[0]
        assert event["plan_digest"] == summary.plan_digest
        assert event["rows"] == 30
        assert event["metrics"]["rows"] == 30
        assert event["threshold_ms"] == 0

    def test_storage_lifecycle_events(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        data_dir = tmp_path / "store"
        with connect(data_dir, observe=str(log_path)) as db:
            with db.session() as session:
                with session.begin_tx() as tx:
                    tx.add_vertex("Drug", {"id": 1, "name": "aspirin"})
                    tx.commit()
            db.checkpoint()
        with connect(data_dir) as db:  # reopen -> recovery event
            pass
        kinds = [
            json.loads(line)["event"]
            for line in log_path.read_text().splitlines()
        ]
        assert "checkpoint" in kinds
        assert kinds.count("recovery") >= 2  # first open + reopen

    def test_high_threshold_stays_silent(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        config = ObserveConfig(log_path=log_path, slow_query_ms=60_000.0)
        with connect(small_graph(), observe=config) as db:
            with db.session() as session:
                session.run("MATCH (d:Drug) RETURN d.name").consume()
        events = (
            [
                json.loads(line)
                for line in log_path.read_text().splitlines()
            ]
            if log_path.exists()
            else []
        )
        assert not [e for e in events if e["event"] == "slow_query"]


class TestExecutionMetricsDerivation:
    def test_as_dict_covers_every_field(self):
        m = ExecutionMetrics()
        assert set(m.as_dict()) == {f.name for f in fields(ExecutionMetrics)}

    def test_merge_sums_every_field(self):
        a, b = ExecutionMetrics(), ExecutionMetrics()
        for i, f in enumerate(fields(ExecutionMetrics), start=1):
            setattr(a, f.name, i)
            setattr(b, f.name, 10 * i)
        a.merge(b)
        for i, f in enumerate(fields(ExecutionMetrics), start=1):
            assert getattr(a, f.name) == 11 * i
