"""Workload execution: run query lists, collect latency and work counts.

Latency here is the *simulated* backend latency (deterministic, see
:mod:`repro.graphdb.backends`); wall-clock execution time is also
recorded for completeness.  Execution goes through the driver API
(:mod:`repro.graphdb.api`): one :class:`~repro.graphdb.api.Session` -
and hence one page cache and one plan cache - is shared across a
workload run, as a real backend connection would be.  Pass
``collect_rows=True`` to keep each query's result rows on its
:class:`QueryRun` - the equivalence checks use this to compare result
multisets without re-running the workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graphdb.api import Database
from repro.graphdb.backends import BackendProfile
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import ExecutionMetrics
from repro.graphdb.query.ast import Query


@dataclass
class QueryRun:
    qid: str
    rows: int
    latency_ms: float
    wall_ms: float
    metrics: ExecutionMetrics
    #: Result rows, kept only when the workload ran with collect_rows.
    result_rows: list[tuple] | None = None


@dataclass
class WorkloadReport:
    backend: str
    graph_name: str
    runs: list[QueryRun] = field(default_factory=list)

    @property
    def total_latency_ms(self) -> float:
        return sum(run.latency_ms for run in self.runs)

    @property
    def total_wall_ms(self) -> float:
        return sum(run.wall_ms for run in self.runs)

    @property
    def total_metrics(self) -> ExecutionMetrics:
        total = ExecutionMetrics()
        for run in self.runs:
            total.merge(run.metrics)
        return total

    def latency_of(self, qid: str) -> float:
        return sum(r.latency_ms for r in self.runs if r.qid == qid)

    def summary(self) -> str:
        return (
            f"{self.graph_name} on {self.backend}: "
            f"{len(self.runs)} queries, "
            f"{self.total_latency_ms:.1f} ms simulated "
            f"({self.total_wall_ms:.1f} ms wall)"
        )


def run_queries(
    graph: PropertyGraph,
    profile: BackendProfile,
    queries: list[tuple[str, Query | str]],
    collect_rows: bool = False,
) -> WorkloadReport:
    """Execute ``queries`` (qid, text-or-AST pairs) on one session.

    A stored graph is opened first: ``connect(path, readonly=True).graph``.
    """
    # Materialize statistics outside the timed loop: the one-time
    # O(V+E) batch build must not inflate the first query's wall_ms.
    graph.statistics()
    database = Database(graph, profile=profile)
    report = WorkloadReport(backend=profile.name, graph_name=graph.name)
    with database.session() as session:
        for qid, query in queries:
            started = time.perf_counter()
            result = session.run(query)
            rows = [
                row for _, cols in result.batches() for row in zip(*cols)
            ] if collect_rows else None
            summary = result.consume()
            wall_ms = (time.perf_counter() - started) * 1000.0
            report.runs.append(
                QueryRun(
                    qid=qid,
                    rows=summary.rows,
                    latency_ms=summary.latency_ms,
                    wall_ms=wall_ms,
                    metrics=summary.metrics,
                    result_rows=rows,
                )
            )
    return report


def run_single(
    graph: PropertyGraph,
    profile: BackendProfile,
    query: Query | str,
    qid: str = "q",
    collect_rows: bool = False,
) -> QueryRun:
    return run_queries(
        graph, profile, [(qid, query)], collect_rows=collect_rows
    ).runs[0]
