"""The driver :class:`Session`: parameterized queries and transactions.

A session owns one instrumented
:class:`~repro.graphdb.session.GraphSession` (page cache, work
counters) and one :class:`~repro.graphdb.query.executor.Executor`
(plan cache via the graph's statistics), and exposes the surface real
graph drivers do:

* :meth:`Session.run` - execute a Cypher-subset query with ``$name``
  parameters bound per call.  Plans are cached per query *shape*, so a
  hot parameterized query parses and plans once and then only binds;
* :meth:`Session.begin_tx` - open an explicit
  :class:`~repro.graphdb.api.transaction.Transaction`;
* a lazy :class:`~repro.graphdb.api.result.Result` cursor per query,
  with ``consume()`` returning the run's metrics and executed plan.

Sessions are cheap; create one per unit of work and close it (or use
``with``).  A session keeps at most one result streaming at a time:
starting a new query buffers the previous result's remaining records
first, settling its metrics.
"""

from __future__ import annotations

from time import perf_counter

from repro.exceptions import TransactionError
from repro.graphdb.api.result import Result
from repro.graphdb.api.transaction import Transaction
from repro.graphdb.observe.trace import Trace
from repro.graphdb.query.ast import Query, query_text
from repro.graphdb.query.executor import ExecutionGuard, Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession


class Session:
    """One unit-of-work handle on a :class:`~repro.graphdb.api.
    database.Database`."""

    def __init__(
        self,
        database,
        profile=None,
        cache=None,
    ):
        self._database = database
        self._graph_session = GraphSession(
            database.graph, profile or database.profile, cache
        )
        self._executor = Executor(self._graph_session)
        self._open_result: Result | None = None
        self._transaction: Transaction | None = None
        self._last_summary = None
        self._closed = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run(
        self,
        query: str | Query,
        parameters: dict[str, object] | None = None,
        timeout: float | None = None,
        max_rows: int | None = None,
        trace: bool = False,
        **params: object,
    ) -> Result:
        """Execute a query; parameters come from ``parameters`` and/or
        keyword arguments (keywords win on collision)::

            session.run("MATCH (d:Drug {id: $id}) RETURN d.name", id=7)

        ``timeout`` (seconds) arms a wall-clock deadline checked inside
        the executor's streaming loop - expiry raises
        :class:`~repro.exceptions.QueryTimeoutError` from whichever
        call is pulling the cursor.  ``max_rows`` caps the number of
        records the query may *produce*; exceeding it raises
        :class:`~repro.exceptions.ResourceLimitError` (unlike
        ``LIMIT``, which silently stops).  ``trace=True`` records a
        span tree (parse -> plan -> execute, with per-operator child
        spans) surfaced as ``summary.trace`` once the cursor settles -
        the per-step timing adds overhead, so it is opt-in per query.
        """
        self._require_open()
        self._finish_open_result()
        # Past the detach (the old query's time), before parse and plan.
        started = perf_counter()
        if parameters:
            params = {**parameters, **params}
        guard = (
            ExecutionGuard(timeout=timeout, max_rows=max_rows)
            if timeout is not None or max_rows is not None
            else None
        )
        trace_obj = (
            Trace(query if isinstance(query, str) else query_text(query))
            if trace
            else None
        )
        step_counts: list[int] = []
        report = ExecutionReport()
        _, plan, columns, rows = self._executor.stream(
            query,
            params,
            step_counts=step_counts,
            guard=guard,
            trace=trace_obj,
            report=report,
            chunks=True,
        )
        result = Result(
            self, query, params, columns, rows, plan, step_counts,
            trace_obj, report, started,
        )
        self._open_result = result
        return result

    def explain(
        self,
        query: str | Query,
        analyze: bool = False,
        parameters: dict[str, object] | None = None,
        **params: object,
    ) -> str:
        """The plan for ``query`` (``analyze=True`` also executes it)."""
        self._require_open()
        self._finish_open_result()
        bound = {**(parameters or {}), **params}
        return self._executor.explain(
            query, analyze=analyze, parameters=bound or None
        )

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin_tx(self) -> Transaction:
        """Open an explicit transaction (one at a time per graph).

        Read-only databases (``connect(..., readonly=True)``) refuse:
        their graph is a recovered point-in-time view with no WAL
        attached, so any mutation would silently never be durable.
        """
        self._require_open()
        if getattr(self._database, "readonly", False):
            raise TransactionError(
                "database was opened read-only; writes are rejected "
                "(reopen without readonly=True to mutate)"
            )
        if self._transaction is not None and not self._transaction.closed:
            raise TransactionError(
                "this session already has an open transaction"
            )
        # Settle any streaming result first: its remaining records
        # must capture pre-transaction state, not rows the transaction
        # later mutates (or rolls back).
        self._finish_open_result()
        self._transaction = Transaction(self)
        return self._transaction

    # ------------------------------------------------------------------
    # Lifecycle / plumbing
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Settle the open result and roll back any open transaction."""
        if self._closed:
            return
        self._finish_open_result()
        if self._transaction is not None and not self._transaction.closed:
            self._transaction.rollback()
        self._transaction = None
        self._closed = True

    def last_summary(self):
        """The most recently settled result's summary (or ``None``)."""
        return self._last_summary

    def _store(self):
        return self._database.store

    def _finish_open_result(self) -> None:
        if self._open_result is not None:
            self._open_result._detach()

    def _result_settled(self, result: Result) -> None:
        if self._open_result is result:
            self._open_result = None
        self._last_summary = result._summary

    def _require_open(self) -> None:
        if self._closed:
            raise TransactionError("session is closed")

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
