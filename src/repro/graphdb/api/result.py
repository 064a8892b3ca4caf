"""Driver result surface: :class:`Record`, :class:`Result`,
:class:`ResultSummary`.

A :class:`Result` is a *lazy* cursor over one query execution.  A
row-level execution (the tuple path, aggregation, ``DISTINCT`` /
``ORDER BY`` / ``LIMIT``, a guard) is read row by row on demand, so
consuming only the first record of an un-aggregated query never
materializes the full match; the batch path's plain projection
arrives as ``(n, column lists)`` chunks.  Iterating yields
:class:`Record` s - tuples keyed by column name (``record["name"]``,
``record[0]``, ``record.data()``) built one per row actually
iterated, by ``map`` of the column tuple's cached row class over the
chunk's rows: tuple's own constructor, no Python frame per row.
:meth:`Result.batches` hands out column chunks and builds none.  The
cursor itself (:class:`_Cursor`) is shared with
:class:`~repro.graphdb.api.remote.RemoteResult`.

``consume()`` drains whatever the caller did not read and returns a
:class:`ResultSummary` carrying the work counters, the simulated
backend latency, and the executed plan rendered with estimated *and*
actual rows per step (the driver always runs with step counting on).
Exhausting the cursor computes the same summary, so iterating to the
end then calling ``consume()`` costs nothing extra.  What a summary
can derive - the latency, the plan text, an AST query's text - it
derives when first read.

A session keeps at most one result open: starting a new query first
detaches the previous result by buffering its remaining chunks, which
also settles its metrics (the underlying
:class:`~repro.graphdb.session.GraphSession` counts work globally, so
attribution requires draining before the next query starts).
"""

from __future__ import annotations

import time
from collections import deque
from functools import lru_cache
from itertools import chain, count, islice
from operator import itemgetter
from typing import Iterator

from repro.exceptions import QueryError, ResourceLimitError
from repro.graphdb import faults, observe
from repro.graphdb.metrics import ExecutionMetrics
from repro.graphdb.observe.trace import Trace
from repro.graphdb.query.ast import Query, query_text

_QUERIES = observe.REGISTRY.counter(
    "repro_queries_total", "Driver query executions settled."
)
_QUERY_ROWS = observe.REGISTRY.counter(
    "repro_query_rows_total", "Records produced by driver executions."
)
_QUERY_SECONDS = observe.REGISTRY.histogram(
    "repro_query_seconds",
    help="Driver query wall time, run() to settled cursor (parse, plan "
    "and compile included).",
)


class _Row(tuple):
    """A :class:`Record`'s accessors.  One subclass per column tuple
    (:func:`_row_class`) adds its ``_keys``; neither defines
    ``__new__`` or ``__init__``, so ``row_class(values)`` is tuple's
    own constructor, and ``map`` builds a result's rows with no Python
    frame per row."""

    __slots__ = ()
    _keys: tuple[str, ...] = ()

    def keys(self) -> list[str]:
        return list(self._keys)

    def values(self) -> list:
        return list(self)

    def items(self) -> list[tuple[str, object]]:
        return list(zip(self._keys, self))

    def data(self) -> dict[str, object]:
        """The record as a plain ``{column: value}`` dict."""
        return dict(zip(self._keys, self))

    def get(self, key: str, default: object = None) -> object:
        try:
            return tuple.__getitem__(self, self._keys.index(key))
        except ValueError:
            return default

    def __getitem__(self, key: str | int) -> object:
        if isinstance(key, str):
            try:
                key = self._keys.index(key)
            except ValueError:
                raise KeyError(key) from None
        return tuple.__getitem__(self, key)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Row):
            return self._keys == other._keys and tuple.__eq__(self, other)
        # tuple's own == would match a plain tuple of the same values.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def _unordered(self, other: object) -> bool:
        raise TypeError("Records have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        return Record, (list(self._keys), tuple(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self._keys, self))
        return f"<Record {inner}>"


@lru_cache(maxsize=256)
def _row_class(keys: tuple[str, ...]) -> type[_Row]:
    """The row class of one column tuple, shared by every result with
    those columns: ``type()`` costs ~17 us, paid once per tuple."""
    return type("Record", (_Row,), {"__slots__": (), "_keys": keys})


class _RecordType(type):
    """``Record``'s metaclass: calling ``Record`` builds a row of the
    cached class, and every row class counts as a ``Record``."""

    def __call__(cls, keys, values):
        return _row_class(tuple(keys))(values)

    def __instancecheck__(cls, instance: object) -> bool:
        return isinstance(instance, _Row)

    def __subclasscheck__(cls, subclass: type) -> bool:
        return issubclass(subclass, _Row)


class Record(metaclass=_RecordType):
    """One result row: ordered values addressable by column name.

    ``Record(keys, values)`` returns a tuple of ``values`` whose class
    holds ``keys``: ``record["name"]`` (the first column of that name;
    ``KeyError`` when there is none), ``record[0]``, slices, ``get``,
    ``keys()`` / ``values()`` / ``items()`` / ``data()``, ``len`` and
    iteration, and ``in`` tests column names.  A record equals only a
    record with equal keys and values - never a tuple or a list - and
    has neither a hash nor an order.  Being a tuple, it also has
    tuple's ``count``, ``index`` and ``+``, and another tuple subclass
    (a namedtuple) on the left of ``==`` compares by values alone.
    """


class ResultSummary:
    """What one consumed query execution did."""

    __slots__ = (
        "_query", "parameters", "columns", "rows", "metrics", "_profile",
        "_latency_ms", "elapsed_ms", "plan_digest", "trace", "mode",
        "fallback_reason", "_plan", "_plan_actual", "_plan_text",
    )

    def __init__(
        self,
        query: str | Query,
        parameters: dict[str, object],
        columns: list[str],
        rows: int,
        metrics: ExecutionMetrics,
        profile,
        plan,
        plan_actual: list[int],
        elapsed_ms: float = 0.0,
        trace: Trace | None = None,
        mode: str = "tuple",
        fallback_reason: str | None = None,
    ):
        self._query = query
        self.parameters = parameters
        #: Output column names, in RETURN order.
        self.columns = columns
        #: Records produced (and pulled) by this execution.
        self.rows = rows
        #: Work counters (vertex/property reads, traversals, pages).
        self.metrics = metrics
        self._profile = profile
        self._latency_ms: float | None = None
        #: Real wall-clock time, ``session.run()`` to settled cursor:
        #: parse, plan and compile included.
        self.elapsed_ms = elapsed_ms
        #: Short digest of the executed plan's shape (the slow-query
        #: event and traces carry the same one).
        self.plan_digest = plan.fingerprint
        #: The span tree recorded with ``session.run(..., trace=True)``
        #: (``None`` on untraced executions).
        self.trace = trace
        #: Which pipeline ran this execution: ``"vectorized"`` (the
        #: batch path) or ``"tuple"`` (the generator pipeline).
        self.mode = mode
        #: Why a ``"tuple"`` execution did not take the batch path
        #: (the batch compiler's refusal, or ``"disabled"``); ``None``
        #: when it did.
        self.fallback_reason = fallback_reason
        self._plan = plan
        self._plan_actual = plan_actual
        self._plan_text: str | None = None

    @property
    def query(self) -> str:
        """The query's text: as given, or a query AST rendered back to
        Cypher on first read."""
        if not isinstance(self._query, str):
            self._query = query_text(self._query)
        return self._query

    @property
    def latency_ms(self) -> float:
        """Simulated backend latency for :attr:`metrics`, computed on
        first read."""
        if self._latency_ms is None:
            self._latency_ms = self._profile.latency_ms(self.metrics)
        return self._latency_ms

    @property
    def plan(self) -> str:
        """The executed plan, one step per line, with estimated vs
        actual row counts (``EXPLAIN ANALYZE`` rendering).

        Rendered lazily on first access: hot loops that ``consume()``
        every execution (the workload runner, the API benchmark) never
        pay for the string formatting.
        """
        if self._plan_text is None:
            self._plan_text = self._plan.describe(
                actual=self._plan_actual, mode=self.mode,
                reason=self.fallback_reason,
            )
        return self._plan_text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultSummary rows={self.rows} "
            f"latency_ms={self.latency_ms:.3f}>"
        )


#: Rows :meth:`_Cursor.batches` gathers into one chunk at most.
_BATCH_ROWS = 1024


class _Cursor:
    """The cursor both drivers share.  Rows arrive as ``(n, column
    lists)`` chunks - the batch path's projected columns, a RECORD
    frame - each dropped once its last row is handed out, or straight
    from a row-level execution; a :class:`Record` exists per row
    iterated.  A subclass provides ``_pull()`` (the source's next
    chunk, or ``None`` having settled: set ``_summary``) and
    ``_drain(keep)`` (settle now, keeping or dropping what is left).
    """

    def __init__(self, columns: list[str]):
        self._columns = columns
        #: Chunks pulled and not yet handed out (after a detach, or a
        #: pull that took several frames).
        self._chunks: deque[tuple[int, list[list]]] = deque()
        #: Unread rows: of the chunk being iterated - or, for a
        #: row-level execution, of the executor itself.
        self._rows: Iterator[tuple] = iter(())
        #: Rows pulled from the source so far.
        self._pulled = 0
        self._summary = None

    def keys(self) -> list[str]:
        """Output column names, in RETURN order."""
        return list(self._columns)

    def _next_chunk(self) -> tuple[int, list[list]] | None:
        if self._chunks:
            return self._chunks.popleft()
        return self._pull() if self._summary is None else None

    def _runs(self) -> Iterator[Iterator[tuple]]:
        """The row iterators to read in turn: the unread rows, then
        each further chunk's.  Only its caller's ``chain`` resumes it,
        once per chunk, never per row."""
        while True:
            rows = self._rows
            yield rows
            if rows is self._rows:  # else single() put rows back
                chunk = self._next_chunk()
                if chunk is None:
                    return
                self._rows = zip(*chunk[1])

    def batches(self) -> Iterator[tuple[int, list[list]]]:
        """Remaining rows as ``(n, columns)`` chunks - ``columns[i][j]``
        is column ``i`` of the chunk's row ``j`` - as the executor
        produced them, no :class:`Record` built (drains the cursor)."""
        while rest := list(islice(self._rows, _BATCH_ROWS)):
            yield len(rest), list(map(list, zip(*rest, strict=True)))
        yield from iter(self._next_chunk, None)

    def __iter__(self) -> Iterator[Record]:
        return map(
            _row_class(tuple(self._columns)),
            chain.from_iterable(self._runs()),
        )

    def single(self) -> Record:
        """Exactly one record; raises :class:`QueryError` otherwise."""
        records = list(islice(self, 2))
        if len(records) == 1:
            return records[0]
        if not records:
            raise QueryError("expected a single record, got none")
        # Put them back so the cursor stays usable for debugging.
        self._rows = chain([tuple(r) for r in records], self._rows)
        raise QueryError("expected a single record, got more than one")

    def values(self) -> list[list]:
        """Remaining records as plain value lists (drains the cursor)."""
        return list(map(list, chain.from_iterable(self._runs())))

    def records(self) -> list[Record]:
        """Remaining records, materialized (drains the cursor)."""
        return list(self)

    def consume(self):
        """Discard any unread records and return the run's summary."""
        self._drain(keep=False)
        return self._summary

    def _detach(self) -> None:
        """Buffer everything left so the session can run a new query
        (which settles this one's counters, or drops it server-side)."""
        self._drain(keep=True)


class Result(_Cursor):
    """Lazy cursor over one query execution (iterate to stream)."""

    def __init__(
        self,
        owner,
        query: str | Query,
        parameters: dict[str, object],
        columns: list[str],
        rows: Iterator,
        plan,
        step_counts: list[int],
        trace: Trace | None,
        report,
        started: float,
    ):
        super().__init__(columns)
        self._owner = owner
        self._query = query
        self._parameters = parameters
        #: Rows read from a row-level execution: counted as they pass,
        #: by ``zip`` against this, with no Python frame per row.
        self._tally = count()
        if report.chunked:
            self._source = rows
        else:
            self._source = iter(())
            self._rows = map(itemgetter(0), zip(rows, self._tally))
        self._plan = plan
        self._step_counts = step_counts
        self._trace = trace
        self._report = report
        #: ``perf_counter()`` taken in ``session.run``, before parse.
        self._started = started
        #: Process-global fault/retry counters at creation; _settle
        #: reports the delta, attributing storage-layer retry activity
        #: to the execution that was the open unit of work.
        self._retries = faults.REGISTRY.retries
        self._injected = faults.REGISTRY.injected

    def _pull(self) -> tuple[int, list[list]] | None:
        chunk = next(self._source, None)
        if chunk is None:
            self._settle()
            return None
        self._pulled += chunk[0]
        return chunk

    def _drain(self, keep: bool) -> None:
        """Pull the pipeline dry, keeping the chunks or only counting
        their rows.  ``keep`` is the detach path: a guardrail trip on
        an *abandoned* cursor settles quietly instead of surfacing
        from the unrelated ``session.run`` that detached it; anyone
        actively iterating or consuming still sees the error."""
        kept = []
        try:
            for chunk in self.batches():
                if keep:
                    kept.append(chunk)
        except ResourceLimitError:
            self._settle()
            if not keep:
                raise
        self._chunks.extend(kept)

    def _settle(self) -> None:
        """The pipeline is exhausted: collect metrics into a summary."""
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        graph_session = self._owner._graph_session
        metrics = graph_session.reset_metrics()
        rows = self._pulled = self._pulled + next(self._tally)
        metrics.rows = rows
        metrics.queries = 1
        registry = faults.REGISTRY
        metrics.io_retries = registry.retries - self._retries
        metrics.faults_injected = registry.injected - self._injected
        plan = self._plan
        report = self._report
        mode = report.mode
        reason = report.fallback_reason
        if self._trace is not None:
            self._trace.complete(
                plan.step_texts(),
                [step.est_rows for step in plan.steps],
                self._step_counts,
                rows,
                mode=mode,
                reason=reason,
            )
        _QUERIES.inc()
        _QUERY_ROWS.inc(rows)
        _QUERY_SECONDS.observe(elapsed_ms / 1000.0)
        summary = self._summary = ResultSummary(
            self._query, self._parameters, list(self._columns), rows,
            metrics, graph_session.profile, plan, self._step_counts,
            elapsed_ms, self._trace, mode, reason,
        )
        threshold = observe.EVENTS.slow_query_ms
        if threshold is not None and elapsed_ms >= threshold:
            observe.EVENTS.slow_query(
                elapsed_ms,
                summary.query,
                plan.fingerprint,
                rows,
                metrics.as_dict(),
                mode,
                reason,
            )
        self._owner._result_settled(self)
