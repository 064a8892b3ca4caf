"""Query executor: streaming pattern matching, filtering, aggregation.

The match/filter/project pipeline is a chain of generators over
fixed-slot binding tuples (one slot per pattern variable, allocated by
the planner), so no intermediate binding list is materialized and a
``LIMIT`` without aggregation short-circuits the whole pipeline: scans
and expands simply stop being pulled.  WHERE conjuncts arrive already
pushed down onto plan steps (see :mod:`~repro.graphdb.query.planner`),
and every expression is compiled once per query into a closure instead
of being interpreted per row.  ``ORDER BY`` + ``LIMIT`` keeps a bounded
heap (top-k) instead of sorting the full result.

All graph access flows through the
:class:`~repro.graphdb.session.GraphSession`, which records the work
counters the latency model consumes.

Aggregation follows Cypher semantics: when any return item contains an
aggregate function, the non-aggregated items become grouping keys;
``size(collect(x))`` style nesting is evaluated inside-out at group
level.  Aggregation (and full-sort ORDER BY) are the only pipeline
breakers - everything upstream of them still streams.

Planning is cost-based by default: the planner prices candidate
orderings against the graph's :class:`~repro.graphdb.statistics.
GraphStatistics` (built on first query, rebuilt once enough mutations
have made them stale), and plans are cached in the statistics
object's LRU plan cache keyed on the query, so repeated queries skip
parsing and planning until the next rebuild.  Construct the executor
with ``cost_based=False`` to force the legacy syntactic ordering.
:meth:`Executor.explain` renders the chosen plan; with
``analyze=True`` it also runs the query and pairs each step's
estimated row count with the rows it actually produced.

Which pipeline executes a plan - these generators, or the batch
operators of :mod:`~repro.graphdb.query.vectorized` - is settled by
one function, :meth:`Executor._batch_pipeline`: it asks the batch
compiler for this execution's pipeline and takes its refusal as the
answer.  Running a query and EXPLAINing it both go through it, so the
``mode=`` line EXPLAIN prints is the verdict the run would reach; a
refusal that follows from the query and plan alone is remembered
beside the cached plan, one that depends on the data, on whether the
graph is frozen or on the parameters never is.
"""

from __future__ import annotations

import heapq
import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.exceptions import (
    ParameterError,
    QueryError,
    QueryTimeoutError,
    ResourceLimitError,
)
from repro.graphdb import observe
from repro.graphdb.metrics import ExecutionMetrics
from repro.graphdb.observe.trace import Trace
from repro.graphdb.query.ast import (
    AGGREGATE_FUNCTIONS,
    BoolOp,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    NotOp,
    NullCheck,
    Parameter,
    PropertyRef,
    Query,
    ReturnItem,
    Star,
    Variable,
    contains_aggregate,
    parameters_used,
)
from repro.graphdb.query.functions import (
    apply_aggregate,
    apply_scalar,
    compare,
)
from repro.graphdb.query.parser import parse_query
from repro.graphdb.query.planner import (
    ExpandStep,
    JoinCheckStep,
    NodeSpec,
    Plan,
    ScanStep,
    build_plan,
)
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import hashable

_GUARDRAIL_TRIPS = observe.REGISTRY.labeled_counter(
    "repro_guardrail_trips_total",
    "kind",
    "Queries stopped by a resource guardrail (timeout, max_rows).",
)
_QUERY_PATHS = observe.REGISTRY.labeled_counter(
    "repro_query_path_total",
    "path",
    "Query executions per pipeline path (vectorized or tuple).",
)


@dataclass(frozen=True)
class VertexBinding:
    vid: int


@dataclass(frozen=True)
class EdgeBinding:
    eid: int


#: A binding is a flat tuple indexed by the planner's slot allocation.
Binding = tuple


@dataclass
class QueryResult:
    columns: list[str]
    rows: list[tuple]
    metrics: ExecutionMetrics
    latency_ms: float

    def single_value(self) -> object:
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryError(
                f"expected a single value, got {len(self.rows)} row(s)"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise QueryError(f"no column {name!r}") from None
        return [row[index] for row in self.rows]


RowFn = Callable[[Binding], object]


@dataclass
class _Prepared:
    """What the plan cache holds per query (a statistics rebuild
    empties the cache).

    Besides the plan, two memos of the batch compiler's work on it:
    a refusal that holds whatever the data and the parameters are, and
    the last compiled :class:`~repro.graphdb.query.vectorized.Pipeline`
    with its key - the graph's ``GraphArrays`` it was compiled over
    (the graph drops it every mutation epoch, so it stands for the
    CSR, the vid sets and the interned symbols too) and the values of
    the parameters the query uses.  A run whose key matches executes the
    pipeline as it is, binding only its own session, guard and
    counters; any other run compiles and replaces it, so one entry
    keeps at most one ``GraphArrays`` alive.
    """

    query: Query
    plan: Plan
    #: The ``$names`` the query uses, sorted: found once, at planning.
    params: tuple[str, ...] = ()
    #: Why the batch compiler refuses this pair whatever the data and
    #: the parameters are (``Refusal.shape``); None until it has.
    refusal: str | None = None
    #: ``(arrays, binding key, pipeline)`` of the last compile, or None.
    compiled: tuple | None = None


class _Evaluator:
    """Compiles expressions into closures over slot-tuple bindings.

    Binding slots hold raw vertex/edge ids; the planner records which
    kind each slot carries, so compiled closures read properties or
    wrap ids into :class:`VertexBinding` / :class:`EdgeBinding` output
    values without any per-row type dispatch.
    """

    def __init__(
        self,
        session: GraphSession,
        plan: Plan,
        params: dict[str, object] | None = None,
    ):
        self.session = session
        self.slots = plan.slots
        self.kinds = plan.slot_kinds
        self.params = params or {}

    def compile(self, expr: Expr) -> RowFn:
        if isinstance(expr, Literal):
            value = expr.value
            return lambda b: value
        if isinstance(expr, Parameter):
            # Parameters are fixed for one execution: capture the
            # bound value, not a per-row dict probe.
            value = _resolve_value(expr, self.params)
            return lambda b: value
        if isinstance(expr, Star):
            return lambda b: 1
        if isinstance(expr, Variable):
            slot = self.slots.get(expr.name)
            if slot is None:
                return _unbound(expr.name)
            if self.kinds[expr.name] == "edge":
                return lambda b: EdgeBinding(b[slot])
            return lambda b: VertexBinding(b[slot])
        if isinstance(expr, PropertyRef):
            slot = self.slots.get(expr.var)
            if slot is None:
                return _unbound(expr.var)
            prop = expr.prop
            if self.kinds[expr.var] == "edge":
                read_edge = self.session.read_edge_property
                return lambda b: read_edge(b[slot], prop)
            # Fused column reader: symbol id and column map resolved
            # once per compilation, one call per row after that.
            read_vertex = self.session.property_reader(prop)
            return lambda b: read_vertex(b[slot])
        if isinstance(expr, FuncCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                name = expr.name

                def misplaced(b):
                    raise QueryError(
                        f"aggregate {name}() outside aggregation context"
                    )

                return misplaced
            arg_fns = [self.compile(arg) for arg in expr.args]
            name = expr.name
            return lambda b: apply_scalar(name, [fn(b) for fn in arg_fns])
        if isinstance(expr, Comparison):
            lhs, rhs, op = (
                self.compile(expr.lhs), self.compile(expr.rhs), expr.op
            )
            return lambda b: compare(op, lhs(b), rhs(b))
        if isinstance(expr, NullCheck):
            inner = self.compile(expr.expr)
            if expr.negated:
                return lambda b: inner(b) is not None
            return lambda b: inner(b) is None
        if isinstance(expr, BoolOp):
            fns = [self.compile(op) for op in expr.operands]
            if expr.op == "and":
                return lambda b: all(fn(b) for fn in fns)
            return lambda b: any(fn(b) for fn in fns)
        if isinstance(expr, NotOp):
            inner = self.compile(expr.operand)
            return lambda b: not inner(b)
        raise QueryError(f"cannot evaluate expression {expr!r}")

    def compile_group(self, expr: Expr) -> Callable[[list], object]:
        """Compile a group-level (aggregating) expression."""
        if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
            if not expr.args:
                raise QueryError(f"{expr.name}() needs an argument")
            arg_fn = self.compile(expr.args[0])
            name, distinct, flatten = expr.name, expr.distinct, expr.flatten
            return lambda group: apply_aggregate(
                name, [arg_fn(b) for b in group],
                distinct=distinct, flatten=flatten,
            )
        if isinstance(expr, FuncCall):
            arg_fns = [self.compile_group(arg) for arg in expr.args]
            name = expr.name
            return lambda group: apply_scalar(
                name, [fn(group) for fn in arg_fns]
            )
        if not contains_aggregate(expr):
            row_fn = self.compile(expr)
            return lambda group: row_fn(group[0]) if group else None
        raise QueryError(
            f"unsupported aggregate nesting in {expr!r}"
        )  # pragma: no cover - parser produces FuncCall nests only


def _unbound(name: str) -> RowFn:
    def fn(b):
        raise QueryError(f"unbound variable {name!r}")

    return fn


def _resolve_value(value: object, params: dict[str, object]) -> object:
    """A plan-time value with any ``$parameter`` bound for this run."""
    if isinstance(value, Parameter):
        try:
            return params[value.name]
        except KeyError:
            raise ParameterError(
                f"missing query parameter ${value.name}"
            ) from None
    return value


def _resolve_props(
    props: tuple[tuple[str, object], ...], params: dict[str, object]
) -> tuple[tuple[str, object], ...] | None:
    """Bind folded property constraints; ``None`` = unsatisfiable.

    A ``$parameter`` bound to ``None`` makes the equality behave like
    ``= null`` - which matches nothing - so the whole constraint set
    becomes unsatisfiable rather than "property is absent".  A
    *literal* ``null`` in a node property map keeps its historical
    matches-absent semantics and passes through untouched.
    """
    if not props:
        return props
    resolved = []
    for name, value in props:
        if isinstance(value, Parameter):
            value = _resolve_value(value, params)
            if value is None:
                return None
        resolved.append((name, value))
    return tuple(resolved)


#: Parameter value types a compiled pipeline may be keyed on.
_KEYED_TYPES = (type(None), bool, int, str)


def _binding_key(names: tuple, params: dict) -> tuple | None:
    """The values of the parameters ``names``, as an exact key: ``1``,
    ``1.0`` and ``True`` differ, and so do ``0.0`` and ``-0.0``.  None
    for a value no key can stand for exactly (a list, a map, EXPLAIN's
    unbound marker): that binding is compiled, never kept."""
    key = []
    for name in names:
        value = params[name]
        kind = type(value)
        if kind is float:
            value = value.hex()
        elif kind not in _KEYED_TYPES:
            return None
        key.append((kind, value))
    return tuple(key)


def _validate_params(
    names: tuple[str, ...], parameters: dict[str, object] | None
) -> dict[str, object]:
    """``parameters`` itself, not a copy, once every name of ``names``
    is bound in it."""
    params = parameters or {}
    missing = [name for name in names if name not in params]
    if missing:
        listed = ", ".join(f"${name}" for name in missing)
        raise ParameterError(f"missing query parameter(s): {listed}")
    return params


class ExecutionGuard:
    """Per-execution resource budget: wall-clock deadline + row cap.

    The deadline is checked inside the streaming pipeline (once per
    binding pulled through the match stream), so a runaway traversal or
    an aggregation draining millions of bindings is interrupted, not
    just a slow consumer.  The row cap counts *emitted* result rows and
    raises when exceeded - it is a guardrail, not a silent ``LIMIT``:
    crossing it is an error the caller must see.
    """

    __slots__ = ("deadline", "timeout", "max_rows")

    def __init__(
        self,
        timeout: float | None = None,
        max_rows: int | None = None,
    ):
        if timeout is not None and timeout < 0:
            raise QueryError(f"timeout must be >= 0, got {timeout!r}")
        if max_rows is not None and max_rows < 0:
            raise QueryError(f"max_rows must be >= 0, got {max_rows!r}")
        self.timeout = timeout
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        self.max_rows = max_rows

    @property
    def armed(self) -> bool:
        return self.deadline is not None or self.max_rows is not None

    def check_deadline(self) -> None:
        if (
            self.deadline is not None
            and time.monotonic() > self.deadline
        ):
            _GUARDRAIL_TRIPS.inc("timeout")
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout}s timeout"
            )


def _guarded_bindings(
    stream: Iterable[Binding], guard: ExecutionGuard
) -> Iterator[Binding]:
    check = guard.check_deadline
    for binding in stream:
        check()
        yield binding


def _guarded_rows(
    rows: Iterable[tuple], guard: ExecutionGuard
) -> Iterator[tuple]:
    check = guard.check_deadline
    max_rows = guard.max_rows
    emitted = 0
    for row in rows:
        check()
        if max_rows is not None:
            emitted += 1
            if emitted > max_rows:
                _GUARDRAIL_TRIPS.inc("max_rows")
                raise ResourceLimitError(
                    f"query produced more than max_rows={max_rows} "
                    "row(s)"
                )
        yield row


def _passes(filters: list[RowFn], binding: Binding) -> bool:
    for fn in filters:
        if not fn(binding):
            return False
    return True


def _counted(
    stream: Iterable[Binding], counts: list[int], index: int
) -> Iterator[Binding]:
    """Count the bindings one step yields (EXPLAIN ANALYZE probe)."""
    for binding in stream:
        counts[index] += 1
        yield binding


#: Traced steps time their first pulls exactly, then 1 in every
#: ``_TRACE_SAMPLE_STRIDE`` (scaled back up) - small traces stay
#: exact while large scans don't pay two clock reads per row.
_TRACE_EXACT_PULLS = 16
_TRACE_SAMPLE_STRIDE = 16


def _timed_counted(
    stream: Iterable[Binding],
    counts: list[int],
    times: list[float],
    index: int,
) -> Iterator[Binding]:
    """The tracing variant of :func:`_counted`: same binding counts
    (one source of truth for trace spans *and* EXPLAIN ANALYZE), plus
    the inclusive wall time spent pulling this step's generator (which
    contains all upstream work - the iterator-model profile).  Past
    the first ``_TRACE_EXACT_PULLS`` pulls the clock is sampled (1 in
    ``_TRACE_SAMPLE_STRIDE``, scaled), so long streams pay the
    tracing budget per *sample*, not per row.  Only installed when a
    query runs with ``trace=True``; untraced executions never pay the
    per-binding clock reads."""
    perf = time.perf_counter
    it = iter(stream)
    exact = _TRACE_EXACT_PULLS
    stride = _TRACE_SAMPLE_STRIDE
    until_sample = 1
    while True:
        if exact > 0:
            exact -= 1
            started = perf()
            try:
                binding = next(it)
            except StopIteration:
                times[index] += perf() - started
                return
            times[index] += perf() - started
        else:
            until_sample -= 1
            if until_sample <= 0:
                until_sample = stride
                started = perf()
                try:
                    binding = next(it)
                except StopIteration:
                    times[index] += perf() - started
                    return
                times[index] += (perf() - started) * stride
            else:
                try:
                    binding = next(it)
                except StopIteration:
                    return
        counts[index] += 1
        yield binding


class Executor:
    """Executes parsed queries against one instrumented session.

    ``cost_based=False`` disables statistics-driven planning (and the
    plan cache) and falls back to the legacy syntactic ordering - the
    tests' reference plan order.
    ``vectorize=False`` pins every execution to the tuple-at-a-time
    generator pipeline; by default an execution runs the batch
    pipeline of :mod:`~repro.graphdb.query.vectorized` whenever its
    compiler accepts it (see :meth:`_batch_pipeline`), and this one
    otherwise.
    """

    def __init__(
        self,
        session: GraphSession,
        cost_based: bool = True,
        vectorize: bool = True,
    ):
        self.session = session
        self.cost_based = cost_based
        self.vectorize = vectorize

    def run(
        self,
        query: Query | str,
        parameters: dict[str, object] | None = None,
    ) -> QueryResult:
        return self._execute(self._prepare(query), parameters)

    def stream(
        self,
        query: Query | str,
        parameters: dict[str, object] | None = None,
        step_counts: list[int] | None = None,
        guard: ExecutionGuard | None = None,
        trace: Trace | None = None,
        report: object | None = None,
        chunks: bool = False,
    ) -> tuple[Query, "Plan", list[str], Iterator[tuple]]:
        """Lazily execute; returns ``(query, plan, columns, rows)`` -
        with ``chunks``, ``rows`` may yield ``(n, column lists)`` chunks
        instead of row tuples, and ``report.chunked`` says if it does.

        The row iterator pulls the match pipeline on demand, so a
        consumer that stops early (``LIMIT``-free point lookups, a
        driver cursor's ``single()``) never materializes the full
        result.  Session metrics accumulate until the caller collects
        them (see :meth:`~repro.graphdb.session.GraphSession.
        reset_metrics`); the driver's ``Result.consume()`` does this.
        ``step_counts`` (a zeroed list, one slot per plan step) makes
        the pipeline count each step's produced bindings, which
        ``EXPLAIN ANALYZE``-style summaries render as actual rows.
        ``guard`` imposes a deadline checked per binding inside the
        pipeline and a cap on emitted rows (see
        :class:`ExecutionGuard`).  ``trace`` records parse/plan phase
        spans and switches the pipeline to per-step inclusive timing
        (the driver settles the trace's operator spans from the same
        ``step_counts`` EXPLAIN ANALYZE uses).  ``report`` (a
        :class:`~repro.graphdb.query.vectorized.ExecutionReport`)
        receives which pipeline path this execution took and why.
        ``parameters`` is read, not copied, until the rows are drained.
        """
        prepared = self._prepare(query, trace)
        plan = prepared.plan
        if step_counts is not None and not step_counts:
            step_counts.extend([0] * len(plan.steps))
        if trace is not None:
            trace.step_times = [0.0] * len(plan.steps)
            trace.begin_execute()
        columns, rows = self._start(
            prepared,
            parameters,
            step_counts,
            guard,
            step_times=trace.step_times if trace is not None else None,
            report=report,
            chunks=chunks,
        )
        return prepared.query, plan, columns, rows

    def _prepare(
        self, query: Query | str, trace: Trace | None = None
    ) -> _Prepared:
        """Parse and plan, consulting the per-graph plan cache.

        The cache key is the query text, or - AST nodes are frozen
        dataclasses - the :class:`Query` itself, whose hash is taken
        once per AST; the one unhashable case (a list literal embedded
        in an expression) is planned afresh.  The rewriter's pre-parsed
        OPT queries therefore cache just like text does, and a warm run
        walks no tree: the parameter names it checks are found here,
        once.  With ``trace``, parse and plan each get a phase span; a
        cache hit collapses them into one instant ``plan`` span tagged
        ``cached``.
        """
        graph = self.session.graph
        stats = key = None
        if self.cost_based:
            stats = graph.statistics()
            key = query
            try:
                hash(key)
            except TypeError:  # AST embeds an unhashable (list) literal
                key = None
            cached = stats.plan_cache.get(key) if key is not None else None
            if cached is not None:
                if trace is not None:
                    trace.begin("plan").finish().attrs["cached"] = True
                return cached
        # Miss path only: untraced, nullcontext(name) is a no-op scope.
        span = trace.span if trace is not None else nullcontext
        parsed = query
        if isinstance(query, str):
            with span("parse"):
                parsed = parse_query(query)
        with span("plan"):
            plan = build_plan(
                parsed, graph, statistics=stats, cost_based=self.cost_based
            )
        names = tuple(sorted(parameters_used(parsed)))
        prepared = _Prepared(parsed, plan, names)
        if key is not None:
            stats.plan_cache.put(key, prepared)
        return prepared

    def _batch_pipeline(
        self,
        prepared: _Prepared,
        params: dict[str, object],
        report: object | None = None,
    ):
        """The one gate to the batch path: the compiled
        :class:`~repro.graphdb.query.vectorized.Pipeline` for this
        binding on the graph as it is now, or ``None`` with the reason
        on ``report``.

        The batch compiler decides, by compiling.  A refusal that
        follows from the query and plan alone is kept with the
        plan-cache entry, so a plan it cannot run pays for finding
        that out once per planning; any other (a column's kind, an
        unfrozen graph, a parameter's value) is this execution's
        only.  An accepted compile is kept there too, keyed by the
        graph's arrays and the parameter values (see
        :class:`_Prepared`), and handed out again while both match.
        Compiling charges no counter and produces no row, which is
        what lets EXPLAIN call this and drop the pipeline.
        """
        reason = prepared.refusal if self.vectorize else "disabled"
        if reason is None:
            from repro.graphdb.query import vectorized

            arrays = self.session.graph.arrays()
            key = _binding_key(prepared.params, params)
            compiled = prepared.compiled
            if (
                compiled is not None
                and compiled[0] is arrays
                and key is not None
                and compiled[1] == key
            ):
                return compiled[2]
            prepared.compiled = None
            try:
                pipeline = vectorized.build_pipeline(
                    prepared.query, prepared.plan, arrays, params
                )
            except vectorized.Refusal as refusal:
                reason = refusal.reason
                if refusal.shape:
                    prepared.refusal = reason
            else:
                if key is not None:
                    prepared.compiled = (arrays, key, pipeline)
                return pipeline
        if report is not None:
            report.reason = reason
        return None

    def _start(
        self,
        prepared: _Prepared,
        parameters: dict[str, object] | None,
        step_counts: list[int] | None = None,
        guard: ExecutionGuard | None = None,
        step_times: list[float] | None = None,
        report: object | None = None,
        chunks: bool = False,
    ) -> tuple[list[str], Iterator[tuple]]:
        """Compile one execution: ``(columns, lazy row iterator)``."""
        query, plan = prepared.query, prepared.plan
        params = _validate_params(prepared.params, parameters)
        pipeline = self._batch_pipeline(prepared, params, report)
        if pipeline is None:
            _QUERY_PATHS.inc("tuple")
            evaluator = _Evaluator(self.session, plan, params)
            stream = self._match_stream(
                plan, evaluator, step_counts, step_times
            )
            if guard is not None and guard.deadline is not None:
                # Checked per binding *before* projection, so pipeline
                # breakers (aggregation, full-sort ORDER BY) that drain
                # the match stream eagerly still honor the deadline.
                stream = _guarded_bindings(stream, guard)
            columns, rows = self._project(query, stream, evaluator)
            rows = (
                tuple(map(_fresh, row)) if list in set(map(type, row))
                else row for row in rows
            )
        else:
            _QUERY_PATHS.inc("vectorized")
            columns, rows = pipeline.run(
                self.session, guard, step_counts, step_times, report
            )
            rows = _fresh_columns(rows)
            if chunks and report is not None and not (
                query.distinct or query.order_by or guard and guard.armed
            ):
                report.chunked = True
                return columns, rows  # the projected columns as they are
            rows = (row for _, cols in rows for row in zip(*cols))
        if query.distinct:
            rows = _dedupe(rows)
        if query.order_by:
            rows = self._order(query, columns, rows)
        elif query.limit is not None:
            rows = itertools.islice(rows, query.limit)
        if guard is not None and guard.armed:
            rows = _guarded_rows(rows, guard)
        return columns, iter(rows)

    def _execute(
        self,
        prepared: _Prepared,
        parameters: dict[str, object] | None = None,
        step_counts: list[int] | None = None,
        report: object | None = None,
    ) -> QueryResult:
        columns, row_iter = self._start(
            prepared, parameters, step_counts, report=report
        )
        rows = list(row_iter)
        metrics = self.session.reset_metrics()
        metrics.rows = len(rows)
        metrics.queries = 1
        latency = self.session.profile.latency_ms(metrics)
        return QueryResult(columns, rows, metrics, latency)

    def explain(
        self,
        query: Query | str,
        analyze: bool = False,
        parameters: dict[str, object] | None = None,
    ) -> str:
        """Render the plan (steps, access paths, pushed predicates)
        and, as its last line, the execution path: ``mode=vectorized``
        or ``mode=tuple reason=<why>``.

        ``analyze=True`` additionally *executes* the query, counting
        the bindings each step produced, and renders estimated vs
        actual rows per step (``EXPLAIN ANALYZE``).  Short-circuiting
        still applies: under ``LIMIT``, actual counts reflect the rows
        the pipeline really pulled, not the full match.  Parameterized
        queries EXPLAIN without bindings; ANALYZE needs ``parameters``
        because it runs the query.

        The mode line is :meth:`_batch_pipeline`'s verdict on the
        graph as it is now, not a prediction.  With the run's
        ``parameters`` it is the run's exactly; a ``$param`` it was
        not given can refuse nothing, so the line is then what a run
        with an acceptable value would report.
        """
        prepared = self._prepare(query)
        from repro.graphdb.query import vectorized

        report = vectorized.ExecutionReport()
        counts = None
        if analyze:
            counts = [0] * len(prepared.plan.steps)
            self._execute(
                prepared, parameters, step_counts=counts, report=report
            )
        else:
            params = dict.fromkeys(prepared.params, vectorized.UNBOUND)
            params.update(parameters or {})
            if self._batch_pipeline(prepared, params, report) is not None:
                report.mode = "vectorized"
        return prepared.plan.describe(
            actual=counts, mode=report.mode, reason=report.fallback_reason
        )

    # ------------------------------------------------------------------
    # Pattern matching (generator pipeline)
    # ------------------------------------------------------------------
    def _match_stream(
        self,
        plan: Plan,
        evaluator: _Evaluator,
        step_counts: list[int] | None = None,
        step_times: list[float] | None = None,
    ) -> Iterator[Binding]:
        params = evaluator.params
        stream: Iterable[Binding] = ((),)
        for i, step in enumerate(plan.steps):
            filters = [evaluator.compile(f) for f in step.filters]
            if isinstance(step, ScanStep):
                stream = self._scan_stream(step, filters, stream, params)
            elif isinstance(step, ExpandStep):
                spec = plan.node_specs[step.to_var]
                stream = self._expand_stream(
                    step, spec, filters, stream, params
                )
            else:
                stream = self._join_stream(step, filters, stream)
            if step_times is not None and step_counts is not None:
                stream = _timed_counted(stream, step_counts, step_times, i)
            elif step_counts is not None:
                stream = _counted(stream, step_counts, i)
        return iter(stream)

    def _candidates(
        self, step: ScanStep, access: str, access_value: object
    ) -> list[int]:
        if access == "index":
            return self.session.index_lookup(
                step.access_label, step.access_prop, access_value
            )
        if access == "label":
            return self.session.label_scan(step.access_label)
        return self.session.graph.vertex_ids()

    def _scan_stream(
        self,
        step: ScanStep,
        filters: list[RowFn],
        source: Iterable[Binding],
        params: dict[str, object],
    ) -> Iterator[Binding]:
        labels = frozenset(step.check_labels) if step.check_labels else None
        props = _resolve_props(step.check_props, params)
        if props is None:
            return  # a $param bound to null: nothing can match
        access = step.access
        access_value = step.access_value
        if access == "index":
            access_value = _resolve_value(access_value, params)
            if access_value is None:
                return  # `= null` matches nothing
            try:
                hash(access_value)
            except TypeError:
                # An unhashable binding (a list) cannot key the index
                # buckets, but equality against stored values is still
                # well-defined: degrade to the label scan with the
                # lookup as a residual check - plan choice must never
                # change query semantics.
                access = "label"
                props = props + ((step.access_prop, access_value),)
        needs_check = labels is not None or bool(props)
        # Label/all scans with residual checks stream through the
        # session's columnar fast path: per-table label subsetting and
        # a zip over the checked property's column, instead of a
        # per-vertex accept probe.  Index scans keep the classic path
        # (their candidate set is already tiny).
        columnar = needs_check and access in ("label", "all")
        accept = self.session.accept_vertex
        matched: list[int] | None = None
        for binding in source:
            if matched is None:
                # First pass streams candidates lazily (so LIMIT can cut
                # the scan short) while memoizing accepted vertices for
                # any later cartesian-product passes.
                matched = []
                if columnar:
                    for vid in self.session.scan_rows(
                        step.access_label, labels, props
                    ):
                        matched.append(vid)
                        extended = binding + (vid,)
                        if not filters or _passes(filters, extended):
                            yield extended
                    continue
                for vid in self._candidates(step, access, access_value):
                    if needs_check and not accept(vid, labels, props):
                        continue
                    matched.append(vid)
                    extended = binding + (vid,)
                    if not filters or _passes(filters, extended):
                        yield extended
            else:
                for vid in matched:
                    extended = binding + (vid,)
                    if not filters or _passes(filters, extended):
                        yield extended

    def _expand_stream(
        self,
        step: ExpandStep,
        spec: NodeSpec,
        filters: list[RowFn],
        source: Iterable[Binding],
        params: dict[str, object],
    ) -> Iterator[Binding]:
        labels = frozenset(spec.labels) if spec.labels else None
        props = _resolve_props(tuple(spec.props.items()), params)
        if props is None:
            return  # a $param bound to null: nothing can match
        needs_check = labels is not None or bool(props)
        from_slot = step.from_slot
        bind_rel = step.rel_slot is not None
        edge_spec = step.edge
        plain = edge_spec.is_plain_hop
        expand_pairs = self.session.expand_pairs
        accept = self.session.accept_vertex
        for binding in source:
            vid = binding[from_slot]
            if plain:
                pairs = expand_pairs(
                    vid, edge_spec.labels, step.walk_direction
                )
            else:
                pairs = self._expand_paths(
                    vid, edge_spec.labels, step.walk_direction,
                    edge_spec.min_hops, edge_spec.max_hops,
                )
            for eid, neighbor in pairs:
                if needs_check and not accept(neighbor, labels, props):
                    continue
                if bind_rel:
                    extended = binding + (neighbor, eid)
                else:
                    extended = binding + (neighbor,)
                if not filters or _passes(filters, extended):
                    yield extended

    def _join_stream(
        self,
        step: JoinCheckStep,
        filters: list[RowFn],
        source: Iterable[Binding],
    ) -> Iterator[Binding]:
        edge_spec = step.edge
        plain = edge_spec.is_plain_hop
        for binding in source:
            src_vid = binding[step.src_slot]
            dst_vid = binding[step.dst_slot]
            if plain:
                # One probe of src's adjacency for dst, not an expand.
                matched_eid = self.session.edge_between(
                    src_vid, dst_vid, edge_spec.labels, edge_spec.direction
                )
            else:
                matched_eid = None
                for eid, endpoint in self._expand_paths(
                    src_vid, edge_spec.labels, edge_spec.direction,
                    edge_spec.min_hops, edge_spec.max_hops,
                ):
                    if endpoint == dst_vid:
                        matched_eid = eid
                        break
            if matched_eid is None:
                continue
            if step.rel_slot is not None:
                extended = binding + (matched_eid,)
            else:
                extended = binding
            if not filters or _passes(filters, extended):
                yield extended

    def _expand_paths(
        self,
        vid: int,
        labels: tuple[str, ...],
        direction: str,
        min_hops: int,
        max_hops: int,
    ) -> list[tuple[int, int]]:
        """Variable-length (eid, endpoint) pairs per Cypher path rules.

        Each distinct path yields one result whose ``eid`` is the last
        edge taken; relationships never repeat within one path.
        """
        results: list[tuple[int, int]] = []
        if min_hops == 0:
            results.append((-1, vid))
        # DFS over paths; Cypher forbids reusing a relationship within
        # one path but allows revisiting vertices.
        stack: list[tuple[int, int, frozenset[int]]] = [
            (vid, 0, frozenset())
        ]
        expand_pairs = self.session.expand_pairs
        while stack:
            current, depth, used = stack.pop()
            if depth == max_hops:
                continue
            for eid, neighbor in expand_pairs(current, labels, direction):
                if eid in used:
                    continue
                if depth + 1 >= min_hops:
                    results.append((eid, neighbor))
                stack.append((neighbor, depth + 1, used | {eid}))
        return results

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def _project(
        self,
        query: Query,
        stream: Iterator[Binding],
        evaluator: _Evaluator,
    ) -> tuple[list[str], Iterable[tuple]]:
        items = query.return_items
        columns = [
            item.output_name(i) for i, item in enumerate(items)
        ]
        has_aggregate = any(
            contains_aggregate(item.expr) for item in items
        )
        if not has_aggregate:
            fns = [evaluator.compile(item.expr) for item in items]
            if len(fns) == 1:
                fn = fns[0]
                rows = ((fn(b),) for b in stream)
            else:
                rows = (tuple(fn(b) for fn in fns) for b in stream)
            return columns, rows

        grouping = [
            evaluator.compile(item.expr)
            for item in items
            if not contains_aggregate(item.expr)
        ]
        groups: dict[object, list[Binding]] = {}
        setdefault = groups.setdefault
        if len(grouping) == 1:
            key_fn = grouping[0]
            for binding in stream:
                setdefault(hashable(key_fn(binding)), []).append(binding)
        else:
            for binding in stream:
                key = tuple(hashable(fn(binding)) for fn in grouping)
                setdefault(key, []).append(binding)
        if not groups and not grouping:
            groups[()] = []  # global aggregate over zero matches
        group_fns = [evaluator.compile_group(item.expr) for item in items]
        rows = [
            tuple(fn(group) for fn in group_fns)
            for group in groups.values()
        ]
        return columns, rows

    def _order(
        self, query: Query, columns: list[str], rows: Iterable[tuple]
    ) -> list[tuple]:
        indices: list[tuple[int, bool]] = []
        for order in query.order_by:
            index = _order_column(order.expr, query.return_items, columns)
            indices.append((index, order.descending))
        if query.limit is not None:
            # Bounded heap: top-k without materializing a full sort.
            def key(row: tuple) -> tuple:
                return tuple(
                    _Descending(_sort_key(row[i])) if descending
                    else _sort_key(row[i])
                    for i, descending in indices
                )

            return heapq.nsmallest(query.limit, rows, key=key)
        rows = list(rows)
        for index, descending in reversed(indices):
            rows = sorted(
                rows,
                key=lambda row: _sort_key(row[index]),
                reverse=descending,
            )
        return rows


class _Descending:
    """Inverts comparison order for DESC keys inside the top-k heap."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Descending) and other.value == self.value
        )


def _order_column(
    expr: Expr, items: tuple[ReturnItem, ...], columns: list[str]
) -> int:
    if isinstance(expr, Variable) and expr.name in columns:
        return columns.index(expr.name)
    for i, item in enumerate(items):
        if item.expr == expr:
            return i
    raise QueryError(
        "ORDER BY must reference a returned alias or expression"
    )


def _sort_key(value: object) -> tuple:
    if value is None:
        return (1, 0, "")
    if isinstance(value, bool):
        return (0, 0, int(value))
    if isinstance(value, (int, float)):
        return (0, 0, value)
    if isinstance(value, str):
        return (0, 1, value)
    return (0, 2, str(value))


def _dedupe(rows: Iterable[tuple]) -> Iterator[tuple]:
    seen: set = set()
    for row in rows:
        key = tuple(hashable(v) for v in row)
        if key not in seen:
            seen.add(key)
            yield row


def _fresh(value: object) -> object:
    """A value as it leaves the executor: a list, and each list in it, a
    fresh copy, so that changing a result changes nothing stored (only
    the graph's mutation methods write, keeping the indexes, the undo
    log and the WAL in step)."""
    if not isinstance(value, list):
        return value
    for item in value:
        if isinstance(item, list):  # a collect() of stored lists
            return [_fresh(v) for v in value]
    return value.copy()


def _fresh_columns(chunks):
    """``(n, column lists)`` chunks with :func:`_fresh` lists; a column
    that holds none (one type scan, in C) passes as it is."""
    for n, cols in chunks:
        yield n, [
            list(map(_fresh, col)) if list in set(map(type, col)) else col
            for col in cols
        ]
