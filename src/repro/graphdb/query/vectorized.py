"""Vectorized (batch-at-a-time) execution over the columnar core.

The tuple executor in :mod:`~repro.graphdb.query.executor` interprets
one binding at a time through a chain of Python generators.  This
module provides the batch alternative: :func:`build_pipeline` compiles
a plan into a pipeline of operators that each process a :class:`Batch`
- a set of parallel vid/eid arrays plus a selection mask - using numpy
kernels over the columnar core's flat arrays:

* **Fused filter+project scans** gather an entire
  :class:`~repro.graphdb.columnar.VertexTable` column per batch
  instead of probing it per row;
* **Mask kernels** compile single-column predicates
  (``= <> < <= > >=``, ``IS [NOT] NULL``, AND/OR/NOT folding) over
  int64/float64 columns with presence-mask handling;
* **CSR-slice expansion** joins a whole batch of source vertices over
  the frozen :class:`~repro.graphdb.view.GraphView` offset arrays
  (``repeat``/``cumsum`` arithmetic) instead of per-vertex iteration;
* **Column aggregation**: every aggregating RETURN, global or
  grouped, goes through one consumer (:func:`_compile_grouped`).  It
  keeps the id columns, groups on ids, replays the tuple path's
  re-read charges in its order and folds each RETURN item as one
  column function: COUNT (and SIZE of COLLECT) and int SUM/AVG/MIN/
  MAX by one ``reduceat`` - exact to ``apply_aggregate``, int sums
  only while they cannot overflow - and DISTINCT, COLLECT, float
  folds and SIZE/HEAD/COALESCE wrappers by the tuple path's own
  ``apply_aggregate`` / ``apply_scalar``, group by group.

The contract with the tuple path is *strict equivalence*: identical
rows in identical order, and identical work counters (the session's
vertex/property reads, index lookups, edge traversals, and page
touches - always equal in total, split equally into hits and misses
when the cache holds the query's pages: the two paths touch in
different orders, which an LRU that evicts mid-query can tell apart,
docs/ARCHITECTURE.md "Caveats"), so the differential harness in
``tests/graphdb/test_differential.py`` can assert multiset equality
and every existing metrics-sensitive test keeps passing regardless of
which path ran.  Page touches are charged one operator call at a time
(:func:`_charge_pages` -> ``GraphSession.charge_pages``): every row's
page in access order, settled by ``LruPageCache.touch_many`` in two
passes over the call's distinct pages.  That is exact at every cache
size - while the distinct pages fit the cache none of them can be
evicted before the call ends, so repeats hit, first touches decide the
misses and last touches the recency order; a call that does not fit
runs the per-touch loop itself.

**One gate.**  Whether a query can run here is decided in one place:
the compile itself.  Every construct the batch path has no operator
for raises :class:`Refusal` at the site that would have to compile it
- a step list that is not one label/all scan followed by plain hops
and a predicate that is not a single vertex column against a constant
(``plan``), ``LIMIT`` without ``ORDER BY``, whose short-circuit
laziness batch execution would coarsen (``limit``), a RETURN item
that is not a leaf or an aggregate of one (``return-shape`` /
``aggregate-shape`` / ``unbound-variable``) - and every value the
kernels cannot treat exactly as the tuple path does raises in the one
guard that looks at it: object-typed (string, bool, list, mixed)
columns behind a comparison or a numeric fold - returning, grouping
on, counting and collecting them is fine, they are gathered as they
are - constants that are not numbers, int64 ranges where float
promotion loses precision, an expansion without a valid frozen view.
Nothing qualifies a plan ahead of the compile and nothing predicts
its outcome beside it: the executor runs :func:`build_pipeline` to
execute, runs it and drops the result to EXPLAIN, and remembers a
refusal marked :attr:`Refusal.shape` with the cached plan.  A query
with several causes reports the first one the compile meets, on both
surfaces.

**Compiled once, bound per run.**  :func:`build_pipeline` reads the
plan, the graph's :class:`GraphArrays` and the parameter values, and
nothing else; the :class:`Pipeline` it returns takes the session (its
metrics and page cache), the guard, the step counters and the report
as arguments of :meth:`Pipeline.run`.  The executor therefore keeps
the last compiled pipeline with the cached plan and runs it again
while the arrays object and the parameter values are the same.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graphdb.columnar import KIND_FLOAT, KIND_INT
from repro.graphdb.query.ast import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
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
    Star,
    Variable,
    contains_aggregate,
)
from repro.graphdb.query.executor import (
    EdgeBinding,
    ExecutionGuard,
    VertexBinding,
    _resolve_props,
    _resolve_value,
)
from repro.graphdb.query.functions import apply_aggregate, apply_scalar
from repro.graphdb.query.planner import ExpandStep, Plan, ScanStep
from repro.graphdb.statistics import hashable

#: Rows per scan batch.  Large enough to amortize kernel dispatch,
#: small enough that a batch's column slices stay cache-resident.
BATCH_ROWS = 4096

#: Integers beyond this magnitude do not round-trip through float64;
#: comparisons and sums that would promote past it fall back.
_EXACT_FLOAT_INT = 2 ** 53
#: An int64 sum over rows of magnitude at most ``bound`` cannot
#: overflow while ``rows * bound`` stays below this.
_SAFE_SUM = 2 ** 62
_INT64 = np.iinfo(np.int64)

_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


@dataclass
class ExecutionReport:
    """Which path one execution took, and why, settled per run."""

    mode: str = "tuple"
    #: Why the batch path was not taken: the compile's refusal, or
    #: ``"disabled"`` (None when the vectorized path ran).
    reason: str | None = None
    batches: int = 0
    #: ``stream(chunks=True)`` yields ``(n, column lists)``, not rows.
    chunked: bool = False

    @property
    def fallback_reason(self) -> str | None:
        """Why this execution ran tuple (None when it did not)."""
        return self.reason if self.mode == "tuple" else None


#: The refusals that follow from the query and its plan alone: those
#: the executor may remember with the cached plan.  Every other one
#: depends on column kinds, the frozen view or this run's parameters,
#: and is found out again by every execution.
_SHAPE_REASONS = frozenset({
    "plan", "limit", "return-shape", "aggregate-shape", "unbound-variable",
})


class Refusal(Exception):
    """The batch path cannot run this execution, and why.

    Raised during pipeline *construction* only - never mid-batch, so
    a refusal can never leave half-charged metrics behind.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
        self.shape = reason in _SHAPE_REASONS


#: What EXPLAIN binds a ``$param`` it was not given to: the constant
#: guards (:func:`_check_const`, :func:`_eq_spec`) let it through, so
#: an unknown value refuses nothing - the pipeline is dropped unrun.
UNBOUND = object()


# ----------------------------------------------------------------------
# Columnar array cache
# ----------------------------------------------------------------------
class _Column:
    """One property key's values scattered into vid-indexed arrays.

    ``kind`` is ``"int64"``/``"float64"`` (typed values + presence),
    ``"object"``/``"mixed"`` (``values`` has dtype ``object`` and
    holds the stored objects themselves, ``None`` where absent -
    readable, never compared or added; ``present`` is already the
    *reads-non-null* mask, so a stored ``None`` counts as absent,
    exactly as every read path reports it), or ``"absent"`` (key
    never stored; reads are None everywhere).
    """

    __slots__ = ("kind", "values", "present", "has_tids", "vmin", "vmax")

    def __init__(self, kind, values, present, has_tids, vmin, vmax):
        self.kind = kind
        self.values = values
        self.present = present
        #: Table ids that materialized a column for this key (drives
        #: scan_rows' column-missing charging shortcut).
        self.has_tids = has_tids
        self.vmin = vmin
        self.vmax = vmax


class GraphArrays:
    """Epoch-cached numpy projections of one graph's columnar state.

    Built lazily per consumer (column, label bucket, CSR direction)
    and dropped wholesale when the graph's mutation epoch advances -
    the same invalidation rule the frozen view uses.
    """

    def __init__(self, graph):
        self.graph = graph
        self.epoch = graph.mutation_epoch
        self.nslots = len(graph._v_tid)
        self._v_tid = None
        self._columns: dict[str, _Column] = {}
        self._label_vids: dict[str, object] = {}
        self._table_vids: dict[int, object] = {}
        self._all_vids = None
        self._csr: dict[str, tuple[dict, list]] = {}

    # -- columns -------------------------------------------------------
    def column(self, name: str) -> _Column:
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        column = self._build_column(name)
        self._columns[name] = column
        return column

    def _build_column(self, name: str) -> _Column:
        graph = self.graph
        sid = graph._symbols.sid(name)
        parts = []
        kinds = set()
        has_tids = set()
        if sid is not None:
            for tid, table in enumerate(graph._tables):
                col = table.columns.get(sid)
                if col is None:
                    continue
                has_tids.add(tid)
                kinds.add(col.kind)
                parts.append((tid, table, col))
        if not parts:
            return _Column(
                "absent", None, np.zeros(self.nslots, dtype=bool),
                has_tids, None, None,
            )
        if kinds == {KIND_INT}:
            kind, dtype = KIND_INT, np.int64
        elif kinds == {KIND_FLOAT}:
            kind, dtype = KIND_FLOAT, np.float64
        else:
            kind, dtype = ("object" if len(kinds) == 1 else "mixed"), object
        present = np.zeros(self.nslots, dtype=bool)
        # An object array starts out all-None: absent reads as None.
        values = (
            np.empty(self.nslots, dtype=object) if dtype is object
            else np.zeros(self.nslots, dtype=dtype)
        )
        for tid, table, col in parts:
            vids = np.asarray(table.vids, dtype=np.int64)
            mask = np.zeros(len(vids), dtype=bool)
            if col.mask:
                nn = col.notnull_mask()
                mask[: len(nn)] = np.frombuffer(
                    bytes(nn), dtype=np.uint8
                ).astype(bool)
            mask &= vids >= 0
            rows = np.flatnonzero(mask)
            if not len(rows):
                continue
            targets = vids[rows]
            present[targets] = True
            if dtype is object:
                # Element by element: a list-valued property stays
                # one element instead of becoming an array axis.
                data = np.fromiter(
                    col.data, dtype=object, count=len(col.data)
                )
            else:
                # Copy, not frombuffer: a shared buffer export would
                # forbid the live column from ever resizing again.
                data = np.array(col.data, dtype=dtype)
            values[targets] = data[rows]
        vmin = vmax = None
        if dtype is not object and present.any():
            selected = values[present]
            vmin = selected.min().item()
            vmax = selected.max().item()
        return _Column(kind, values, present, has_tids, vmin, vmax)

    # -- vid sets ------------------------------------------------------
    def v_tid(self):
        """vid -> table id (every row of a table shares one label set)."""
        if self._v_tid is None:
            self._v_tid = np.asarray(self.graph._v_tid, dtype=np.int64)
        return self._v_tid

    def label_vids(self, label: str):
        cached = self._label_vids.get(label)
        if cached is None:
            cached = np.asarray(
                self.graph.vertices_with_label(label), dtype=np.int64
            )
            self._label_vids[label] = cached
        return cached

    def all_vids(self):
        if self._all_vids is None:
            self._all_vids = np.asarray(
                self.graph.vertex_ids(), dtype=np.int64
            )
        return self._all_vids

    def table_vids(self, tid: int):
        """Live vids of one table, in row (insertion) order."""
        cached = self._table_vids.get(tid)
        if cached is None:
            vids = np.asarray(
                self.graph._tables[tid].vids, dtype=np.int64
            )
            cached = vids[vids >= 0]
            self._table_vids[tid] = cached
        return cached

    # -- CSR adjacency -------------------------------------------------
    def csr(self, direction: str) -> tuple[dict, list]:
        """``(sid -> (offsets, neighbors, eids), sid order)`` arrays.

        Mirrors the valid frozen view for one direction; the sid order
        is the segment-dict insertion order the tuple path's untyped
        expand iterates, so batch expansion emits pairs identically.
        """
        cached = self._csr.get(direction)
        if cached is not None:
            return cached
        view = self.graph.frozen_view
        if view is None:
            raise Refusal("no-frozen-view")
        arrays = dict(view.iter_csr(direction))
        cached = (arrays, list(arrays))
        self._csr[direction] = cached
        return cached


def graph_arrays(graph) -> GraphArrays:
    """The graph's cached :class:`GraphArrays`, rebuilt per epoch."""
    arrays = getattr(graph, "_vec_arrays", None)
    if arrays is None or arrays.epoch != graph.mutation_epoch:
        arrays = GraphArrays(graph)
        graph._vec_arrays = arrays
    return arrays


# ----------------------------------------------------------------------
# Page charging (the bulk equivalent of the per-row LRU touches)
# ----------------------------------------------------------------------
def _charge_pages(session, kind: str, vids, dedup: bool) -> None:
    """Charge page touches for ``vids`` accessed in order.

    One element handed to ``session.charge_pages`` is one counted
    touch.  ``dedup=False`` is the per-row flavor (``accept_vertex`` /
    ``property_reader`` / ``expand_pairs``): every row touches its
    page.  ``dedup=True`` is the ``scan_rows`` flavor, which skips a
    row on the same page as the row before it: only run starts touch.
    """
    n = len(vids)
    if n == 0:
        return
    pages = vids // (
        session._vertices_per_page if kind == "v"
        else session._adjacency_per_page
    )
    starts = np.ones(n, dtype=bool)
    np.not_equal(pages[1:], pages[:-1], out=starts[1:])
    runs = pages[starts]
    session.charge_pages(kind, runs.tolist(), 0 if dedup else n - len(runs))


def _charge_reads(session, vids) -> None:
    """One property read and one vertex-page touch per row of
    ``vids``: what ``GraphSession.property_reader`` charges a call."""
    session.metrics.property_reads += len(vids)
    _charge_pages(session, "v", vids, dedup=False)


# ----------------------------------------------------------------------
# Aggregate shapes
# ----------------------------------------------------------------------
#: Aggregates whose fold compares or adds values: they need a typed
#: (int64/float64) column, where count/collect only read.
_NUMERIC_FOLDS = frozenset({"sum", "min", "max", "avg"})
#: Column kinds whose values can be gathered but not compared or
#: added, and the refusal each reports.
_BOXED_REASONS = {"object": "object-column", "mixed": "mixed-kind"}


# ----------------------------------------------------------------------
# Constant guards
# ----------------------------------------------------------------------
def _check_const(col: _Column, value: object) -> None:
    """Refuse a comparison numpy cannot make exactly as ``compare``."""
    if value is None or value is UNBOUND or col.kind == "absent":
        # A null constant or a never-stored key needs no values
        # (null-is-false for every op): every column kind qualifies.
        return
    _require_typed(col)
    if isinstance(value, bool):
        raise Refusal("bool-value")
    if isinstance(value, int):
        if not (-(2 ** 63) <= value < 2 ** 63):
            raise Refusal("int-precision")
        if col.kind == KIND_FLOAT and abs(value) > _EXACT_FLOAT_INT:
            raise Refusal("int-precision")
        return
    if isinstance(value, float):
        if col.kind == KIND_INT and not _int_range_float_exact(col):
            raise Refusal("int-precision")
        return
    raise Refusal("non-numeric-value")


def _int_range_float_exact(col: _Column) -> bool:
    return (
        col.vmin is None
        or (
            -_EXACT_FLOAT_INT <= col.vmin
            and col.vmax <= _EXACT_FLOAT_INT
        )
    )


def _require_typed(col: _Column) -> None:
    """Comparing or adding values needs an int64/float64 column."""
    reason = _BOXED_REASONS.get(col.kind)
    if reason is not None:
        raise Refusal(reason)


# ----------------------------------------------------------------------
# Mask kernels
# ----------------------------------------------------------------------
class _KernelContext:
    """What compiled kernels close over: the graph's arrays, the plan's
    slots and one binding of the parameters - nothing of an execution.
    The session a run charges is an argument of every compiled
    function instead."""

    __slots__ = ("arrays", "slots", "slot_kinds", "params")

    def __init__(self, arrays: GraphArrays, plan: Plan, params):
        self.arrays = arrays
        self.slots = plan.slots
        self.slot_kinds = plan.slot_kinds
        self.params = params

    def slot(self, var: str) -> int:
        """The id column RETURN reads ``var`` from."""
        slot = self.slots.get(var)
        if slot is None:
            # The tuple path raises when (and only if) a row is made.
            raise Refusal("unbound-variable")
        return slot


def compile_mask(ctx: _KernelContext, expr: Expr):
    """Compile a maskable predicate into ``fn(session, batch, idx) ->
    mask``.

    ``session`` is the run's, charged for the reads; ``batch`` is the
    list of per-slot id arrays, ``idx`` the positions (within those
    arrays) still alive; the returned boolean mask is aligned to
    ``idx``.  Work-counter charges replicate the tuple
    path's short-circuit evaluation exactly: AND operands see only the
    rows that survived earlier operands, OR operands only the rows
    still false, and both sides of a comparison always evaluate.
    All refusals happen here, at compile time - compiled kernels
    cannot fail, so charges are never left half-applied.  A predicate
    there is no kernel for (anything but one *vertex* property against
    a literal or parameter, a null check of one, and AND/OR/NOT over
    those) is refused as ``plan``, like a step there is no operator
    for: the pushed-down filters are part of the plan's shape.
    """
    if isinstance(expr, Comparison):
        return _compile_comparison(ctx, expr)
    if isinstance(expr, NullCheck):
        return _compile_nullcheck(ctx, expr)
    if isinstance(expr, BoolOp):
        fns = [compile_mask(ctx, op) for op in expr.operands]
        if expr.op == "and":

            def k_and(session, batch, idx):
                out = fns[0](session, batch, idx)
                for fn in fns[1:]:
                    alive = idx[out]
                    if not len(alive):
                        break
                    out[out] = fn(session, batch, alive)
                return out

            return k_and

        def k_or(session, batch, idx):
            out = fns[0](session, batch, idx)
            for fn in fns[1:]:
                rem = ~out
                pending = idx[rem]
                if not len(pending):
                    break
                out[rem] = fn(session, batch, pending)
            return out

        return k_or
    if isinstance(expr, NotOp):
        inner = compile_mask(ctx, expr.operand)
        return lambda session, batch, idx: ~inner(session, batch, idx)
    raise Refusal("plan")


def _charged_gather(ctx: _KernelContext, ref: PropertyRef):
    """``fn(session, batch, idx) -> vids``: read-charge one column per
    row."""
    slot = ctx.slots.get(ref.var)
    if slot is None or ctx.slot_kinds.get(ref.var) != "vertex":
        raise Refusal("plan")  # edge properties: dict probes

    def gather(session, batch, idx):
        vids = batch[slot][idx]
        _charge_reads(session, vids)
        return vids

    return gather


def _compile_comparison(ctx: _KernelContext, expr: Comparison):
    lhs, op, rhs = expr.lhs, expr.op, expr.rhs
    if op not in _COMPARISON_OPS:
        raise Refusal("plan")
    if isinstance(lhs, PropertyRef) and isinstance(rhs, (Literal, Parameter)):
        ref, const_expr = lhs, rhs
    elif isinstance(rhs, PropertyRef) and isinstance(lhs, (Literal, Parameter)):
        ref, const_expr, op = rhs, lhs, _MIRROR[op]
    else:
        raise Refusal("plan")
    gather = _charged_gather(ctx, ref)
    value = (
        _resolve_value(const_expr, ctx.params)
        if isinstance(const_expr, Parameter)
        else const_expr.value
    )
    col = ctx.arrays.column(ref.prop)
    _check_const(col, value)
    if col.kind == "absent" or value is None:
        # Every read is None (or the constant is): null-is-false, but
        # the tuple path still pays the reads before deciding that.
        def k_false(session, batch, idx):
            vids = gather(session, batch, idx)
            return np.zeros(len(vids), dtype=bool)

        return k_false
    values, present = col.values, col.present

    def kernel(session, batch, idx):
        vids = gather(session, batch, idx)
        stored = values[vids]
        if op == "=":
            hit = stored == value
        elif op == "<>":
            hit = stored != value
        elif op == "<":
            hit = stored < value
        elif op == "<=":
            hit = stored <= value
        elif op == ">":
            hit = stored > value
        else:
            hit = stored >= value
        return present[vids] & hit

    return kernel


def _compile_nullcheck(ctx: _KernelContext, expr: NullCheck):
    ref = expr.expr
    if not isinstance(ref, PropertyRef):
        raise Refusal("plan")
    gather = _charged_gather(ctx, ref)
    present = ctx.arrays.column(ref.prop).present
    if expr.negated:
        return lambda session, batch, idx: (
            present[gather(session, batch, idx)]
        )
    return lambda session, batch, idx: ~present[gather(session, batch, idx)]


def _apply_filters(session, filters, cols, n):
    """Run pushed filter kernels with per-filter short-circuiting.

    Later filters see only the survivors of earlier ones - the batch
    equivalent of the tuple executor's ``_passes`` loop, so read and
    page charges match per row.
    """
    if not filters or n == 0:
        return cols, n
    idx = np.arange(n)
    for kernel in filters:
        if not len(idx):
            break
        idx = idx[kernel(session, cols, idx)]
    if len(idx) == n:
        return cols, n
    return [c[idx] if c is not None else None for c in cols], len(idx)


# ----------------------------------------------------------------------
# Equality checks (scan residuals and expand far-node property maps)
# ----------------------------------------------------------------------
#: Node-map equality against one column, resolved at build time:
#: ``presence`` (a None target: matches exactly the rows that read as
#: null), ``compare`` (numeric equality on the value array), or
#: ``nothing`` (a constant that cannot equal any stored value - the
#: rows are still examined and charged, they just never match).
def _eq_spec(
    arrays: GraphArrays, name: str, value: object
) -> tuple[str, _Column, object]:
    col = arrays.column(name)
    if value is None:
        return ("presence", col, None)
    if col.kind == "absent" or value is UNBOUND:
        return ("nothing", col, value)
    _require_typed(col)
    if isinstance(value, bool):
        raise Refusal("bool-value")
    if isinstance(value, int):
        if not (-(2 ** 63) <= value < 2 ** 63):
            # Beyond int64 it cannot equal a stored int64; a float64
            # column could still hold it exactly, which numpy's
            # promotion would mis-compare.
            if col.kind == KIND_FLOAT:
                raise Refusal("int-precision")
            return ("nothing", col, value)
        if col.kind == KIND_FLOAT and abs(value) > _EXACT_FLOAT_INT:
            raise Refusal("int-precision")
        return ("compare", col, value)
    if isinstance(value, float):
        if col.kind == KIND_INT and not _int_range_float_exact(col):
            raise Refusal("int-precision")
        return ("compare", col, value)
    # Strings/lists/etc. never equal a stored number.
    return ("nothing", col, value)


def _eq_mask(mode: str, col: _Column, value: object, vids):
    if mode == "presence":
        return ~col.present[vids]
    if mode == "nothing":
        return np.zeros(len(vids), dtype=bool)
    return col.present[vids] & (col.values[vids] == value)


# ----------------------------------------------------------------------
# Scan operator (fused filter + batch emission)
# ----------------------------------------------------------------------
_UNSAT = object()  # a resolved constraint no row can satisfy


def _build_scan(ctx: _KernelContext, step: ScanStep, params, nslots):
    """Compile the leading scan into a batch-generator factory,
    ``gen(session)``.

    Returns :data:`_UNSAT` when a ``$param`` resolved to null (the
    tuple generators yield nothing and charge nothing then).  The
    generator replicates ``GraphSession.scan_rows`` /
    ``label_scan`` charging exactly - including the per-table
    shortcuts that charge without examining rows.

    Candidate vid arrays are captured *now*, at compile time, from the
    :class:`GraphArrays` the pipeline is compiled over: every run of it
    executes against that one consistent snapshot, so a mutation while
    a lazy cursor is open cannot leave the compiled column arrays and
    a live vid list disagreeing about graph size.  (The charges
    themselves stay lazy - an unconsumed cursor charges nothing, like
    the tuple generators.)
    """
    check_labels = (
        frozenset(step.check_labels) if step.check_labels else None
    )
    props = _resolve_props(step.check_props, params)
    if props is None:
        return _UNSAT
    filters = [compile_mask(ctx, f) for f in step.filters]
    arrays = ctx.arrays
    graph = arrays.graph
    slot = step.slot
    access = step.access
    access_label = step.access_label

    def emit(session, vids):
        for start in range(0, len(vids), BATCH_ROWS):
            chunk = vids[start:start + BATCH_ROWS]
            cols: list = [None] * nslots
            cols[slot] = chunk
            cols, n = _apply_filters(session, filters, cols, len(chunk))
            if n:
                yield cols, n

    if check_labels is None and not props:
        # No residual checks: the tuple path streams raw candidates
        # (label bucket order / ascending all-vertices) untouched.
        if access == "label":
            candidates = arrays.label_vids(access_label)

            def gen_label(session):
                session.metrics.index_lookups += 1
                yield from emit(session, candidates)

            return gen_label

        all_candidates = arrays.all_vids()

        def gen_all(session):
            yield from emit(session, all_candidates)

        return gen_all

    primary = props[0] if props else None
    primary_spec = (
        _eq_spec(arrays, primary[0], primary[1])
        if primary is not None else None
    )
    rest_specs = [
        _eq_spec(arrays, name, value) for name, value in props[1:]
    ]
    n_props = len(props)
    count_labels = check_labels is not None
    label_sid = None
    if access == "label":
        label_sid = graph._symbols.sid(access_label)
        if label_sid is None:
            # An un-interned label matches nothing; the lookup is
            # still charged (scan_rows returns after charging it).
            def gen_nothing(session):
                session.metrics.index_lookups += 1
                return
                yield  # pragma: no cover - makes this a generator

            return gen_nothing
    tables = [
        (tid, table.labels, table.label_sids, arrays.table_vids(tid))
        for tid, table in enumerate(graph._tables)
        if table.live > 0
    ]

    def gen_checked(session):
        metrics = session.metrics
        metrics.index_lookups += 1
        for tid, tbl_labels, tbl_label_sids, vids in tables:
            if label_sid is not None and label_sid not in tbl_label_sids:
                continue
            if check_labels is not None and not (
                check_labels <= tbl_labels
            ):
                # Whole table rejected by its label set: each live row
                # still counts as examined by the label check.
                metrics.vertex_reads += len(vids)
                continue
            live = len(vids)
            if primary is not None:
                mode, col, value = primary_spec
                if tid not in col.has_tids and value is not None:
                    # Column never materialized on this table: the
                    # probe pays one read per live row and nothing
                    # else (no rows examined, no pages touched).
                    metrics.property_reads += live
                    continue
                passing = vids[_eq_mask(mode, col, value, vids)]
            else:
                passing = vids
            # Page touches cover exactly the rows the primary check
            # admitted, before residual property checks - one touch
            # per run of consecutive same-page vids.
            _charge_pages(session, "v", passing, dedup=True)
            for mode, col, value in rest_specs:
                if not len(passing):
                    break
                passing = passing[_eq_mask(mode, col, value, passing)]
            if count_labels:
                metrics.vertex_reads += live
            metrics.property_reads += live * n_props
            if len(passing):
                yield from emit(session, passing)

    return gen_checked


# ----------------------------------------------------------------------
# CSR expand operator
# ----------------------------------------------------------------------
def _build_expand(ctx: _KernelContext, step, spec, params):
    """Compile one plain-hop expansion into a batch-to-batch operator,
    ``op(session, batch)``.

    Pair production joins the whole batch against the frozen view's
    CSR offset arrays (repeat/cumsum arithmetic instead of per-vertex
    dict probes) and preserves the tuple path's emission order: source
    row first, then edge-type rank (the spec's label order, or the
    view's segment order untyped, out before in for undirected hops),
    then ascending edge id within a segment.
    """
    far_labels = frozenset(spec.labels) if spec.labels else None
    props = _resolve_props(tuple(spec.props.items()), params)
    if props is None:
        return _UNSAT
    arrays = ctx.arrays
    graph = arrays.graph
    prop_specs = [
        _eq_spec(arrays, name, value) for name, value in props
    ]
    filters = [compile_mask(ctx, f) for f in step.filters]
    from_slot = step.from_slot
    to_slot = step.to_slot
    rel_slot = step.rel_slot
    direction = step.walk_direction
    directions = (
        ("out", "in") if direction == "any" else (direction,)
    )
    edge_labels = step.edge.labels
    ranked = []
    for d in directions:
        segments, order = arrays.csr(d)
        if edge_labels:
            keys = [graph._symbols.sid(label) for label in edge_labels]
        else:
            keys = order
        for sid in keys:
            if sid is None:
                continue  # a label the graph never interned
            triple = segments.get(sid)
            if triple is not None:
                ranked.append(triple)
    tid_ok = v_tid = None
    if far_labels is not None:
        tid_ok = np.array(
            [far_labels <= table.labels for table in graph._tables],
            dtype=bool,
        )
        v_tid = arrays.v_tid()

    def op(session, batch):
        cols, n = batch
        src = cols[from_slot]
        metrics = session.metrics
        # One adjacency-page touch per source binding, pairs or not.
        _charge_pages(session, "a", src, dedup=False)
        reps, nbrs, eids = [], [], []
        total = 0
        for offsets, neighbors, edge_ids in ranked:
            starts = offsets[src]
            counts = offsets[src + 1] - starts
            seg_total = int(counts.sum())
            if seg_total == 0:
                continue
            rep = np.repeat(np.arange(n), counts)
            cum = np.cumsum(counts)
            pos = np.arange(seg_total) + np.repeat(
                starts - (cum - counts), counts
            )
            reps.append(rep)
            nbrs.append(neighbors[pos])
            eids.append(edge_ids[pos])
            total += seg_total
        metrics.edge_traversals += total
        if total == 0:
            return None
        if len(reps) == 1:
            rep, nbr, eid = reps[0], nbrs[0], eids[0]
        else:
            rep = np.concatenate(reps)
            # Stable by source row: ties keep concatenation order,
            # which is exactly the per-source type-rank order.
            order = np.argsort(rep, kind="stable")
            rep = rep[order]
            nbr = np.concatenate(nbrs)[order]
            eid = np.concatenate(eids)[order]
        alive = np.arange(total)
        if tid_ok is not None:
            # accept_vertex charges the label read and its page touch
            # for every pair, pass or fail.
            metrics.vertex_reads += total
            _charge_pages(session, "v", nbr, dedup=False)
            alive = alive[tid_ok[v_tid[nbr]]]
        for mode, col, value in prop_specs:
            if not len(alive):
                break
            sel = nbr[alive]
            _charge_reads(session, sel)
            alive = alive[_eq_mask(mode, col, value, sel)]
        if not len(alive):
            return None
        rep_out = rep[alive]
        out = [
            c[rep_out] if c is not None else None for c in cols
        ]
        out[to_slot] = nbr[alive]
        if rel_slot is not None:
            out[rel_slot] = eid[alive]
        out, n_out = _apply_filters(session, filters, out, len(rep_out))
        if n_out == 0:
            return None
        return out, n_out

    return op


# ----------------------------------------------------------------------
# Projection and aggregation
# ----------------------------------------------------------------------
def _vertex_prop_reader(
    ctx: _KernelContext, var: str, prop: str, charge: bool = True
):
    """Batch read of one vertex property column,
    ``read(session, cols, n) -> values``.

    Charging mirrors ``GraphSession.property_reader``: one property
    read and one vertex-page touch per row (repeats on a page count
    as hits).  ``charge=False`` only gathers - the grouped consumer
    charges its re-reads itself, in the tuple path's order.  Object
    columns hand out the stored objects themselves, like the tuple
    reader does.
    """
    slot = ctx.slot(var)
    col = ctx.arrays.column(prop)
    boxed = col.kind in _BOXED_REASONS

    def read(session, cols, n):
        vids = cols[slot]
        if charge:
            _charge_reads(session, vids)
        if col.kind == "absent":
            return [None] * n
        values = col.values[vids].tolist()
        if boxed:
            return values  # absent slots of an object array hold None
        present = col.present[vids]
        if present.all():
            return values
        return [
            v if p else None
            for v, p in zip(values, present.tolist())
        ]

    return read


def _edge_prop_reader(
    ctx: _KernelContext, var: str, prop: str, charge: bool = True
):
    """Batch read of one edge property (sparse dict probes)."""
    slot = ctx.slot(var)
    e_props = ctx.arrays.graph._e_props

    def read(session, cols, n):
        if charge:
            # read_edge_property: one property read, no page touch.
            session.metrics.property_reads += n
        out = []
        for eid in cols[slot].tolist():
            stored = e_props.get(eid)
            out.append(stored.get(prop) if stored else None)
        return out

    return read


def _compile_item(
    ctx: _KernelContext,
    expr: Expr,
    charge: bool = True,
    otherwise: str = "return-shape",
):
    """Compile one row-level leaf into ``fn(session, cols, n) -> list``
    (plain Python output values, one per batch row).  Anything but a
    leaf is refused as ``otherwise``: what the caller was compiling."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda session, cols, n: [value] * n
    if isinstance(expr, Parameter):
        value = _resolve_value(expr, ctx.params)
        return lambda session, cols, n: [value] * n
    if isinstance(expr, Variable):
        slot = ctx.slot(expr.name)
        if ctx.slot_kinds[expr.name] == "edge":
            return lambda session, cols, n: [
                EdgeBinding(eid) for eid in cols[slot].tolist()
            ]
        return lambda session, cols, n: [
            VertexBinding(vid) for vid in cols[slot].tolist()
        ]
    if isinstance(expr, PropertyRef):
        if ctx.slot_kinds.get(expr.var) == "edge":
            return _edge_prop_reader(ctx, expr.var, expr.prop, charge)
        return _vertex_prop_reader(ctx, expr.var, expr.prop, charge)
    raise Refusal(otherwise)


class _Groups:
    """The drained match stably sorted by group id: the per-slot id
    ``cols`` of its ``total`` rows, each group's row ``counts`` and
    first row ``lo``, and the ids of its first binding (``firsts``; the
    one group of a global aggregate over zero matches has none) - and
    the ``session`` of the run that drained it."""

    def __init__(self, session, cols, counts, total):
        self.session = session
        self.cols, self.counts, self.total = cols, counts, total
        self.lo = np.cumsum(counts) - counts

    @cached_property
    def firsts(self):
        return [None if c is None else c[self.lo] for c in self.cols]

    def reduceat(self, ufunc, values):
        """``ufunc`` over each group's rows of ``values``, in one call."""
        if not self.total:
            return np.zeros(1, dtype=values.dtype)
        return ufunc.reduceat(values, self.lo)

    def spans(self):
        return zip(self.lo.tolist(), (self.lo + self.counts).tolist())


def _leaf_charge(ctx: _KernelContext, leaf: Expr) -> tuple:
    """What one read of ``leaf`` costs: ``(the slot whose vertex page
    it touches or None, whether it counts as a property read)``."""
    is_prop = isinstance(leaf, PropertyRef)
    paged = is_prop and ctx.slot_kinds[leaf.var] == "vertex"
    return (ctx.slots[leaf.var] if paged else None), is_prop


def _group_key(ctx: _KernelContext, expr: Expr):
    """One grouping key as ``(page slot, charged, codes, read)``.

    The first two are :func:`_leaf_charge`'s; ``codes(cols, n)``
    numbers a batch's rows so that rows reading the same element share
    a code - the key's id column; None for a constant - and ``read``
    (:func:`_compile_item`'s signature) reads values uncharged.  A
    typed float column hands out a fresh float per read and a fresh NaN
    equals no dict key, so a NaN row is a code (and a group) of its
    own, exactly as reading every row would make it.
    """
    read = _compile_item(ctx, expr, charge=False, otherwise="aggregate-shape")
    if not isinstance(expr, (Variable, PropertyRef)):
        return None, False, None, read
    slot, charged = _leaf_charge(ctx, expr)
    col = None if slot is None else ctx.arrays.column(expr.prop)
    ids_slot = ctx.slots[expr.var if charged else expr.name]

    def codes(cols, n):
        ids = cols[ids_slot]
        if col is not None and col.kind == KIND_FLOAT:
            nan = np.isnan(col.values[ids])  # an absent slot holds 0.0
            if nan.any():
                return np.where(nan, -1 - np.arange(n), ids)
        return ids

    return slot, charged, codes, read


def _compile_grouped(items, ctx: _KernelContext):
    """The batch consumer for every aggregating RETURN.

    Groups come from ids.  As the match streams, each batch pays its
    grouping-key reads binding by binding, as the tuple path makes
    them; ``np.unique`` over the keys' id columns (:func:`_group_key`)
    finds the batch's distinct id combinations, each reads its key
    values once, and the hashed values take group ids from one dict in
    first-row order - the tuple path's first-seen order.

    After the drain the rows are stably sorted by group id and the
    re-reads of ``Executor._project`` are charged in its order, which
    the page LRU makes observable: per group in first-seen order and
    per RETURN item in order, a row-level leaf on the group's first
    binding and an aggregate's argument on every binding of the group
    - one ``property_reads`` bump and one :func:`_charge_pages` call
    over that concatenated vid sequence.  Each RETURN item is then one
    column function over the sorted rows, exact to the tuple path's
    ``apply_aggregate``: ``count`` - and ``size(collect(x))``, which is
    ``count(x)`` by ``functions.py`` - is one ``np.add.reduceat`` of
    per-row weights, int ``sum`` / ``avg`` / ``min`` / ``max`` one
    ``reduceat`` while no sum can overflow; DISTINCT, ``collect``,
    float folds and the ``size`` / ``head`` / ``coalesce`` wrappers
    fold each group in Python inside theirs.  The consumer,
    ``consume(session, batches)``, yields the result as one
    ``(n_groups, column lists)`` chunk; what one drain accumulates
    (the group-id dict, the kept id columns) is local to its call.
    """
    #: Post-drain re-reads in evaluation order: ``(page slot or None,
    #: charged as a property read, reads the whole group)``.
    rereads: list[tuple] = []

    def reader(leaf: Expr, whole: bool):
        if isinstance(leaf, Star):
            gather = lambda session, cols, n: [1] * n  # noqa: E731
        else:
            gather = _compile_item(
                ctx, leaf, charge=False, otherwise="aggregate-shape"
            )
        rereads.append((*_leaf_charge(ctx, leaf), whole))
        return gather

    def compile_fold(expr: FuncCall, name: str):
        """One aggregate of one leaf (only count takes ``*``), folded
        as ``name``."""
        if expr.name not in AGGREGATE_FUNCTIONS or len(expr.args) != 1:
            raise Refusal("aggregate-shape")
        arg, distinct, flatten = expr.args[0], expr.distinct, expr.flatten
        if isinstance(arg, Star) and expr.name != "count":
            raise Refusal("aggregate-shape")
        gather = reader(arg, whole=True)
        slot, _ = _leaf_charge(ctx, arg)  # a vertex property's slot
        col = None if slot is None else ctx.arrays.column(arg.prop)
        if col is not None and name in _NUMERIC_FOLDS:
            _require_typed(col)

        def fold(gr):
            vals = gather(gr.session, gr.cols, gr.total)
            return [
                apply_aggregate(
                    name, vals[lo:hi], distinct=distinct, flatten=flatten
                )
                for lo, hi in gr.spans()
            ]

        if distinct:
            return fold
        if name == "count" and isinstance(arg, (Star, Variable)):
            return lambda gr: gr.counts.tolist()
        if name == "count":
            def count(gr):
                if col is not None and not (
                    flatten and col.kind in _BOXED_REASONS
                ):
                    weights = col.present[gr.cols[slot]].astype(np.int64)
                else:  # what _flatten / _non_null keep of each row
                    weights = np.fromiter((
                        len(v) if flatten and isinstance(v, list)
                        else v is not None
                        for v in gather(gr.session, gr.cols, gr.total)
                    ), dtype=np.int64, count=gr.total)
                return gr.reduceat(np.add, weights).tolist()

            return count
        if col is None or col.kind != KIND_INT or name == "collect":
            return fold
        bound = max(-col.vmin, col.vmax) if col.vmin is not None else 0

        def int_fold(gr):
            if name in ("sum", "avg") and bound * gr.total >= _SAFE_SUM:
                return fold(gr)
            vids = gr.cols[slot]
            present, values = col.present[vids], col.values[vids]
            if name in ("min", "max"):  # absent rows never win
                fill = _INT64.max if name == "min" else _INT64.min
                values = np.where(present, values, fill)
            ufunc = {"min": np.minimum, "max": np.maximum}.get(name, np.add)
            folded = gr.reduceat(ufunc, values).tolist()
            if name == "sum":  # an absent slot holds 0
                return folded
            counts = gr.reduceat(np.add, present.astype(np.int64)).tolist()
            if name == "avg":
                return [s / c if c else None for s, c in zip(folded, counts)]
            return [v if c else None for v, c in zip(folded, counts)]

        return int_fold

    def compile_column(expr: Expr):
        """``fn(groups)``: the RETURN item's value for every group."""
        if isinstance(expr, FuncCall) and expr.name in SCALAR_FUNCTIONS:
            args = expr.args
            if expr.name == "size" and len(args) == 1 and isinstance(
                args[0], FuncCall
            ) and args[0].name == "collect":
                # collect never yields null and holds what count counts.
                return compile_fold(args[0], "count")
            name, arg_fns = expr.name, [compile_column(a) for a in args]
            return lambda gr: [
                apply_scalar(name, list(row))
                for row in zip(*[fn(gr) for fn in arg_fns])
            ]
        if isinstance(expr, FuncCall):
            return compile_fold(expr, expr.name)
        gather = reader(expr, whole=False)
        return lambda gr: (
            gather(gr.session, gr.firsts, len(gr.lo)) if gr.total
            else [None]
        )

    # A grouping key is a row-level leaf, read as the match streams.
    keys = [
        _group_key(ctx, item.expr)
        for item in items
        if not contains_aggregate(item.expr)
    ]
    fns = [compile_column(item.expr) for item in items]

    def group_ids(session, cols, n, ids: dict):
        """Each row's group id; new groups numbered in first-row order."""
        # The key reads, binding by binding as the tuple path makes them.
        pages = [cols[slot] for slot, *_ in keys if slot is not None]
        if pages:
            vids = np.stack(pages, axis=1).ravel()
            _charge_pages(session, "v", vids, dedup=False)
        session.metrics.property_reads += n * sum(
            charged for _, charged, *_ in keys
        )
        parts = [codes(cols, n) for *_, codes, _ in keys if codes]
        if len(parts) > 1:
            _, first, inverse = np.unique(
                np.stack(parts, axis=1), axis=0,
                return_index=True, return_inverse=True,
            )
        else:
            _, first, inverse = np.unique(
                parts[0] if parts else np.zeros(n, dtype=np.int64),
                return_index=True, return_inverse=True,
            )
        order = np.argsort(first)
        rows = first[order]
        sub = [None if c is None else c[rows] for c in cols]
        values = [
            map(hashable, read(session, sub, len(rows))) for *_, read in keys
        ]
        gid = np.empty(len(rows), dtype=np.int64)
        gid[order] = np.fromiter(
            (ids.setdefault(key, len(ids)) for key in zip(*values)),
            dtype=np.int64, count=len(rows),
        )
        return gid[inverse.reshape(-1)]

    def consume_grouped(session, batches):
        ids: dict = {}
        kept, gids, total = [], [], 0
        for cols, n in batches:
            kept.append(cols)
            total += n
            if keys:
                gids.append(group_ids(session, cols, n, ids))
        if total == 0:
            if not keys:
                # A global aggregate over zero matches is still a row.
                empty = [np.empty(0, dtype=np.int64)] * len(ctx.slots)
                gr = _Groups(session, empty, np.zeros(1, dtype=np.int64), 0)
                yield 1, [fn(gr) for fn in fns]
            return
        cols = [
            None if parts[0] is None else np.concatenate(parts)
            for parts in zip(*kept)
        ]
        if keys:
            gid = np.concatenate(gids)
            order = np.argsort(gid, kind="stable")
            cols = [None if c is None else c[order] for c in cols]
            counts = np.bincount(gid, minlength=len(ids))
        else:
            counts = np.array([total])
        gr = _Groups(session, cols, counts, total)
        ngroups = len(counts)
        # The re-read sequence: groups outermost, then readers, then
        # the group's bindings.  ``at`` walks each group's write
        # position from its start, one reader at a time.
        paged = [
            (cols[slot] if whole else gr.firsts[slot], whole)
            for slot, _, whole in rereads if slot is not None
        ]
        if len(paged) == 1:  # the scatter would copy it as it is
            seq = paged[0][0]
        elif paged:
            wholes = sum(whole for _, whole in paged)
            width = counts * wholes + (len(paged) - wholes)
            at = np.cumsum(width) - width
            seq = np.empty(int(np.sum(width)), dtype=np.int64)
            within = np.arange(total) - np.repeat(gr.lo, counts)
            for vids, whole in paged:
                if whole:
                    seq[np.repeat(at, counts) + within] = vids
                    at = at + counts
                else:
                    seq[at] = vids
                    at = at + 1
        if paged:
            _charge_pages(session, "v", seq, dedup=False)
        session.metrics.property_reads += sum(
            (total if whole else ngroups)
            for _, charged, whole in rereads if charged
        )
        yield ngroups, [fn(gr) for fn in fns]

    return consume_grouped


def _compile_output(query: Query, ctx: _KernelContext):
    """Compile RETURN into ``(columns, consume(session, batches))``;
    the consumer yields ``(n, column lists)`` chunks."""
    items = query.return_items
    columns = [item.output_name(i) for i, item in enumerate(items)]
    if any(contains_aggregate(item.expr) for item in items):
        return columns, _compile_grouped(items, ctx)
    fns = [_compile_item(ctx, item.expr) for item in items]

    def consume_plain(session, batches):
        for cols, n in batches:
            yield n, [fn(session, cols, n) for fn in fns]

    return columns, consume_plain


# ----------------------------------------------------------------------
# Pipeline assembly
# ----------------------------------------------------------------------
class Pipeline:
    """A plan compiled over one :class:`GraphArrays` for one binding of
    its parameters: every operator, kernel and consumer built, nothing
    of an execution captured.

    :meth:`run` binds what belongs to one execution - the session it
    charges, the guard, the step counters and timers, the report - and
    returns ``(columns, chunks)``; the run's drain state lives in the
    generators it creates.  One compiled pipeline therefore serves any
    session, any number of times, and two cursors open over it at once
    stay independent.
    """

    __slots__ = ("columns", "source", "ops", "consume")

    def __init__(self, columns, source, ops, consume):
        self.columns = columns
        #: ``gen(session)`` yielding scan batches; None when a ``$param``
        #: made the match unsatisfiable (zero rows, zero charges).
        self.source = source
        self.ops = ops
        self.consume = consume

    def run(
        self,
        session,
        guard: ExecutionGuard | None = None,
        step_counts: list[int] | None = None,
        step_times: list[float] | None = None,
        report: ExecutionReport | None = None,
    ):
        """One execution: ``(columns, chunks)``, rows as lazy
        ``(n, column lists)`` chunks charged to ``session``."""
        if report is not None:
            report.mode = "vectorized"
        if self.source is None:
            # Still route through the consumer: a global aggregate over
            # zero matches must produce its one (0/null) row.
            batches = iter(())
        else:
            batches = _drive(
                session, self.source, self.ops,
                guard, step_counts, step_times, report,
            )
        return self.columns, self.consume(session, batches)


def build_pipeline(
    query: Query,
    plan: Plan,
    arrays: GraphArrays,
    params: dict[str, object],
) -> Pipeline:
    """Compile ``plan`` over ``arrays`` for these ``params``, or raise
    why not.

    Returns a :class:`Pipeline`; raises :class:`Refusal` when any part
    of the query, or of this binding of it on this graph, cannot be
    vectorized faithfully.  This is the only place that is decided:
    nothing qualifies a plan beforehand, and every refusal happens
    here, before any work-counter charge and before any row - a
    compiled pipeline cannot fail over to the tuple path mid-run, and
    dropping it unrun (EXPLAIN does) leaves no trace.

    What is compiled depends on three inputs only: the plan, the
    graph's ``arrays`` (its epoch's columns, vid sets and frozen view)
    and the values of the parameters the query uses.  A caller may
    keep the result and run it again while all three are unchanged -
    the executor does, one entry per cached plan.
    """
    steps = plan.steps
    # The pipeline's shape is one label/all scan (an index scan's
    # candidates are already few) feeding plain hops: no cartesian
    # re-scan, join check or variable-length step has an operator.
    # Asked first, so that a plan refused at step 0 compiles nothing.
    if not (
        steps
        and isinstance(steps[0], ScanStep)
        and steps[0].access != "index"
        and all(
            isinstance(step, ExpandStep) and step.edge.is_plain_hop
            for step in steps[1:]
        )
    ):
        raise Refusal("plan")
    if query.limit is not None and not query.order_by:
        # Batch granularity would coarsen LIMIT's short-circuit
        # laziness (and the work counters that pin it down).  Under
        # ORDER BY there is no laziness to lose - every row must be
        # produced before the executor's shared top-k heap
        # (``Executor._order``) picks the first ``limit`` - so ORDER
        # BY + LIMIT runs the batch pipeline and feeds the same heap.
        raise Refusal("limit")
    ctx = _KernelContext(arrays, plan, params)
    ops = []
    source = _build_scan(ctx, steps[0], params, plan.num_slots)
    if source is _UNSAT:
        source = None
    else:
        for step in steps[1:]:
            op = _build_expand(
                ctx, step, plan.node_specs[step.to_var], params
            )
            if op is _UNSAT:
                # The tuple generators return before pulling
                # upstream: zero rows, zero charges.
                source = None
                break
            ops.append(op)
    # ORDER BY / DISTINCT need no compile: the executor's shared tail
    # (sort, dedupe) works on produced rows, identically per path.
    columns, consume = _compile_output(query, ctx)
    return Pipeline(columns, source, ops, consume)


def _drive(session, source, ops, guard, step_counts, step_times, report):
    """The batch loop: pull scan batches, push them through the
    expand operators, with per-batch deadline checks and the same
    per-step binding counts (and trace timings) the tuple pipeline's
    ``_counted`` / ``_timed_counted`` wrappers collect."""
    timing = step_times is not None
    perf = time.perf_counter
    scan = source(session)
    while True:
        started = perf() if timing else 0.0
        try:
            batch = next(scan)
        except StopIteration:
            if timing:
                step_times[0] += perf() - started
            return
        if timing:
            step_times[0] += perf() - started
        if guard is not None:
            guard.check_deadline()
        if step_counts is not None:
            step_counts[0] += batch[1]
        dropped = False
        for i, op in enumerate(ops, start=1):
            started = perf() if timing else 0.0
            batch = op(session, batch)
            if timing:
                step_times[i] += perf() - started
            if batch is None:
                dropped = True
                break
            if step_counts is not None:
                step_counts[i] += batch[1]
        if dropped:
            continue
        if report is not None:
            report.batches += 1
        yield batch
