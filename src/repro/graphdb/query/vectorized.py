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
  (``= <> < <= > >=``, ``IS [NOT] NULL``, AND/OR/NOT folding) into
  comparisons of the epoch's per-slot value codes
  (:meth:`~repro.graphdb.view._Column.coding`) with the constant's
  code, or for an order on an int64/float64 column its rank;
* **CSR-slice expansion** joins a whole batch of source vertices over
  the frozen :class:`~repro.graphdb.view.Csr` of each edge type
  (``Csr.span``, then ``repeat``/``cumsum`` arithmetic) instead of
  per-vertex iteration;
* **Column aggregation**: every aggregating RETURN, global or
  grouped, goes through one consumer (:func:`_compile_grouped`).  It
  keeps the id columns it reads, groups on the epoch's per-slot value
  codes (:meth:`~repro.graphdb.view._Column.codes`), replays the
  tuple path's re-read charges in its order and folds each RETURN
  item as one column function: COUNT (and SIZE of COLLECT) and int
  SUM/AVG/MIN/MAX by one ``reduceat`` - exact to ``apply_aggregate``,
  int sums only while they cannot overflow - and DISTINCT, COLLECT,
  float folds and SIZE/HEAD/COALESCE wrappers by the tuple path's own
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
which path ran.  Page touches are charged one operator call at a time:
a kernel hands the vids it read, in access order, to the
``charge_pages`` of its run's ``session.PageRun``, which the session
(the one place that knows the page geometry) makes.  A pipeline's
first run traces each call and settles it by
``LruPageCache.touch_many`` in two passes over the call's distinct
pages; the pipeline keeps those traces by call ordinal, since a
compiled pipeline charges the same vids at its k-th call on every run,
and a repeat run reads call k's trace without looking at the vids and
settles consecutive calls as one merged trace while their distinct
pages fit the cache.  That is exact at every cache size - while the
distinct pages fit, none of them can be evicted before the settle
ends, so repeats hit, first touches decide the misses and last
touches the recency order; a settle that does not fit runs the
per-touch loop itself.

**One gate.**  Whether a query can run here is decided in one place:
the compile itself.  Every construct the batch path has no operator
for raises :class:`Refusal` at the site that would have to compile it
- a step list that is not one label/all scan followed by plain hops
and a predicate that is not a single vertex column against a constant
(``plan``), ``LIMIT`` without ``ORDER BY``, whose short-circuit
laziness batch execution would coarsen (``limit``), a RETURN item
that is not a leaf or an aggregate of one (``return-shape`` /
``aggregate-shape`` / ``unbound-variable``) - and every value the
kernels cannot treat exactly as the tuple path does raises where it
is read: an object-typed (string, bool, list, mixed) column behind an
order or a numeric fold - equality, returning, grouping on, counting
and collecting one is fine, it is compared by code or gathered as it
is - a value no code stands for (a tuple or list constant against a
column holding lists, a column no dict can key), an expansion over
arrays not yet frozen.
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graphdb.columnar import KIND_INT
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
from repro.graphdb.session import PageTraces
from repro.graphdb.statistics import is_hashable, value_code
from repro.graphdb.view import GraphArrays, _Column

#: Rows per scan batch.  Large enough to amortize kernel dispatch,
#: small enough that a batch's column slices stay cache-resident.
BATCH_ROWS = 4096

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
#: depends on column kinds, the frozen CSR or this run's parameters,
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


#: What EXPLAIN binds a ``$param`` it was not given to: a comparison
#: takes it for a constant that equals nothing and refuses nothing for
#: it, so an unknown value refuses nothing - the pipeline is dropped
#: unrun.
UNBOUND = object()


# ----------------------------------------------------------------------
# Page charging (the bulk equivalent of the per-row LRU touches)
# ----------------------------------------------------------------------
def _charge_reads(session, vids) -> None:
    """One property read and one vertex-page touch per row of
    ``vids``: what ``GraphSession.property_reader`` charges a call."""
    session.metrics.property_reads += len(vids)
    session.charge_pages("v", vids, dedup=False)


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
# Constants as codes
# ----------------------------------------------------------------------
#: The code no slot holds: what a constant no read equals compares
#: with (``0`` is the code of the slots that read None).
_NO_CODE = -2


def _eq_code(col: _Column, value: object) -> int:
    """The code of the slots whose read equals ``value`` in
    :meth:`~repro.graphdb.view._Column.coding`: ``0`` for None (the
    slots that read None, as a node map matches them), else
    :func:`~repro.graphdb.statistics.value_code`'s, or :data:`_NO_CODE`
    where no read equals it - a NaN equals nothing, not even the very
    object stored, which a dict would find."""
    if value is None:
        return 0
    nan = isinstance(value, float) and value != value
    if nan or value is UNBOUND or col.kind == "absent":
        return _NO_CODE
    index, lists = _coding(col)[1:]
    if not isinstance(value, (str, int, float)) and (
        lists is not None or not is_hashable(value)
    ):
        # A tuple or a list: a stored list's code is its tuple form's,
        # so codes would make a tuple equal a list, which ``==`` does
        # not.
        raise Refusal("unhashable-value")
    return value_code(index, value) or _NO_CODE


def _coding(col: _Column):
    try:
        return col.coding()
    except TypeError:  # a value no dict can key (a set stored in memory)
        raise Refusal("unhashable-value") from None


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
    function instead: its ``PageRun``, whose ``metrics`` are the
    session's."""

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
    if value is None or value is UNBOUND or col.kind == "absent":
        # Every read is None (or the constant is): null-is-false, but
        # the tuple path still pays the reads before deciding that.
        return lambda session, batch, idx: np.zeros(
            len(gather(session, batch, idx)), dtype=bool
        )
    if op == "=" or op == "<>":
        lo = hi = _eq_code(col, value)
    else:
        lo, hi = _rank_codes(col, op, value)
    codes, present = _coding(col)[0], col.present

    def kernel(session, batch, idx):
        vids = gather(session, batch, idx)
        read = codes[vids]
        if op == "<>":
            return present[vids] & (read != lo)
        return (lo <= read) & (read <= hi)

    return kernel


def _rank_codes(col: _Column, op: str, value: object) -> tuple[int, int]:
    """The codes ``lo..hi`` of the slots whose read ``op value`` holds,
    for an ordering ``op``: by ``value``'s rank among an int or float
    column's sorted distinct values, in Python's exact order.  A NaN,
    or a constant Python cannot order with a number, holds for none
    (``lo > hi``)."""
    _require_typed(col)
    if isinstance(value, float) and value != value:
        return 1, 0
    index = _coding(col)[1]
    try:
        below = bisect_left(index, value, key=np.generic.item)
        upto = bisect_right(index, value, key=np.generic.item)
    except TypeError:
        return 1, 0
    # Code k is index[k - 1]; NaN reads (-1) and None (0) are below 1.
    return {
        "<": (1, below), "<=": (1, upto),
        ">": (upto + 1, len(index)), ">=": (below + 1, len(index)),
    }[op]


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
# Node-map equality (scan residuals and expand far-node property maps)
# ----------------------------------------------------------------------
def _map_check(arrays: GraphArrays, name: str, value: object):
    """``{name: value}`` as ``(column, codes, code)``: it admits the
    slots whose code is ``code`` - a None target the slots that read
    None, a constant no read equals none (the rows are still examined
    and charged, they just never match)."""
    col = arrays.column(name)
    code = _eq_code(col, value)
    # No slot's code is _NO_CODE, so that check needs no codes (and
    # builds none): any array the vids index will do.
    codes = col.present if code == _NO_CODE else _coding(col)[0]
    return col, codes, code


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
        # (ascending label vids / all vertices) untouched.
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

    checks = [_map_check(arrays, name, value) for name, value in props]
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
        for tid, tbl_labels, tbl_sids, vids in tables:
            if label_sid is not None and label_sid not in tbl_sids:
                continue
            if check_labels is not None and not (
                check_labels <= tbl_labels
            ):
                # Whole table rejected by its label set: each live row
                # still counts as examined by the label check.
                metrics.vertex_reads += len(vids)
                continue
            live = len(vids)
            if checks:
                col, codes, code = checks[0]
                if tid not in col.has_tids and code:
                    # Column never materialized on this table: the
                    # probe pays one read per live row and nothing
                    # else (no rows examined, no pages touched).
                    metrics.property_reads += live
                    continue
                passing = vids[codes[vids] == code]
            else:
                passing = vids
            # Page touches cover exactly the rows the primary check
            # admitted, before residual property checks - one touch
            # per run of consecutive same-page vids.
            session.charge_pages("v", passing, dedup=True)
            for _, codes, code in checks[1:]:
                if not len(passing):
                    break
                passing = passing[codes[passing] == code]
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

    Pair production joins the whole batch against the frozen CSR
    (each type's ``Csr.span`` of the sources, then repeat/cumsum
    arithmetic instead of per-vertex dict probes) and preserves the
    tuple path's emission order: source row first, then edge-type rank
    (the spec's label order, or the frozen type order untyped, out
    before in for undirected hops), then ascending edge id within a
    type.
    """
    far_labels = frozenset(spec.labels) if spec.labels else None
    props = _resolve_props(tuple(spec.props.items()), params)
    if props is None:
        return _UNSAT
    arrays = ctx.arrays
    graph = arrays.graph
    checks = [_map_check(arrays, name, value) for name, value in props]
    filters = [compile_mask(ctx, f) for f in step.filters]
    from_slot = step.from_slot
    to_slot = step.to_slot
    rel_slot = step.rel_slot
    direction = step.walk_direction
    directions = (
        ("out", "in") if direction == "any" else (direction,)
    )
    edge_labels = step.edge.labels
    if arrays.type_rank is None:
        raise Refusal("no-frozen-view")
    ranked = []
    for d in directions:
        csrs = arrays._out if d == "out" else arrays._in
        if edge_labels:
            keys = [graph._symbols.sid(label) for label in edge_labels]
        else:
            keys = csrs
        for sid in keys:
            if sid is None:
                continue  # a label the graph never interned
            csr = csrs.get(sid)
            if csr is not None:
                ranked.append(csr)
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
        session.charge_pages("a", src, dedup=False)
        reps, nbrs, eids = [], [], []
        total = 0
        for csr in ranked:
            starts, counts = csr.span(src)
            seg_total = int(counts.sum())
            if seg_total == 0:
                continue
            rep = np.repeat(np.arange(n), counts)
            cum = np.cumsum(counts)
            pos = np.arange(seg_total) + np.repeat(
                starts - (cum - counts), counts
            )
            reps.append(rep)
            nbrs.append(csr.neighbors[pos])
            eids.append(csr.eids[pos])
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
            session.charge_pages("v", nbr, dedup=False)
            alive = alive[tid_ok[v_tid[nbr]]]
        for _, codes, code in checks:
            if not len(alive):
                break
            sel = nbr[alive]
            _charge_reads(session, sel)
            alive = alive[codes[sel] == code]
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


def _leaf_column(ctx: _KernelContext, leaf: Expr):
    """``(id slot, column)`` of a property leaf - a vertex property's
    :meth:`GraphArrays.column`, an edge property's
    :meth:`GraphArrays.edge_column` - or None for any other leaf."""
    if not isinstance(leaf, PropertyRef):
        return None
    slot = ctx.slot(leaf.var)
    if ctx.slot_kinds[leaf.var] == "edge":
        return slot, ctx.arrays.edge_column(leaf.prop)
    return slot, ctx.arrays.column(leaf.prop)


def _group_key(ctx: _KernelContext, expr: Expr):
    """One grouping key as ``(page slot, charged, id slot, codes)``.

    The first two are :func:`_leaf_charge`'s; the id slot is the one
    the key reads, None for a constant.  ``codes(cols, row0)``
    gives a batch's rows int64 codes that are equal exactly when the
    tuple path's grouping dict would merge the values they read: a
    variable's ids, or a property's :meth:`~repro.graphdb.view._Column.codes`
    gathered at its ids; None for a constant, which every row shares.
    A read that makes a new NaN float (a float64 table's) equals no
    dict key, not even a read of the same slot, so each such row gets
    a code of its own, ``-1 - (row0 + its row)``: negative and unique
    over the drain, whose rows before this batch number ``row0``.
    """
    if isinstance(expr, (Literal, Parameter)):
        return None, False, None, None
    if isinstance(expr, Variable):
        ids_slot = ctx.slot(expr.name)
        return None, False, ids_slot, lambda cols, row0: cols[ids_slot]
    if not isinstance(expr, PropertyRef):
        raise Refusal("aggregate-shape")
    ids_slot, col = _leaf_column(ctx, expr)
    slot, charged = _leaf_charge(ctx, expr)
    table = _coding(col)[0]

    def codes(cols, row0):
        out = table[cols[ids_slot]]
        fresh = np.flatnonzero(out < 0)
        if len(fresh):
            out[fresh] = -1 - row0 - fresh
        return out

    return slot, charged, ids_slot, codes


def _stable_order(keys):
    """``np.argsort(keys, kind="stable")``, as a radix sort (numpy's
    stable sort of 16-bit ints) where every key fits in 16 bits."""
    if len(keys) and 0 <= keys.min() and keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


class _Numbering:
    """One drain's group ids, new groups numbered in first-row order.

    A batch is sorted stably on its keys' codes, so each run of equal
    codes is one group and starts at its first row.  A run's group is
    looked up by its codes: one key's in a code -> group id array
    (``-1``: not seen yet), several keys' in a dict over their code
    tuples.  Runs not seen before get new ids in the order of their
    first rows.  No value is read, and nothing is hashed per row."""

    __slots__ = ("count", "rows", "by_code", "by_tuple")

    def __init__(self):
        self.count = 0  # groups so far
        self.rows = 0  # rows numbered so far
        self.by_code = np.empty(0, dtype=np.int64)
        self.by_tuple: dict = {}

    def number(self, parts, n):
        """Each of ``n`` rows' group id, from the keys' codes."""
        self.rows += n
        if not parts:  # constant keys only: one group
            self.count = 1
            return np.zeros(n, dtype=np.int64)
        # A stable sort (lexsort is one) puts each run's first row first.
        order = (
            _stable_order(parts[0]) if len(parts) == 1
            else np.lexsort(parts)
        )
        head = np.zeros(n, dtype=bool)
        head[0] = True
        for part in parts:
            ordered = part[order]
            head[1:] |= ordered[1:] != ordered[:-1]
        firsts = order[head]
        if len(parts) == 1:
            codes = parts[0][firsts]
            gid = self._known(codes)
        else:
            keys = list(zip(*(part[firsts].tolist() for part in parts)))
            get = self.by_tuple.get
            gid = np.array([get(key, -1) for key in keys], dtype=np.int64)
        new = np.flatnonzero(gid < 0)
        if len(new):
            new = new[np.argsort(firsts[new])]
            ids = np.arange(self.count, self.count + len(new))
            gid[new] = ids
            self.count += len(new)
            if len(parts) == 1:
                codes = codes[new]
                keyed = codes >= 0  # a negative code is one row's own
                self.by_code[codes[keyed]] = ids[keyed]
            else:
                self.by_tuple.update(
                    zip(map(keys.__getitem__, new), ids.tolist())
                )
        out = np.empty(n, dtype=np.int64)
        out[order] = gid[np.cumsum(head) - 1]
        return out

    def _known(self, codes):
        """The group id of each of one key's distinct ascending codes,
        ``-1`` for one not seen yet (a negative one never is)."""
        if codes[-1] >= len(self.by_code):
            grow = max(int(codes[-1]) + 1, 2 * len(self.by_code))
            self.by_code = np.concatenate((
                self.by_code,
                np.full(grow - len(self.by_code), -1, dtype=np.int64),
            ))
        if codes[0] >= 0:
            return self.by_code[codes]
        lo = int(np.searchsorted(codes, 0))
        gid = np.full(len(codes), -1, dtype=np.int64)
        gid[lo:] = self.by_code[codes[lo:]]
        return gid


def _compile_grouped(items, ctx: _KernelContext):
    """The batch consumer for every aggregating RETURN.

    Groups come from codes, not values.  As the match streams, each
    batch pays its grouping-key reads binding by binding, as the tuple
    path makes them, and gathers each key's codes (:func:`_group_key`:
    the epoch's per-slot codes of a property, a variable's ids);
    :class:`_Numbering` turns them into group ids in first-row order -
    the tuple path's first-seen order - without reading or hashing a
    value.  Of a batch's id columns the drain keeps only those the
    keys and the RETURN items read.

    After the drain the rows are stably sorted by group id and the
    re-reads of ``Executor._project`` are charged in its order, which
    the page LRU makes observable: per group in first-seen order and
    per RETURN item in order, a row-level leaf on the group's first
    binding and an aggregate's argument on every binding of the group
    - one ``property_reads`` bump and one ``session.charge_pages`` call
    over that concatenated vid sequence.  Each RETURN item is then one
    column function over the sorted rows, exact to the tuple path's
    ``apply_aggregate``: ``count`` - and ``size(collect(x))``, which is
    ``count(x)`` by ``functions.py`` - is one ``np.add.reduceat`` of
    per-row weights (the column's presence, or under ``flatten`` its
    :meth:`~repro.graphdb.view._Column.weights`, gathered at the
    ids), int ``sum`` / ``avg`` / ``min`` / ``max`` one
    ``reduceat`` while no sum can overflow; DISTINCT, ``collect``,
    float folds and the ``size`` / ``head`` / ``coalesce`` wrappers
    fold each group in Python inside theirs.  The consumer,
    ``consume(session, batches)``, yields the result as one
    ``(n_groups, column lists)`` chunk; what one drain accumulates
    (the numbering, the kept id columns) is local to its call.
    """
    #: Post-drain re-reads in evaluation order: ``(page slot or None,
    #: charged as a property read, reads the whole group)``.
    rereads: list[tuple] = []
    #: The id slots the keys and the RETURN items read: the only ones
    #: the drain keeps.
    used: set[int] = set()

    def reader(leaf: Expr, whole: bool):
        if isinstance(leaf, Star):
            gather = lambda session, cols, n: [1] * n  # noqa: E731
        else:
            gather = _compile_item(
                ctx, leaf, charge=False, otherwise="aggregate-shape"
            )
            if isinstance(leaf, Variable):
                used.add(ctx.slots[leaf.name])
            elif isinstance(leaf, PropertyRef):
                used.add(ctx.slots[leaf.var])
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
            leaf = _leaf_column(ctx, arg)
            if leaf is None:  # a constant: one weight for every row
                value = (
                    arg.value if isinstance(arg, Literal)
                    else _resolve_value(arg, ctx.params)
                )
                weight = (
                    len(value) if flatten and isinstance(value, list)
                    else int(value is not None)
                )
                return lambda gr: (gr.counts * weight).tolist()
            ids_slot, counted = leaf

            def count(gr):
                # What _flatten / _non_null keep of each row.
                weights = counted.weights() if flatten else counted.present
                return gr.reduceat(
                    np.add, weights[gr.cols[ids_slot]].astype(np.int64)
                ).tolist()

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
    used.update(ids_slot for *_, ids_slot, _ in keys if ids_slot is not None)
    kept_slots = [slot in used for slot in range(len(ctx.slots))]
    coded = [codes for *_, codes in keys if codes is not None]
    pages = [slot for slot, *_ in keys if slot is not None]
    charged_keys = sum(charged for _, charged, *_ in keys)

    def group_ids(session, cols, n, numbering: _Numbering):
        """Each row's group id; new groups numbered in first-row order."""
        # The key reads, binding by binding as the tuple path makes them.
        if pages:
            vids = np.stack([cols[slot] for slot in pages], axis=1).ravel()
            session.charge_pages("v", vids, dedup=False)
        session.metrics.property_reads += n * charged_keys
        row0 = numbering.rows
        return numbering.number([codes(cols, row0) for codes in coded], n)

    def consume_grouped(session, batches):
        numbering = _Numbering()
        kept, gids, total = [], [], 0
        for cols, n in batches:
            kept.append([
                c if keep else None for c, keep in zip(cols, kept_slots)
            ])
            total += n
            if keys:
                gids.append(group_ids(session, cols, n, numbering))
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
            order = _stable_order(gid)
            cols = [None if c is None else c[order] for c in cols]
            counts = np.bincount(gid, minlength=numbering.count)
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
            session.charge_pages("v", seq, dedup=False)
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

    __slots__ = ("columns", "source", "ops", "consume", "pages")

    def __init__(self, columns, source, ops, consume):
        self.columns = columns
        #: ``gen(session)`` yielding scan batches; None when a ``$param``
        #: made the match unsatisfiable (zero rows, zero charges).
        self.source = source
        self.ops = ops
        self.consume = consume
        #: The page traces of a complete run, replayed by later ones.
        self.pages = PageTraces()

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
        # The kernels charge this run's pages, not the session's.
        charges = session.page_run(self.pages)
        if self.source is None:
            # Still route through the consumer: a global aggregate over
            # zero matches must produce its one (0/null) row.
            batches = iter(())
        else:
            batches = _drive(
                charges, self.source, self.ops,
                guard, step_counts, step_times, report,
            )
        return self.columns, charges.settled(self.consume(charges, batches))


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
    graph's ``arrays`` (its epoch's columns, vid sets and CSR)
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
