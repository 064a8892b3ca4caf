"""Cost-based pattern-matching planner.

Turns the MATCH patterns of a query into an ordered list of steps:

* ``ScanStep`` - produce candidate bindings for one variable from a
  property-index lookup, a label scan, or (last resort) an all-vertices
  scan; the access path is chosen at plan time and recorded on the
  step.  Label/all scans that carry residual ``check_labels`` /
  ``check_props`` execute columnar (the session zips each label-set
  table's vid list against the checked property's column); the
  recorded checks are therefore both the executor's contract and the
  cost model's selectivity input;
* ``ExpandStep`` - extend bindings along one relationship pattern via
  adjacency, checking the far node's labels/property filters inline;
* ``JoinCheckStep`` - verify a relationship between two already-bound
  variables (cycles in the pattern graph) with one endpoint probe.

Two orderings are implemented:

* **Cost-based** (the default): candidate orderings are *priced*
  against :class:`~repro.graphdb.statistics.GraphStatistics` - label
  and edge-type cardinalities, per-(edge type, label) average fan-out,
  and equality estimates counted on the graph's value codes.  For
  every pattern component the enumerator tries each variable as the
  start point, grows the ordering greedily by the cheapest next
  expansion, and keeps the candidate with the lowest total cost (sum
  of rows examined and rows produced across steps - the classic C_out
  flavor).  The same estimates price the scan access path, so a
  poorly-selective property index loses to a highly-selective label
  scan instead of winning by fiat.  Every step carries its estimated
  row count, which ``EXPLAIN`` renders and ``EXPLAIN ANALYZE`` pairs
  with actual rows.
* **Syntactic** (``cost_based=False``): the legacy heuristic - start
  at the variable whose access path looks categorically cheapest
  (index beats label-with-props beats label beats all-vertices, sizes
  break ties), then expand along pattern edges in the order they were
  written.  Kept as the baseline the planner benchmarks compare
  against, and as the fallback when statistics are unavailable.

The planner also owns two jobs the executor used to do per row:

* **Slot allocation** - every variable the plan binds gets a fixed slot
  index, assigned in the order steps bind them, so the executor can
  represent a binding as a flat tuple it extends by appending instead
  of copying a dict per step.  A consequence: reusing one relationship
  variable across two patterns is rejected with a
  :class:`~repro.exceptions.QueryError` (the previous engine silently
  bound it to whichever pattern matched last, which is not Cypher's
  same-relationship semantics either).
* **Predicate pushdown** - WHERE is decomposed into AND-conjuncts;
  single-variable equality conjuncts (``x.p = literal``) are folded
  into the variable's :class:`NodeSpec` props (where they can hit a
  property index, drive scan selection, and sharpen the equality
  estimates), and every remaining conjunct is attached to the earliest
  step that binds all of its variables, so non-matching bindings die
  as soon as possible.

Plans are cached per graph in the statistics object's LRU plan cache,
keyed on the query and dropped with the statistics they were priced
on - see :class:`~repro.graphdb.statistics.PlanCache`.

A plan says *what* to match and in which order, never *how* it will be
executed: steps carry no marking for any execution strategy, and which
pipeline runs a plan is decided where the pipelines are built (see
:mod:`~repro.graphdb.query.executor`).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace

from repro.exceptions import QueryError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.ast import (
    BoolOp,
    Comparison,
    Expr,
    Literal,
    NodePattern,
    Parameter,
    PropertyRef,
    Query,
    contains_aggregate,
    expr_text,
    variables_used,
)
from repro.graphdb.statistics import GraphStatistics, is_hashable

#: Assumed selectivity of an equality check the statistics cannot
#: price (prop filters on unlabeled variables).
_DEFAULT_EQ_SELECTIVITY = 0.1
#: Floor for estimates used as multipliers, so a zero estimate cannot
#: collapse the cost of everything downstream of it.
_MIN_ROWS = 0.01
#: Cap for variable-length fan-out estimates.
_MAX_ROWS = 1e15

#: Missing-key sentinel distinct from a stored ``None`` constraint
#: (a ``{p: null}`` node-map entry means "property absent").
_ABSENT = object()


@dataclass
class NodeSpec:
    """Merged constraints for one pattern variable.

    ``props`` values may be plain literals or
    :class:`~repro.graphdb.query.ast.Parameter` placeholders; the
    latter keep the plan value-agnostic (cacheable per query *shape*)
    and are resolved against the bound parameters at execution time.
    """

    var: str
    labels: set[str] = field(default_factory=set)
    props: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class EdgeSpec:
    """One relationship pattern between two variables."""

    src_var: str        # pattern-order source (left node)
    dst_var: str
    rel_var: str | None
    labels: tuple[str, ...]
    direction: str      # out: src->dst, in: dst->src, any
    min_hops: int = 1   # variable-length patterns: -[:T*m..n]->
    max_hops: int = 1

    @property
    def is_plain_hop(self) -> bool:
        return (self.min_hops, self.max_hops) == (1, 1)


@dataclass(frozen=True)
class ScanStep:
    var: str
    slot: int = 0
    #: Access path chosen at plan time: "index" / "label" / "all".
    access: str = "all"
    access_label: str | None = None
    access_prop: str | None = None
    access_value: object = None
    #: Labels/props the access path does NOT already guarantee.
    check_labels: tuple[str, ...] = ()
    check_props: tuple[tuple[str, object], ...] = ()
    #: Pushed-down WHERE conjuncts evaluable once this step binds.
    filters: tuple[Expr, ...] = ()
    #: Estimated bindings produced (None when planned syntactically).
    est_rows: float | None = None


@dataclass(frozen=True)
class ExpandStep:
    from_var: str
    to_var: str
    edge: EdgeSpec
    from_slot: int = 0
    to_slot: int = 0
    rel_slot: int | None = None
    #: Traversal direction seen from ``from_var`` (the edge direction
    #: flipped when the plan walks the pattern backwards).
    walk_direction: str = "out"
    filters: tuple[Expr, ...] = ()
    est_rows: float | None = None


@dataclass(frozen=True)
class JoinCheckStep:
    edge: EdgeSpec
    src_slot: int = 0
    dst_slot: int = 0
    rel_slot: int | None = None
    filters: tuple[Expr, ...] = ()
    est_rows: float | None = None


@dataclass
class Plan:
    steps: list
    node_specs: dict[str, NodeSpec]
    #: Variable name -> fixed binding-tuple slot.
    slots: dict[str, int] = field(default_factory=dict)
    #: Variable name -> "vertex" | "edge" (what the slot holds).
    slot_kinds: dict[str, str] = field(default_factory=dict)
    #: "cost" or "syntactic" - how the step order was chosen.
    ordering: str = "cost"
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _step_texts: list[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def step_texts(self) -> list[str]:
        """One canonical text per step (no numbering, no row counts).

        This is the single rendering of "what the plan does": EXPLAIN
        output (:meth:`describe`), trace operator spans, and the plan
        :attr:`fingerprint` all derive from it, so the three surfaces
        can never describe the same plan differently.  Cached: plans
        are immutable once built and cached plans settle metrics on
        every execution.
        """
        if self._step_texts is not None:
            return self._step_texts
        texts = []
        for step in self.steps:
            if isinstance(step, ScanStep):
                if step.access == "index":
                    how = (
                        f"index lookup ({step.access_label}."
                        f"{step.access_prop} = "
                        f"{_value_text(step.access_value)})"
                    )
                elif step.access == "label":
                    how = f"label scan (:{step.access_label})"
                else:
                    how = "all-vertices scan"
                text = f"Scan {step.var} via {how}"
                residual = [f":{label}" for label in step.check_labels]
                residual += [
                    f"{name}={_value_text(value)}"
                    for name, value in step.check_props
                ]
                if residual:
                    text += f" check[{', '.join(residual)}]"
            elif isinstance(step, ExpandStep):
                # Render the arrow as seen from from_var, flipping the
                # stored direction when the plan walks the pattern
                # backwards (from_var is the edge's dst side).
                flipped = step.from_var != step.edge.src_var
                text = (
                    f"Expand ({step.from_var})"
                    f"{_edge_text(step.edge, flipped)}({step.to_var}) "
                    f"[{step.walk_direction}]"
                )
            else:
                text = (
                    f"JoinCheck ({step.edge.src_var})"
                    f"{_edge_text(step.edge)}({step.edge.dst_var})"
                )
                if step.edge.is_plain_hop:
                    text += " [edge probe]"
            for predicate in step.filters:
                text += f" filter[{expr_text(predicate)}]"
            texts.append(text)
        self._step_texts = texts
        return texts

    @property
    def fingerprint(self) -> str:
        """Short stable digest of the plan shape (step texts).

        ``ResultSummary.plan_digest``, the slow-query event and traces
        carry it; two queries that plan into the same operator pipeline
        share a fingerprint, and a replan that changes the pipeline
        changes it.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1(
                "\n".join(self.step_texts()).encode("utf-8")
            )
            self._fingerprint = digest.hexdigest()[:12]
        return self._fingerprint

    def describe(
        self,
        actual: list[int] | None = None,
        mode: str | None = None,
        reason: str | None = None,
    ) -> str:
        """Human-readable rendering of steps and pushed predicates.

        ``actual`` (per-step binding counts collected by
        ``EXPLAIN ANALYZE``) adds an estimated-vs-actual column.
        ``mode`` / ``reason`` append the executor's verdict as a last
        line: the execution path it ran this plan on - or, for plain
        EXPLAIN, would run it on - and why not the other one.  The
        planner has no say in either; it only renders them.
        """
        lines = []
        for i, (step, text) in enumerate(zip(self.steps, self.step_texts())):
            text += _rows_text(
                step.est_rows, actual[i] if actual is not None else None
            )
            lines.append(f"{i + 1}. {text}")
        if mode is not None:
            lines.append(
                f"mode={mode} reason={reason}" if reason else f"mode={mode}"
            )
        return "\n".join(lines)


def _value_text(value: object) -> str:
    """Render a plan-time value: ``$name`` for parameters, repr else."""
    if isinstance(value, Parameter):
        return f"${value.name}"
    return repr(value)


def _rows_text(est: float | None, actual: int | None) -> str:
    parts = []
    if est is not None:
        parts.append(f"est~{est:.0f}")
    if actual is not None:
        parts.append(f"actual={actual}")
    if not parts:
        return ""
    return f" ({', '.join(parts)} rows)"


def _edge_text(edge: EdgeSpec, flipped: bool = False) -> str:
    inner = edge.rel_var or ""
    if edge.labels:
        inner += ":" + "|".join(edge.labels)
    if not edge.is_plain_hop:
        inner += f"*{edge.min_hops}..{edge.max_hops}"
    body = f"[{inner}]" if inner else ""
    direction = _FLIP[edge.direction] if flipped else edge.direction
    if direction == "out":
        return f"-{body}->"
    if direction == "in":
        return f"<-{body}-"
    return f"-{body}-"


_FLIP = {"out": "in", "in": "out", "any": "any"}


# ----------------------------------------------------------------------
# Ordering ops (shared between the two enumerators)
# ----------------------------------------------------------------------
@dataclass
class _ScanOp:
    var: str
    access: tuple[str, str | None, str | None]  # (kind, label, prop)
    est: float | None = None


@dataclass
class _ExpandOp:
    edge: EdgeSpec
    from_var: str
    est: float | None = None


@dataclass
class _JoinOp:
    edge: EdgeSpec
    est: float | None = None


def build_plan(
    query: Query,
    graph: PropertyGraph,
    statistics: GraphStatistics | None = None,
    cost_based: bool = True,
) -> Plan:
    """Plan the MATCH portion of ``query`` against ``graph``.

    With ``cost_based=True`` (the default) the step order and scan
    access paths are chosen by the statistics-driven cost model
    (``statistics`` defaults to ``graph.statistics()``, building them
    on first use).  ``cost_based=False`` reproduces the legacy
    syntactic ordering and leaves estimates unset.
    """
    specs, edges, deferred = _collect(query)
    if not specs:
        raise QueryError("query has no node patterns")

    conjuncts = _decompose_where(query)
    residual = deferred + [
        c for c in conjuncts if not _try_fold(c, specs)
    ]

    if cost_based:
        if statistics is None:
            statistics = graph.statistics()
        ops = _order_cost_based(specs, edges, graph, statistics)
        ordering = "cost"
    else:
        ops = _order_syntactic(specs, edges, graph)
        ordering = "syntactic"

    steps, slots, slot_kinds, bound_after = _emit_steps(ops, specs, graph)
    _attach_filters(steps, bound_after, residual)
    return Plan(steps, specs, slots, slot_kinds, ordering)


# ----------------------------------------------------------------------
# Step emission (ordering ops -> slotted steps)
# ----------------------------------------------------------------------
def _emit_steps(
    ops: list, specs: dict[str, NodeSpec], graph: PropertyGraph
) -> tuple[list, dict[str, int], dict[str, str], list[set[str]]]:
    slots: dict[str, int] = {}
    slot_kinds: dict[str, str] = {}
    steps: list = []
    bound: set[str] = set()
    #: Variables bound after each step (drives filter pushdown).
    bound_after: list[set[str]] = []

    def alloc(var: str, kind: str) -> int:
        if var in slots:
            raise QueryError(f"variable {var!r} bound more than once")
        slots[var] = len(slots)
        slot_kinds[var] = kind
        return slots[var]

    for op in ops:
        if isinstance(op, _ScanOp):
            steps.append(
                _make_scan(
                    specs[op.var], op.access,
                    alloc(op.var, "vertex"), op.est,
                )
            )
            bound.add(op.var)
        elif isinstance(op, _ExpandOp):
            edge = op.edge
            from_var = op.from_var
            to_var = (
                edge.dst_var if from_var == edge.src_var else edge.src_var
            )
            from_slot = slots[from_var]
            to_slot = alloc(to_var, "vertex")
            rel_slot = (
                alloc(edge.rel_var, "edge")
                if edge.rel_var and edge.is_plain_hop
                else None
            )
            steps.append(
                ExpandStep(
                    from_var,
                    to_var,
                    edge,
                    from_slot=from_slot,
                    to_slot=to_slot,
                    rel_slot=rel_slot,
                    walk_direction=(
                        edge.direction
                        if from_var == edge.src_var
                        else _FLIP[edge.direction]
                    ),
                    est_rows=op.est,
                )
            )
            bound.add(to_var)
            if edge.rel_var and edge.is_plain_hop:
                bound.add(edge.rel_var)
        else:  # _JoinOp
            edge = op.edge
            rel_slot = (
                alloc(edge.rel_var, "edge")
                if edge.rel_var and edge.is_plain_hop
                else None
            )
            steps.append(
                JoinCheckStep(
                    edge,
                    src_slot=slots[edge.src_var],
                    dst_slot=slots[edge.dst_var],
                    rel_slot=rel_slot,
                    est_rows=op.est,
                )
            )
            if edge.rel_var and edge.is_plain_hop:
                bound.add(edge.rel_var)
        bound_after.append(set(bound))
    return steps, slots, slot_kinds, bound_after


def _make_scan(
    spec: NodeSpec,
    access: tuple[str, str | None, str | None],
    slot: int,
    est: float | None,
) -> ScanStep:
    """Build the scan step and record its residual checks."""
    kind, label, prop = access
    return ScanStep(
        spec.var,
        slot=slot,
        access=kind,
        access_label=label,
        access_prop=prop,
        access_value=spec.props[prop] if prop is not None else None,
        check_labels=tuple(
            l for l in sorted(spec.labels) if l != label
        ),
        check_props=tuple(
            (name, value)
            for name, value in spec.props.items()
            if name != prop
        ),
        est_rows=est,
    )


# ----------------------------------------------------------------------
# Syntactic ordering (the legacy heuristic, kept as baseline/fallback)
# ----------------------------------------------------------------------
def _choose_access(
    spec: NodeSpec, graph: PropertyGraph
) -> tuple[str, str | None, str | None]:
    """(access kind, label, prop): the syntactic scan selection.

    Index access wins categorically, then the smallest label.  The
    cost-based path prices the same candidates with estimates instead
    (see :func:`_scan_estimate`).
    """
    for prop, value in spec.props.items():
        if not is_hashable(value):
            continue  # index buckets are keyed by value
        for label in spec.labels:
            if graph.has_property_index(label, prop):
                return ("index", label, prop)
    if spec.labels:
        return ("label", min(spec.labels, key=graph.label_count), None)
    return ("all", None, None)


def _order_syntactic(
    specs: dict[str, NodeSpec],
    edges: list[EdgeSpec],
    graph: PropertyGraph,
) -> list:
    def estimate(spec: NodeSpec) -> tuple[int, int]:
        """(cost class, cardinality): lower is categorically better."""
        access, label, _prop = _choose_access(spec, graph)
        if access == "index":
            return (0, 1)
        if access == "label":
            cost_class = 1 if spec.props else 2
            return (cost_class, graph.label_count(label))
        return (3, graph.num_vertices)

    ops: list = []
    remaining = list(edges)
    bound: set[str] = set()
    unbound = set(specs)
    while unbound:
        # Pick the cheapest unbound variable as this component's start.
        start = min(unbound, key=lambda v: (estimate(specs[v]), v))
        ops.append(_ScanOp(start, _choose_access(specs[start], graph)))
        bound.add(start)
        unbound.discard(start)
        # Greedily expand along pattern edges in written order.
        progress = True
        while progress:
            progress = False
            for edge in list(remaining):
                src_bound = edge.src_var in bound
                dst_bound = edge.dst_var in bound
                if src_bound and dst_bound:
                    ops.append(_JoinOp(edge))
                elif src_bound or dst_bound:
                    from_var = edge.src_var if src_bound else edge.dst_var
                    to_var = edge.dst_var if src_bound else edge.src_var
                    ops.append(_ExpandOp(edge, from_var))
                    bound.add(to_var)
                    unbound.discard(to_var)
                else:
                    continue
                remaining.remove(edge)
                progress = True
    return ops


# ----------------------------------------------------------------------
# Cost-based ordering
# ----------------------------------------------------------------------
def _order_cost_based(
    specs: dict[str, NodeSpec],
    edges: list[EdgeSpec],
    graph: PropertyGraph,
    stats: GraphStatistics,
) -> list:
    """Enumerate candidate orderings per component; keep the cheapest.

    Every variable of a component is tried as the start point; from
    each start the ordering grows greedily by the cheapest applicable
    next step (join checks - which only shrink the intermediate - are
    always applied first).  Components are then sequenced by ascending
    estimated output so cartesian products stay as small as possible,
    and each later component's estimates are scaled by the rows already
    flowing through the pipeline.
    """
    candidates = []
    for component_vars, component_edges in _components(specs, edges):
        best = None
        for start in sorted(component_vars):
            candidate = _greedy_candidate(
                start, component_edges, specs, graph, stats
            )
            if best is None or candidate[0] < best[0]:
                best = candidate
        candidates.append(best)

    # Cheapest-output component first; scale later components' row
    # estimates by the bindings already produced (the executor re-runs
    # their memoized scans per upstream binding).
    candidates.sort(key=lambda c: (c[1], c[0]))
    ops: list = []
    base_rows = 1.0
    for _cost, rows, component_ops in candidates:
        for op in component_ops:
            if op.est is not None:
                op.est = op.est * base_rows
            ops.append(op)
        base_rows = max(base_rows * rows, _MIN_ROWS)
    return ops


def _components(
    specs: dict[str, NodeSpec], edges: list[EdgeSpec]
) -> list[tuple[set[str], list[EdgeSpec]]]:
    """Connected components of the pattern graph, in first-seen order."""
    parent = {var: var for var in specs}

    def find(var: str) -> str:
        while parent[var] != var:
            parent[var] = parent[parent[var]]
            var = parent[var]
        return var

    for edge in edges:
        root_a, root_b = find(edge.src_var), find(edge.dst_var)
        if root_a != root_b:
            parent[root_b] = root_a

    grouped: dict[str, tuple[set[str], list[EdgeSpec]]] = {}
    for var in specs:
        grouped.setdefault(find(var), (set(), []))[0].add(var)
    for edge in edges:
        grouped[find(edge.src_var)][1].append(edge)
    return list(grouped.values())


def _greedy_candidate(
    start: str,
    component_edges: list[EdgeSpec],
    specs: dict[str, NodeSpec],
    graph: PropertyGraph,
    stats: GraphStatistics,
) -> tuple[float, float, list]:
    """(total cost, output rows, ops) for one start point."""
    examined, rows, access = _scan_estimate(specs[start], graph, stats)
    ops: list = [_ScanOp(start, access, rows)]
    cost = examined + rows
    bound = {start}
    pending = list(component_edges)
    while pending:
        # Join checks never grow the intermediate result; apply every
        # one that became available before weighing expansions.
        for edge in [
            e for e in pending
            if e.src_var in bound and e.dst_var in bound
        ]:
            cost += rows  # one probe per binding
            rows = max(rows * _join_selectivity(edge, specs, stats),
                       _MIN_ROWS)
            ops.append(_JoinOp(edge, rows))
            pending.remove(edge)
        if not pending:
            break
        best = None
        for edge in pending:
            src_bound = edge.src_var in bound
            dst_bound = edge.dst_var in bound
            if not (src_bound or dst_bound):
                continue
            from_var = edge.src_var if src_bound else edge.dst_var
            to_var = edge.dst_var if src_bound else edge.src_var
            step_examined, step_rows = _expand_estimate(
                rows, specs[from_var], edge, from_var,
                specs[to_var], stats,
            )
            key = (step_examined + step_rows, from_var, to_var)
            if best is None or key < best[0]:
                best = (key, edge, from_var, to_var,
                        step_examined, step_rows)
        if best is None:  # pragma: no cover - components are connected
            break
        _key, edge, from_var, to_var, step_examined, step_rows = best
        cost += step_examined + step_rows
        rows = max(step_rows, _MIN_ROWS)
        ops.append(_ExpandOp(edge, from_var, rows))
        bound.add(to_var)
        pending.remove(edge)
    return cost, rows, ops


def _scan_estimate(
    spec: NodeSpec, graph: PropertyGraph, stats: GraphStatistics
) -> tuple[float, float, tuple[str, str | None, str | None]]:
    """Price every scan access path; return the cheapest.

    Returns ``(rows examined, rows produced, access)`` where access is
    the ``(kind, label, prop)`` triple :func:`_make_scan` consumes.
    """
    total = max(1, graph.num_vertices)
    options: list[tuple[float, int, float, tuple]] = []

    def residual_selectivity(
        anchor_label: str | None, skip_prop: str | None
    ) -> float:
        sel = 1.0
        for name, value in spec.props.items():
            if name == skip_prop:
                continue
            if anchor_label is not None:
                sel *= _eq_selectivity(stats, anchor_label, name, value)
            else:
                sel *= _DEFAULT_EQ_SELECTIVITY
        for label in spec.labels:
            if label != anchor_label:
                if anchor_label is not None:
                    # Co-occurrence, not independence: merged-label
                    # vertices carry correlated label sets.
                    sel *= stats.label_overlap(anchor_label, label)
                else:
                    sel *= min(1.0, stats.label_count(label) / total)
        return sel

    for prop, value in spec.props.items():
        if not is_hashable(value):
            continue  # index buckets are keyed by value
        for label in spec.labels:
            if graph.has_property_index(label, prop):
                bucket = _eq_estimate(stats, label, prop, value)
                out = bucket * residual_selectivity(label, prop)
                # rank 0: with equal cost an index lookup still wins
                # (it reads only matches; a scan touches everything).
                options.append((bucket, 0, out, ("index", label, prop)))
    if spec.labels:
        label = min(spec.labels, key=stats.label_count)
        examined = float(stats.label_count(label))
        out = examined * residual_selectivity(label, None)
        options.append((examined, 1, out, ("label", label, None)))
    else:
        examined = float(total)
        out = examined * residual_selectivity(None, None)
        options.append((examined, 2, out, ("all", None, None)))

    examined, _rank, out, access = min(
        options, key=lambda o: (o[0] + o[2], o[1])
    )
    return examined, max(out, _MIN_ROWS), access


def _expand_estimate(
    rows: float,
    from_spec: NodeSpec,
    edge: EdgeSpec,
    from_var: str,
    to_spec: NodeSpec,
    stats: GraphStatistics,
) -> tuple[float, float]:
    """(edges examined, bindings produced) for one expansion."""
    walk = (
        edge.direction if from_var == edge.src_var
        else _FLIP[edge.direction]
    )
    per_hop = stats.fanout(from_spec.labels, edge.labels, walk)
    if edge.is_plain_hop:
        fan = per_hop
    else:
        fan = 1.0 if edge.min_hops == 0 else 0.0
        log_cap = math.log(_MAX_ROWS)
        for depth in range(max(edge.min_hops, 1), edge.max_hops + 1):
            # Cap in log space: per_hop ** depth overflows a float
            # long before the min() below could clamp it.
            if per_hop > 1.0 and depth * math.log(per_hop) >= log_cap:
                fan = _MAX_ROWS
                break
            fan += min(per_hop ** depth, _MAX_ROWS)
            if fan >= _MAX_ROWS:
                break
    examined = rows * min(fan, _MAX_ROWS)

    selectivity = 1.0
    if to_spec.labels:
        fractions = []
        for label in to_spec.labels:
            if from_spec.labels:
                # Condition on the near end's anchor label: the label
                # composition of a vertex's neighborhood depends
                # heavily on the vertex's own label.
                near = min(from_spec.labels, key=stats.label_count)
                fraction = stats.cond_endpoint_fraction(
                    edge.labels, near, label, walk
                )
            else:
                far_end = {"out": "dst", "in": "src"}.get(walk)
                if far_end is None:
                    fraction = 0.5 * (
                        stats.endpoint_label_fraction(
                            edge.labels, label, "src"
                        )
                        + stats.endpoint_label_fraction(
                            edge.labels, label, "dst"
                        )
                    )
                else:
                    fraction = stats.endpoint_label_fraction(
                        edge.labels, label, far_end
                    )
            fractions.append(fraction)
        selectivity *= min(fractions)
        anchor = min(to_spec.labels, key=stats.label_count)
        for name, value in to_spec.props.items():
            selectivity *= _eq_selectivity(stats, anchor, name, value)
    else:
        for _ in to_spec.props:
            selectivity *= _DEFAULT_EQ_SELECTIVITY
    return examined, max(examined * selectivity, _MIN_ROWS)


def _eq_estimate(
    stats: GraphStatistics, label: str, prop: str, value: object
) -> float:
    """Equality estimate, value-agnostic for ``$parameter`` values."""
    if isinstance(value, Parameter):
        return stats.avg_eq_estimate(label, prop)
    return stats.eq_estimate(label, prop, value)


def _eq_selectivity(
    stats: GraphStatistics, label: str, prop: str, value: object
) -> float:
    if isinstance(value, Parameter):
        return stats.avg_eq_selectivity(label, prop)
    return stats.eq_selectivity(label, prop, value)


def _join_selectivity(
    edge: EdgeSpec, specs: dict[str, NodeSpec], stats: GraphStatistics
) -> float:
    """P(a matching edge exists between two already-bound vertices)."""
    matching = stats.edge_count(edge.labels)
    for var, end in ((edge.src_var, "src"), (edge.dst_var, "dst")):
        labels = specs[var].labels
        if labels:
            matching *= min(
                stats.endpoint_label_fraction(edge.labels, label, end)
                for label in labels
            )
    src_size = _spec_cardinality(specs[edge.src_var], stats)
    dst_size = _spec_cardinality(specs[edge.dst_var], stats)
    pairs = max(src_size * dst_size, 1.0)
    selectivity = matching / pairs
    if edge.direction == "any":
        selectivity *= 2.0
    return min(1.0, max(selectivity, 1e-9))


def _spec_cardinality(spec: NodeSpec, stats: GraphStatistics) -> float:
    if not spec.labels:
        return float(max(1, stats.num_vertices))
    return float(
        max(1, min(stats.label_count(label) for label in spec.labels))
    )


# ----------------------------------------------------------------------
# WHERE decomposition and pushdown
# ----------------------------------------------------------------------
def _decompose_where(query: Query) -> list[Expr]:
    if query.where is None:
        return []
    if contains_aggregate(query.where):
        raise QueryError("aggregate functions are not allowed in WHERE")
    return _conjuncts(query.where)


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BoolOp) and expr.op == "and":
        out: list[Expr] = []
        for operand in expr.operands:
            out.extend(_conjuncts(operand))
        return out
    return [expr]


def _try_fold(conjunct: Expr, specs: dict[str, NodeSpec]) -> bool:
    """Fold ``x.p = literal`` / ``x.p = $param`` into x's NodeSpec.

    Folding is skipped (conjunct stays a runtime filter) when the
    literal is null (``= null`` is always false in our semantics, while
    a prop constraint would invert that) or when it conflicts with an
    existing constraint (the query then just matches nothing, which the
    residual filter preserves without raising).  A folded
    :class:`Parameter` keeps the plan value-agnostic: the executor
    resolves it per run, treating a ``None`` binding as unsatisfiable
    so the ``= null`` semantics above still hold.
    """
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return False
    for prop_ref, literal in (
        (conjunct.lhs, conjunct.rhs),
        (conjunct.rhs, conjunct.lhs),
    ):
        if not isinstance(prop_ref, PropertyRef):
            continue
        if isinstance(literal, Parameter):
            folded: object = literal
        elif isinstance(literal, Literal) and literal.value is not None:
            if not is_hashable(literal.value):
                continue  # property indexes can't look this up
            folded = literal.value
        else:
            continue
        spec = specs.get(prop_ref.var)
        if spec is None:
            continue
        existing = spec.props.get(prop_ref.prop, _ABSENT)
        if existing is not _ABSENT:
            # An existing constraint - including a stored ``None``
            # from a ``{p: null}`` node map (matches-absent), which
            # must not be silently overwritten by an equality that
            # requires the property present.
            return existing == folded  # conflicting: keep residual
        spec.props[prop_ref.prop] = folded
        return True
    return False


def _attach_filters(
    steps: list, bound_after: list[set[str]], residual: list[Expr]
) -> None:
    """Attach each conjunct to the earliest step binding its variables."""
    if not residual or not steps:
        return
    extra: dict[int, list[Expr]] = {}
    last = len(steps) - 1
    for conjunct in residual:
        used = variables_used(conjunct)
        target = last
        for i, bound in enumerate(bound_after):
            if used <= bound:
                target = i
                break
        extra.setdefault(target, []).append(conjunct)
    for i, filters in extra.items():
        steps[i] = replace(
            steps[i], filters=steps[i].filters + tuple(filters)
        )


def _collect(
    query: Query,
) -> tuple[dict[str, NodeSpec], list[EdgeSpec], list[Expr]]:
    """Merge node patterns by variable and list relationship patterns.

    The third return value holds property constraints that could not
    be merged into a spec because they conflict with an existing one
    *undecidably* (a ``$parameter`` is involved, so equality is only
    known at bind time); they become runtime filters.
    """
    specs: dict[str, NodeSpec] = {}
    edges: list[EdgeSpec] = []
    deferred: list[Expr] = []
    fresh = (f"_anon{i}" for i in itertools.count())

    def intern(node: NodePattern) -> str:
        var = node.var or next(fresh)
        spec = specs.setdefault(var, NodeSpec(var))
        spec.labels.update(node.labels)
        for name, literal in node.props:
            residual = _merge_prop(spec, name, literal)
            if residual is not None:
                deferred.append(residual)
        return var

    for pattern in query.patterns:
        node_vars = [intern(node) for node in pattern.nodes]
        for i, rel in enumerate(pattern.rels):
            edges.append(
                EdgeSpec(
                    src_var=node_vars[i],
                    dst_var=node_vars[i + 1],
                    rel_var=rel.var,
                    labels=rel.labels,
                    direction=rel.direction,
                    min_hops=rel.min_hops,
                    max_hops=rel.max_hops,
                )
            )
    return specs, edges, deferred


def _merge_prop(
    spec: NodeSpec, name: str, literal: Literal | Parameter
) -> Expr | None:
    """Merge one node-map property constraint into ``spec``.

    Returns a residual equality expression instead of merging when the
    constraint conflicts with an existing one but a ``$parameter`` is
    involved - whether the two agree is only known at bind time, so
    the existing constraint stays in the spec and this one is checked
    per binding.  A literal-vs-literal conflict is still rejected at
    plan time (the query can never match).
    """
    value = literal if isinstance(literal, Parameter) else literal.value
    existing = spec.props.get(name)
    if name in spec.props and existing != value:
        if isinstance(value, Parameter) or isinstance(existing, Parameter):
            return Comparison(PropertyRef(spec.var, name), "=", literal)
        raise QueryError(
            f"conflicting property filters on {spec.var}.{name}"
        )
    spec.props[name] = value
    return None
