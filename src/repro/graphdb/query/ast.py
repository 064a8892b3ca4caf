"""Query AST for the Cypher subset.

All nodes are frozen dataclasses built from tuples, so ASTs are
immutable, hashable and safe to share - the query rewriter produces new
trees instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

#: Aggregate function names recognized by the executor.
AGGREGATE_FUNCTIONS = frozenset(
    {"count", "collect", "sum", "avg", "min", "max"}
)

#: Scalar function names recognized by the executor.
SCALAR_FUNCTIONS = frozenset({"size", "head", "coalesce"})


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Parameter:
    """A ``$name`` placeholder, bound to a value at execution time.

    Parameters keep the query *shape* constant across executions, so
    plans built for ``MATCH (d:Drug {id: $id}) ...`` are cached once
    and re-bound per run instead of re-parsed and re-planned for every
    literal value.
    """

    name: str


@dataclass(frozen=True)
class PropertyRef:
    var: str
    prop: str


@dataclass(frozen=True)
class Star:
    """The ``*`` inside COUNT(*)."""


@dataclass(frozen=True)
class FuncCall:
    name: str                      # lower-cased
    args: tuple["Expr", ...]
    distinct: bool = False
    #: When True, list-valued inputs are flattened element-wise before
    #: aggregating - the rewriter uses this to turn COLLECT over a far
    #: node's property into COLLECT over local list properties.
    flatten: bool = False


@dataclass(frozen=True)
class Comparison:
    lhs: "Expr"
    op: str        # = <> < > <= >= contains in
    rhs: "Expr"


@dataclass(frozen=True)
class NullCheck:
    expr: "Expr"
    negated: bool  # True => IS NOT NULL


@dataclass(frozen=True)
class BoolOp:
    op: str        # and / or
    operands: tuple["Expr", ...]


@dataclass(frozen=True)
class NotOp:
    operand: "Expr"


Expr = Union[
    Literal, Variable, Parameter, PropertyRef, Star, FuncCall,
    Comparison, NullCheck, BoolOp, NotOp,
]


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodePattern:
    var: str | None
    labels: tuple[str, ...] = ()
    #: Property-map entries; values are literals or ``$parameters``.
    props: tuple[tuple[str, Literal | Parameter], ...] = ()


@dataclass(frozen=True)
class RelPattern:
    var: str | None
    labels: tuple[str, ...] = ()
    direction: str = "out"   # out / in / any
    #: Variable-length paths: ``-[:T*1..3]->``.  (1, 1) is a plain hop.
    min_hops: int = 1
    max_hops: int = 1

    @property
    def is_variable_length(self) -> bool:
        return (self.min_hops, self.max_hops) != (1, 1)


@dataclass(frozen=True)
class PathPattern:
    nodes: tuple[NodePattern, ...]
    rels: tuple[RelPattern, ...] = ()
    path_var: str | None = None

    def hops(self) -> list[tuple[NodePattern, RelPattern, NodePattern]]:
        return [
            (self.nodes[i], rel, self.nodes[i + 1])
            for i, rel in enumerate(self.rels)
        ]


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReturnItem:
    expr: Expr
    alias: str | None = None

    def output_name(self, index: int) -> str:
        if self.alias:
            return self.alias
        return expr_text(self.expr) or f"col{index}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Query:
    patterns: tuple[PathPattern, ...]
    return_items: tuple[ReturnItem, ...]
    where: Expr | None = None
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None

    def with_(self, **changes) -> "Query":
        return replace(self, **changes)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, taken once: the plan cache
        probes a query AST on every run, and hashing re-walks the whole
        tree in Python.  Kept per process, like every ``str`` hash."""
        return hash((
            self.patterns, self.return_items, self.where, self.distinct,
            self.order_by, self.limit,
        ))


# ----------------------------------------------------------------------
# Tree utilities
# ----------------------------------------------------------------------
def children(expr: Expr) -> tuple[Expr, ...]:
    """The operands of a node, in order; a leaf (:class:`Literal`,
    :class:`Variable`, :class:`Parameter`, :class:`PropertyRef`,
    :class:`Star`) has none."""
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, Comparison):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, BoolOp):
        return expr.operands
    if isinstance(expr, NotOp):
        return (expr.operand,)
    if isinstance(expr, NullCheck):
        return (expr.expr,)
    return ()


def walk(expr: Expr):
    """Yield every node of an expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def map_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` top-down.  Where ``fn(node)`` returns a node,
    that replaces ``node`` (and its operands are not visited); where it
    returns None, ``node`` is rebuilt from its mapped operands."""
    new = fn(expr)
    if new is not None:
        return new
    kids = tuple(map_expr(child, fn) for child in children(expr))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, kids, expr.distinct, expr.flatten)
    if isinstance(expr, Comparison):
        return Comparison(kids[0], expr.op, kids[1])
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, kids)
    if isinstance(expr, NotOp):
        return NotOp(kids[0])
    if isinstance(expr, NullCheck):
        return NullCheck(kids[0], expr.negated)
    return expr


def map_query(query: Query, fn) -> Query:
    """``query`` with :func:`map_expr` applied to its RETURN, WHERE and
    ORDER BY expressions; the patterns are left as they are."""
    return query.with_(
        return_items=tuple(
            replace(item, expr=map_expr(item.expr, fn))
            for item in query.return_items
        ),
        where=None if query.where is None else map_expr(query.where, fn),
        order_by=tuple(
            replace(order, expr=map_expr(order.expr, fn))
            for order in query.order_by
        ),
    )


def contains_aggregate(expr: Expr) -> bool:
    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS
        for node in walk(expr)
    )


def variables_used(expr: Expr) -> set[str]:
    used: set[str] = set()
    for node in walk(expr):
        if isinstance(node, Variable):
            used.add(node.name)
        elif isinstance(node, PropertyRef):
            used.add(node.var)
    return used


def query_exprs(query: Query) -> list[Expr]:
    """The RETURN, WHERE and ORDER BY expressions, in that order."""
    where = [] if query.where is None else [query.where]
    return (
        [item.expr for item in query.return_items] + where
        + [order.expr for order in query.order_by]
    )


def parameters_used(query: "Query") -> set[str]:
    """Every ``$name`` the query references, in patterns and clauses."""
    values = [
        value for pattern in query.patterns for node in pattern.nodes
        for _name, value in node.props
    ]
    values += [node for expr in query_exprs(query) for node in walk(expr)]
    return {value.name for value in values if isinstance(value, Parameter)}


def substitute_variable(expr: Expr, old: str, new: str) -> Expr:
    """Return ``expr`` with every use of variable ``old`` renamed."""

    def rename(node: Expr) -> Expr | None:
        if isinstance(node, Variable) and node.name == old:
            return Variable(new)
        if isinstance(node, PropertyRef) and node.var == old:
            return PropertyRef(new, node.prop)
        return None

    return map_expr(expr, rename)


def expr_text(expr: Expr) -> str:
    """A printable rendering of an expression (used for column names)."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Parameter):
        return f"${expr.name}"
    if isinstance(expr, PropertyRef):
        prop = f"`{expr.prop}`" if "." in expr.prop else expr.prop
        return f"{expr.var}.{prop}"
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, FuncCall):
        inner = ", ".join(expr_text(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{inner})"
    if isinstance(expr, Comparison):
        return (
            f"{expr_text(expr.lhs)} {expr.op} {expr_text(expr.rhs)}"
        )
    if isinstance(expr, NullCheck):
        op = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{expr_text(expr.expr)} {op}"
    if isinstance(expr, BoolOp):
        joiner = f" {expr.op.upper()} "
        return joiner.join(expr_text(o) for o in expr.operands)
    if isinstance(expr, NotOp):
        return f"NOT {expr_text(expr.operand)}"
    return ""


def query_text(query: Query) -> str:
    """Render a query AST back to (approximate) Cypher text."""
    parts: list[str] = []
    pattern_texts = []
    for pattern in query.patterns:
        bits = [_node_text(pattern.nodes[0])]
        for rel, node in zip(pattern.rels, pattern.nodes[1:]):
            bits.append(_rel_text(rel))
            bits.append(_node_text(node))
        text = "".join(bits)
        if pattern.path_var:
            text = f"{pattern.path_var} = {text}"
        pattern_texts.append(text)
    if pattern_texts:
        parts.append("MATCH " + ", ".join(pattern_texts))
    if query.where is not None:
        parts.append("WHERE " + expr_text(query.where))
    returns = ", ".join(
        expr_text(item.expr) + (f" AS {item.alias}" if item.alias else "")
        for item in query.return_items
    )
    distinct = "DISTINCT " if query.distinct else ""
    parts.append(f"RETURN {distinct}{returns}")
    if query.order_by:
        orders = ", ".join(
            expr_text(o.expr) + (" DESC" if o.descending else "")
            for o in query.order_by
        )
        parts.append("ORDER BY " + orders)
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)


def _node_text(node: NodePattern) -> str:
    inner = node.var or ""
    for label in node.labels:
        inner += f":{label}"
    if node.props:
        pairs = ", ".join(
            f"{name}: "
            + (
                f"${value.name}" if isinstance(value, Parameter)
                else repr(value.value)
            )
            for name, value in node.props
        )
        inner += f" {{{pairs}}}"
    return f"({inner})"


def _rel_text(rel: RelPattern) -> str:
    inner = rel.var or ""
    if rel.labels:
        inner += ":" + "|".join(rel.labels)
    if rel.is_variable_length:
        inner += f"*{rel.min_hops}..{rel.max_hops}"
    body = f"[{inner}]" if inner else ""
    if rel.direction == "out":
        return f"-{body}->"
    if rel.direction == "in":
        return f"<-{body}-"
    return f"-{body}-"
