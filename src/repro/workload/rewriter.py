"""Automatic DIR -> OPT query rewriting.

The paper hand-rewrites each microbenchmark query into "the semantically
equivalent quer[y] over OPT"; this module mechanizes that using the
:class:`~repro.schema.mapping.SchemaMapping`:

* **Collapse rewrites (mandatory).**  A pattern hop over a relationship
  the optimizer *collapsed* (consumed ``isA``/``unionOf``/1:1) has no
  edges in the OPT graph; the two endpoint variables are unified into
  one node pattern carrying both label constraints (OPT vertices keep
  the labels of every merged concept, so the unified pattern matches
  exactly the merged vertices).

* **Replication rewrites (optimization).**  A hop whose far node is used
  *only* to read properties that were replicated as list properties on
  the near node is removed; property reads become list reads, aggregates
  get ``flatten`` semantics (``COUNT(f.p)``/``COUNT(f)`` become a
  flattened count = sum of list sizes, ``COLLECT(f.p)`` a flattened
  collect), and an ``IS NOT NULL`` guard preserves match-existence
  semantics (vertices with no partner have no list property).  Hops
  whose relationships survive unchanged keep their edges in OPT, so
  skipping this rewrite is always safe, just slower.

Each pass of :meth:`QueryRewriter.rewrite` applies the first rewrite
that fits one hop, until none does.  Expressions are read by recursion
over :func:`~repro.graphdb.query.ast.children` and rebuilt by
:func:`~repro.graphdb.query.ast.map_query`; ``_covering`` is the one
lookup of the list that replaces a far property read or ``count(f)``.

Queries that cannot be resolved against the ontology (unknown labels or
edge labels) raise :class:`~repro.exceptions.RewriteError` in strict
mode and are returned unchanged otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import cached_property

from repro.exceptions import RewriteError
from repro.graphdb.query.ast import (
    AGGREGATE_FUNCTIONS,
    BoolOp,
    Expr,
    FuncCall,
    NodePattern,
    NullCheck,
    PathPattern,
    PropertyRef,
    Query,
    Star,
    Variable,
    children,
    contains_aggregate,
    map_expr,
    map_query,
    query_exprs,
    substitute_variable,
    walk,
)
from repro.graphdb.query.parser import parse_query
from repro.ontology.model import Ontology, Relationship
from repro.schema.mapping import Replication, SchemaMapping

#: Safety bound; every rewrite removes one hop, so this is generous.
_MAX_PASSES = 100


class QueryRewriter:
    """Rewrites DIR queries into equivalent OPT queries."""

    def __init__(
        self,
        ontology: Ontology,
        mapping: SchemaMapping,
        strict: bool = False,
    ):
        self.ontology = ontology
        self.mapping = mapping
        self.strict = strict

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def rewrite(self, query: Query | str) -> Query:
        if isinstance(query, str):
            query = parse_query(query)
        query = _ensure_node_vars(query)
        for _ in range(_MAX_PASSES):
            rewritten = self._rewrite_one_hop(query)
            if rewritten is None:
                return query
            query = rewritten
        raise RewriteError("rewriter did not converge")  # pragma: no cover

    # ------------------------------------------------------------------
    # Single-hop rewriting
    # ------------------------------------------------------------------
    def _rewrite_one_hop(self, query: Query) -> Query | None:
        """Apply the first applicable rewrite; None when none applies."""
        for p_index, pattern in enumerate(query.patterns):
            for h_index, (left, rel_pattern, right) in enumerate(
                pattern.hops()
            ):
                rel = self._resolve_rel(left, rel_pattern, right)
                if rel is None:
                    continue
                if self.mapping.is_collapsed(rel.rel_id):
                    return self._collapse_hop(query, p_index, h_index)
                for far, near in ((right, left), (left, right)):
                    rewritten = self._try_replication(
                        query, p_index, h_index, rel, far, near
                    )
                    if rewritten is not None:
                        return rewritten
        return None

    def _resolve_rel(
        self,
        left: NodePattern,
        rel_pattern,
        right: NodePattern,
    ) -> Relationship | None:
        """Map a pattern hop back to its ontology relationship."""
        if len(rel_pattern.labels) != 1:
            return None
        label = rel_pattern.labels[0]
        for la in left.labels or ("",):
            for lb in right.labels or ("",):
                rel = self.ontology.find_relationship(label, la, lb)
                if rel is not None:
                    return rel
        if self.strict:
            raise RewriteError(
                f"cannot resolve hop -[:{label}]- between labels "
                f"{left.labels} and {right.labels}"
            )
        return None

    # ------------------------------------------------------------------
    # Collapse rewrite
    # ------------------------------------------------------------------
    def _collapse_hop(
        self, query: Query, p_index: int, h_index: int
    ) -> Query:
        nodes = query.patterns[p_index].nodes
        left, right = nodes[h_index], nodes[h_index + 1]
        merged = NodePattern(
            left.var,
            tuple(dict.fromkeys(left.labels + right.labels)),
            tuple(dict.fromkeys(left.props + right.props)),
        )
        query = _drop_hop(
            query, p_index, h_index,
            nodes[:h_index] + (merged,) + nodes[h_index + 2:],
        )
        if right.var != left.var:
            query = _substitute_everywhere(query, right.var, left.var)
        return query

    # ------------------------------------------------------------------
    # Replication rewrite
    # ------------------------------------------------------------------
    def _try_replication(
        self,
        query: Query,
        p_index: int,
        h_index: int,
        rel: Relationship,
        far: NodePattern,
        near: NodePattern,
    ) -> Query | None:
        far_var, near_var = far.var, near.var
        if far_var is None or near_var is None or far_var == near_var:
            return None
        if far.props:
            return None  # property filters on the far node: keep the hop
        # The far node must appear in exactly this one hop.
        if _hop_count(query, far_var) != 1:
            return None
        # The far node must be an endpoint of its chain (interior nodes
        # connect two hops and cannot be dropped).
        pattern = query.patterns[p_index]
        position = h_index + (pattern.nodes[h_index].var != far_var)
        if position not in (0, len(pattern.nodes) - 1):
            return None

        # Determine the far concept: a label that identifies a concept.
        far_concepts = [
            label for label in far.labels if label in self.ontology.concepts
        ]
        if not far_concepts:
            return None
        near_concepts = [
            label for label in near.labels
            if label in self.ontology.concepts
        ]
        if not near_concepts:
            return None
        near_nodes = {
            key
            for concept in near_concepts
            for key in self.mapping.resolve_concept(concept)
        }

        # Collect every usage of the far variable and find the list
        # property that will replace it.
        has_aggregates = any(
            contains_aggregate(item.expr) for item in query.return_items
        )
        usages = _far_usages(query, far_var, has_aggregates)
        if usages is None or not any(usages):
            # No far use left, the hop is a pure existence/multiplicity
            # constraint (e.g. count(*) over matches); removing it would
            # change row multiplicity.
            return None
        if _uses_star(query):
            return None
        if not has_aggregates and not all(
            isinstance(item.expr, PropertyRef)
            and item.expr.var == far_var
            for item in query.return_items
        ):
            # Without aggregation, replacing a far property by the local
            # list turns N matched rows into one list-valued row per
            # near vertex.  That is only the paper's intended shape when
            # the query returns nothing but far-node properties (Q6);
            # mixed projections keep their hop.
            return None
        props, counted = usages
        substitutions: dict[str, str] = {}
        for prop in props:
            list_name = self._find_owned_replication(
                rel.rel_id, far_concepts, prop, near_nodes
            )
            if list_name is None:
                return None
            substitutions[prop] = list_name
        count_list_name: str | None = None
        if counted:
            count_list_name = self._covering(rel.rel_id, near_nodes)
            if count_list_name is None:
                return None

        # Rebuild the pattern without the far node and its hop.
        new_nodes = tuple(
            node for node in pattern.nodes if node.var != far_var
        )
        if len(new_nodes) != len(pattern.nodes) - 1:
            return None  # far var appears twice in the chain: keep hop
        new_query = _replace_far_usages(
            _drop_hop(query, p_index, h_index, new_nodes),
            far_var, near_var, substitutions, count_list_name,
        )

        # Guard: the near vertex must actually have partners.
        guard = NullCheck(PropertyRef(
            near_var, next(iter(substitutions.values()), count_list_name)
        ), True)
        where = new_query.where
        return new_query.with_(
            where=guard if where is None else BoolOp("and", (where, guard))
        )

    def _find_owned_replication(
        self,
        rel_id: str,
        far_concepts: list[str],
        prop: str,
        near_nodes: set[str],
    ) -> str | None:
        """The list name of a far property that *every* near node holds.

        The rewritten query reads the list property off every vertex
        matching the near label, which spans all schema nodes the near
        concept resolves to; each of them must carry the same list via
        the same relationship, or contents would mix (the loader
        populates each node's list from its own ``via_rel``).
        """
        for concept in far_concepts:
            source_candidates = [concept]
            # The property may originate further up a collapsed
            # hierarchy (e.g. summary lives on DrugInteraction but the
            # query labels the node DrugFoodInteraction).
            source_candidates.extend(
                c for c in self.ontology.concepts
                if prop in self.ontology.concept(c).properties
            )
            for source in dict.fromkeys(source_candidates):
                list_name = self._covering(
                    rel_id, near_nodes, (source, prop)
                )
                if list_name is not None:
                    return list_name
        return None

    def _covering(
        self,
        rel_id: str,
        near_nodes: set[str],
        source: tuple[str, str] | None = None,
    ) -> str | None:
        """The first list replicated via ``rel_id`` (of the ``source``
        concept and property, if given) that every near node carries
        under one unambiguous name.

        A node can hold two lists of one source property under two
        names (MED under NSC: ``Drug`` holds ``Indication.desc`` via
        ``treat`` as ``Indication.desc`` and ``Condition.desc``).  A
        property read takes each node's last such list; ``count(f)``,
        which reads any list, takes the first (source, property, name)
        group.
        """
        groups: dict[tuple, dict[str, str]] = {}
        for repl in self.mapping.replications_for_rel(rel_id):
            key = (repl.source_concept, repl.source_property)
            if source is None:
                key += (repl.list_name,)
            elif key != source:
                continue
            groups.setdefault(key, {})[repl.owner_node] = repl.list_name
        for owners in groups.values():
            if not near_nodes <= owners.keys():
                continue
            names = {owners[node] for node in near_nodes}
            if len(names) == 1 and not self._list_name_ambiguous(
                rel_id, *names, near_nodes
            ):
                return names.pop()
        return None

    @cached_property
    def _by_list_name(self) -> dict[str, list[Replication]]:
        by_name: dict[str, list[Replication]] = {}
        for repl in self.mapping.replications:
            by_name.setdefault(repl.list_name, []).append(repl)
        return by_name

    def _list_name_ambiguous(
        self, rel_id: str, list_name: str, near_nodes: set[str]
    ) -> bool:
        """Could another relationship's values share this list name?

        Vertices merge along collapsed relationships, so a vertex
        matched by the near label may also belong to another schema
        node that carries the *same* list name populated via a
        *different* relationship.  That only happens when the other
        owner's concepts share a vertex component with the near
        concepts - in which case the list content is ambiguous and the
        hop must be kept.
        """
        near_components = {
            self.mapping.component_of(concept)
            for node in near_nodes
            for concept in self.mapping.node_concepts(node)
        }
        for other in self._by_list_name.get(list_name, ()):
            if other.rel_id == rel_id:
                continue
            other_components = {
                self.mapping.component_of(concept)
                for concept in self.mapping.node_concepts(
                    other.owner_node
                )
            }
            if near_components & other_components:
                return True
        return False


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _ensure_node_vars(query: Query) -> Query:
    """Give every anonymous node pattern a fresh variable."""
    names = (f"_rw{i}" for i in itertools.count())
    return query.with_(patterns=tuple(
        PathPattern(tuple(
            replace(node, var=next(names)) if node.var is None else node
            for node in pattern.nodes
        ), pattern.rels, pattern.path_var)
        for pattern in query.patterns
    ))


def _substitute_everywhere(query: Query, old: str, new: str) -> Query:
    patterns = tuple(
        replace(pattern, nodes=tuple(
            replace(node, var=new) if node.var == old else node
            for node in pattern.nodes
        ))
        for pattern in query.patterns
    )
    return map_query(
        query.with_(patterns=patterns),
        lambda expr: substitute_variable(expr, old, new),
    )


def _drop_hop(
    query: Query, p_index: int, h_index: int, nodes: tuple
) -> Query:
    """``query`` without hop ``h_index`` of pattern ``p_index``, whose
    nodes become ``nodes`` (and which loses its path variable)."""
    patterns = list(query.patterns)
    rels = patterns[p_index].rels
    patterns[p_index] = PathPattern(
        nodes, rels[:h_index] + rels[h_index + 1:], None
    )
    return query.with_(patterns=tuple(patterns))


def _uses_star(query: Query) -> bool:
    return any(
        isinstance(node, Star)
        for item in query.return_items for node in walk(item.expr)
    )


def _hop_count(query: Query, var: str) -> int:
    return sum(
        (left.var == var) + (right.var == var)
        for pattern in query.patterns
        for left, _rel, right in pattern.hops()
    )


def _far_usages(
    query: Query, var: str, has_aggregates: bool
) -> tuple[dict[str, None], bool] | None:
    """Classify uses of ``var`` outside the pattern.

    Returns the property names read off ``var``, in first-use order
    (the guard reads the first one's list), and whether a plain
    ``count(var)`` counts it, or None when the variable is used in a
    way that blocks the rewrite:

    * returned bare / collected as a vertex / ordered on;
    * used as a *grouping key* (a property reference outside any
      aggregate) while the query aggregates - replacing a scalar
      grouping key with a list property would change the grouping.
    """
    exprs = query_exprs(query)
    props: dict[str, None] = {}
    counted = False
    for node in (node for expr in exprs for node in walk(expr)):
        if isinstance(node, PropertyRef) and node.var == var:
            props[node.prop] = None
        elif isinstance(node, FuncCall) and Variable(var) in node.args:
            if node.name != "count" or node.distinct:
                return None
            counted = True
    # With aggregation, every far property use must sit inside an
    # aggregate argument (it is no grouping key); and no bare use may
    # sit outside count().
    if any(
        has_aggregates and _prop_use_outside_aggregate(expr, var)
        or _has_unwrapped_bare(expr, var)
        for expr in exprs
    ):
        return None
    return props, counted


def _prop_use_outside_aggregate(expr: Expr, var: str) -> bool:
    """Does ``var.prop`` appear outside every aggregate function?"""
    if isinstance(expr, PropertyRef):
        return expr.var == var
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return False  # inside an aggregate: fine
    return any(_prop_use_outside_aggregate(c, var) for c in children(expr))


def _has_unwrapped_bare(expr: Expr, var: str) -> bool:
    """Is ``var`` used bare anywhere but as an argument of ``count``?"""
    if isinstance(expr, Variable):
        return expr.name == var
    operands = children(expr)
    if isinstance(expr, FuncCall) and expr.name == "count":
        if not expr.distinct:
            operands = [a for a in operands if not isinstance(a, Variable)]
    return any(_has_unwrapped_bare(c, var) for c in operands)


def _replace_far_usages(
    query: Query,
    far_var: str,
    near_var: str,
    substitutions: dict[str, str],
    count_list_name: str | None,
) -> Query:
    """Read the near node's lists where the query read the far node:
    ``f.p`` becomes ``n.<list>``, ``count(f)`` a count over the count
    list, and an aggregate over either gets ``flatten``."""

    def far(arg: Expr) -> bool:
        return (
            isinstance(arg, Variable) and arg.name == far_var
            or isinstance(arg, PropertyRef) and arg.var == far_var
        )

    def swap(expr: Expr) -> Expr | None:
        if isinstance(expr, PropertyRef) and expr.var == far_var:
            return PropertyRef(near_var, substitutions[expr.prop])
        if (
            isinstance(expr, FuncCall)
            and expr.name in AGGREGATE_FUNCTIONS
            and any(far(arg) for arg in expr.args)
        ):
            return replace(expr, flatten=True, args=tuple(
                PropertyRef(near_var, count_list_name)
                if isinstance(arg, Variable) and arg.name == far_var
                else map_expr(arg, swap)
                for arg in expr.args
            ))
        return None

    return map_query(query, swap)
