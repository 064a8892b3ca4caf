"""Differential-testing toolkit: random queries, both pipelines, strict
equivalence.

The vectorized batch path (`repro.graphdb.query.vectorized`) promises
*strict* equivalence with the tuple pipeline: identical rows in
identical order AND identical work counters (vertex/property reads,
index lookups, edge traversals, page hits/misses).  This module holds
the pieces the differential tests share:

* :func:`build_differential_graph` - a deterministic medium graph whose
  schema deliberately covers every kernel-relevant column shape:
  int64 and float64 columns with missing values, NaN floats, a string
  (object) column, a list-valued column, a column that promotes to
  object mid-table, and edge properties;
* :class:`QueryGen` - a seeded random generator over the Cypher subset
  (scans, 1-2 hop expands in all directions, the plan shapes the batch
  path has no operator for - an indexed point read, a ``*1..2`` hop, a
  triangle closed by a join check - WHERE trees with
  AND/OR/NOT and IS [NOT] NULL, parameters, DISTINCT, ORDER BY, and
  the aggregate forms - global, grouped on up to two keys (null for
  some rows, list-valued, edge properties), ``collect`` and its
  ``size``/``head`` wrappers, DISTINCT arguments, with ORDER BY +
  LIMIT or DISTINCT rows on top);
* :func:`assert_equivalent` - runs one query through both pipelines on
  fresh sessions and asserts rows and counters match exactly.

`tests/conftest.py` exposes these as the ``diff_graph`` / ``diff_gen``
fixtures; the corpus test, the Hypothesis tests, and the CI seed runs
all go through here.
"""

from __future__ import annotations

import math
import random

from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession

#: Work counters the two pipelines must agree on, exactly.  (``rows``
#: and ``queries`` are driver-level; retry counters are storage-level.)
WORK_COUNTERS = (
    "vertex_reads",
    "property_reads",
    "index_lookups",
    "edge_traversals",
    "page_hits",
    "page_misses",
)

#: label -> {prop: kind}; the generator only writes well-formed
#: queries, so it needs to know what exists where.
VERTEX_PROPS = {
    "Patient": {"age": "int", "weight": "float", "name": "str", "pid": "int"},
    "Drug": {"dose": "int", "name": "str", "code": "mixed", "tags": "list"},
    "Visit": {"day": "int", "cost": "float"},
}

#: Single-hop building blocks: (src_label, edge_label, direction,
#: dst_label).  Direction is how the pattern is *written* ('>' out,
#: '<' in, '-' undirected), with src always the left node.
CHAINS_1 = [
    ("Patient", "takes", ">", "Drug"),
    ("Patient", "visits", ">", "Visit"),
    ("Drug", "interacts", ">", "Drug"),
    ("Drug", "takes", "<", "Patient"),
    ("Visit", "visits", "<", "Patient"),
    ("Drug", "interacts", "-", "Drug"),
]

CHAINS_2 = [
    [("Patient", "takes", ">", "Drug"), ("Drug", "interacts", ">", "Drug")],
    [("Visit", "visits", "<", "Patient"), ("Patient", "takes", ">", "Drug")],
    [("Drug", "takes", "<", "Patient"), ("Patient", "visits", ">", "Visit")],
    [("Drug", "interacts", "-", "Drug"), ("Drug", "takes", "<", "Patient")],
]

#: Plan shapes the batch path has no operator for (with the point read
#: on the indexed ``Patient.pid``, which any ``pid`` equality draws):
#: a variable-length hop, and a third hop that lands back on ``a`` - a
#: cycle, closed by a join check.  Drawn rarely: they run tuple on both
#: sides, so they test the refusal, not the kernels.
CHAINS_TUPLE_ONLY = [
    [("Drug", "interacts*1..2", ">", "Drug")],
    [("Patient", "takes", ">", "Drug"), ("Drug", "interacts", "-", "Drug"),
     ("Drug", "takes", "<", "Patient")],
]

#: edge label -> {prop: kind} (only edges that carry properties).
EDGE_PROPS = {"takes": {"since": "int"}, "interacts": {"risk": "float"}}

#: Comparison constants per column kind.  Values straddle the stored
#: ranges so predicates are neither always-true nor always-false, and
#: the string pool includes misses.
CONST_POOL = {
    "int": [0, 1, 5, 17, 30, 45, 60, 90, 2005, -3],
    "float": [0.0, 0.4, 25.5, 60.0, 99.9, 450.0],
    "str": ["p0", "p3", "d1", "zz"],
    "mixed": [6, 30, "c21", "c35"],
}

NUMERIC_KINDS = ("int", "float")


def _comparable(props: dict) -> list[str]:
    """The properties a predicate can compare (no list literals)."""
    return [p for p, kind in props.items() if kind != "list"]

OPS = ("=", "<>", "<", "<=", ">", ">=")
AGG_FUNCS = ("count", "sum", "min", "max", "avg")


def build_differential_graph(
    seed: int = 7, freeze: bool = True
) -> PropertyGraph:
    """A deterministic graph covering every kernel-relevant shape."""
    rng = random.Random(seed)
    g = PropertyGraph("diff")
    patients = []
    for i in range(90):
        props: dict[str, object] = {"pid": i}
        if rng.random() < 0.85:
            props["age"] = rng.randint(0, 90)
        r = rng.random()
        if r < 0.70:
            props["weight"] = round(rng.uniform(40.0, 120.0), 2)
        elif r < 0.80:
            props["weight"] = float("nan")
        if rng.random() < 0.90:
            props["name"] = f"p{i % 7}"
        patients.append(g.add_vertex("Patient", props))
    drugs = []
    for i in range(40):
        props = {"dose": rng.choice([5, 10, 20, 50]), "name": f"d{i % 5}"}
        # The first half stores ints, the second half strings: the
        # column starts int64 and promotes to object mid-table.
        props["code"] = i * 3 if i < 20 else f"c{i}"
        if i % 4:
            props["tags"] = [f"t{i % 3}", f"t{i % 2}"][: i % 4 - 1]
        drugs.append(g.add_vertex("Drug", props))
    visits = []
    for i in range(60):
        props = {"day": i % 30}
        if i % 13 != 0:
            props["cost"] = (
                float("nan") if i % 11 == 0 else round(rng.uniform(1.0, 500.0), 2)
            )
        visits.append(g.add_vertex("Visit", props))
    for p in patients:
        for d in rng.sample(drugs, rng.randint(0, 3)):
            g.add_edge(p, d, "takes", {"since": rng.randint(1990, 2020)})
        for v in rng.sample(visits, rng.randint(0, 2)):
            g.add_edge(p, v, "visits")
    for d in drugs:
        for other in rng.sample(drugs, rng.randint(0, 2)):
            if other != d:
                g.add_edge(d, other, "interacts", {"risk": round(rng.random(), 3)})
    # ``pid`` is unique: an equality on it plans as an index lookup.
    g.create_property_index("Patient", "pid")
    g.statistics()
    # Freeze last: the vectorized expand operator needs the CSR view,
    # and any mutation would invalidate it.
    if freeze:
        g.freeze()
    return g


class QueryGen:
    """Seeded random generator over the engine's Cypher subset.

    Every produced query is valid against the differential schema.
    The mix intentionally includes shapes the vectorized path must
    refuse (object-column predicates, min/max over strings, LIMIT)
    so a corpus run exercises the fallback decision, not just the
    happy path.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._param_n = 0

    # -- public ---------------------------------------------------------
    def query(self) -> tuple[str, dict]:
        """One random ``(query_text, parameters)`` pair."""
        self._param_n = 0
        self.params: dict[str, object] = {}
        r = self.rng.random()
        if r < 0.45:
            text = self._scan_query()
        elif r < 0.79:
            text = self._hop_query(self.rng.choice(CHAINS_1))
        elif r < 0.97:
            text = self._hop_query(*self.rng.choice(CHAINS_2))
        else:
            text = self._hop_query(*self.rng.choice(CHAINS_TUPLE_ONLY))
        return text, self.params

    # -- pattern construction -------------------------------------------
    def _scan_query(self) -> str:
        rng = self.rng
        if rng.random() < 0.10:
            label = rng.choice(list(VERTEX_PROPS))
            node = self._node("a", None, VERTEX_PROPS[label])
            bound = {"a": VERTEX_PROPS[label]}
        else:
            label = rng.choice(list(VERTEX_PROPS))
            node = self._node("a", label, VERTEX_PROPS[label])
            bound = {"a": VERTEX_PROPS[label]}
        where = self._where(bound)
        tail = self._return(bound, rel_vars={})
        return f"MATCH {node}{where} {tail}"

    def _hop_query(self, *chain) -> str:
        rng = self.rng
        names = "abca"
        bound: dict[str, dict] = {}
        rel_vars: dict[str, dict] = {}
        parts = []
        for i, (src, elabel, direction, dst) in enumerate(chain):
            if i == 0:
                parts.append(self._node(names[0], src, VERTEX_PROPS[src]))
                bound[names[0]] = VERTEX_PROPS[src]
            rel = ""
            rvar = ""
            if rng.random() < 0.35 and elabel in EDGE_PROPS:
                rvar = f"r{i}"
                rel_vars[rvar] = EDGE_PROPS[elabel]
            etype, star, hops = elabel.partition("*")
            etype = "" if rng.random() < 0.15 else f":{etype}"
            body = f"{rvar}{etype}{star}{hops}"
            if direction == ">":
                rel = f"-[{body}]->"
            elif direction == "<":
                rel = f"<-[{body}]-"
            else:
                rel = f"-[{body}]-"
            far = names[i + 1]
            if far in bound:
                parts.append(f"{rel}({far})")  # described where it began
                continue
            far_label = dst if rng.random() < 0.85 else None
            parts.append(rel + self._node(far, far_label, VERTEX_PROPS[dst]))
            bound[far] = VERTEX_PROPS[dst]
        where = self._where(bound)
        tail = self._return(bound, rel_vars)
        return f"MATCH {''.join(parts)}{where} {tail}"

    def _node(self, var: str, label: str | None, props: dict) -> str:
        rng = self.rng
        inner = var if label is None else f"{var}:{label}"
        if rng.random() < 0.25:
            prop = rng.choice(_comparable(props))
            value = rng.choice(CONST_POOL[props[prop]])
            if rng.random() < 0.5:
                name = self._param(value)
                return f"({inner} {{{prop}: ${name}}})"
            return f"({inner} {{{prop}: {self._literal(value)}}})"
        return f"({inner})"

    # -- WHERE ----------------------------------------------------------
    def _where(self, bound: dict[str, dict]) -> str:
        rng = self.rng
        n = rng.choices([0, 1, 2, 3], weights=[30, 40, 20, 10])[0]
        if n == 0:
            return ""
        preds = [self._predicate(bound) for _ in range(n)]
        joined = preds[0]
        for pred in preds[1:]:
            joined = f"{joined} {rng.choice(['AND', 'OR'])} {pred}"
        return f" WHERE {joined}"

    def _predicate(self, bound: dict[str, dict]) -> str:
        rng = self.rng
        var = rng.choice(list(bound))
        prop = rng.choice(_comparable(bound[var]))
        kind = bound[var][prop]
        if rng.random() < 0.20:
            null_op = rng.choice(["IS NULL", "IS NOT NULL"])
            pred = f"{var}.{prop} {null_op}"
        else:
            op = rng.choice(OPS)
            value = rng.choice(CONST_POOL[kind])
            if rng.random() < 0.20:
                name = self._param(value)
                pred = f"{var}.{prop} {op} ${name}"
            else:
                pred = f"{var}.{prop} {op} {self._literal(value)}"
        if rng.random() < 0.15:
            pred = f"NOT ({pred})"
        return pred

    # -- RETURN ---------------------------------------------------------
    def _return(self, bound: dict[str, dict], rel_vars: dict) -> str:
        rng = self.rng
        if rng.random() < 0.40:
            return self._aggregate_return(bound, rel_vars)
        items = []
        pool = list(bound) + list(rel_vars)
        for _ in range(rng.randint(1, 3)):
            var = rng.choice(pool)
            props = bound.get(var) or rel_vars[var]
            if var in bound and rng.random() < 0.15:
                items.append(var)
            else:
                items.append(f"{var}.{rng.choice(list(props))}")
        distinct = "DISTINCT " if rng.random() < 0.20 else ""
        text = f"RETURN {distinct}{', '.join(dict.fromkeys(items))}"
        if rng.random() < 0.25:
            order = rng.choice([i for i in items if "." in i] or items)
            desc = " DESC" if rng.random() < 0.5 else ""
            text += f" ORDER BY {order}{desc}"
        if rng.random() < 0.08:
            text += f" LIMIT {rng.randint(1, 10)}"
        return text

    def _aggregate_return(self, bound: dict[str, dict], rel_vars: dict) -> str:
        rng = self.rng
        scope = {**bound, **rel_vars}  # edge properties group and fold too
        items = [self._aggregate_item(scope, bound, "agg")]
        if rng.random() < 0.15:
            items.append(self._aggregate_item(scope, bound, "agg2"))
        keys = []
        for _ in range(rng.choices([0, 1, 2], weights=[55, 35, 10])[0]):
            var = rng.choice(list(scope))
            keys.append(f"{var}.{rng.choice(list(scope[var]))}")
        keys = list(dict.fromkeys(keys))
        distinct = "DISTINCT " if rng.random() < 0.10 else ""
        text = f"RETURN {distinct}{', '.join(keys + items)}"
        if rng.random() < 0.20:
            order = rng.choice(keys + ["agg"])
            desc = " DESC" if rng.random() < 0.5 else ""
            text += f" ORDER BY {order}{desc} LIMIT {rng.randint(1, 6)}"
        return text

    def _aggregate_item(self, scope: dict, bound: dict, alias: str) -> str:
        rng = self.rng
        var = rng.choice(list(scope))
        props = scope[var]
        func = rng.choice(AGG_FUNCS + ("collect",))
        if func == "count" and rng.random() < 0.4:
            return f"count(*) AS {alias}"
        if func in ("count", "collect") and var in bound and rng.random() < 0.1:
            return f"{func}({var}) AS {alias}"
        if func in ("sum", "avg"):
            allowed = [p for p, k in props.items() if k in NUMERIC_KINDS]
        elif func in ("min", "max"):
            # Mixed int/str columns make min/max raise TypeError in
            # *both* pipelines - not a differential signal.
            allowed = [p for p, k in props.items() if k != "mixed"]
        else:
            allowed = list(props)
        arg = f"{var}.{rng.choice(allowed or list(props))}"
        if func in ("count", "collect") and rng.random() < 0.3:
            arg = f"DISTINCT {arg}"
        call = f"{func}({arg})"
        if func == "collect" and rng.random() < 0.6:
            call = f"{rng.choice(['size', 'head'])}({call})"
        return f"{call} AS {alias}"

    # -- scalars --------------------------------------------------------
    def _literal(self, value: object) -> str:
        if isinstance(value, str):
            return f"'{value}'"
        return repr(value)

    def _param(self, value: object) -> str:
        self._param_n += 1
        name = f"p{self._param_n}"
        self.params[name] = value
        return name


# -- execution + comparison ---------------------------------------------

def run_path(graph, text, params, vectorize):
    """Execute on a fresh session; return (columns, rows, work, report)."""
    session = GraphSession(graph, NEO4J_LIKE)
    executor = Executor(session, vectorize=vectorize)
    report = ExecutionReport()
    _, _, columns, rows = executor.stream(text, dict(params), report=report)
    out = [tuple(row) for row in rows]
    metrics = session.reset_metrics().as_dict()
    return columns, out, {k: metrics[k] for k in WORK_COUNTERS}, report


def mode_line(report) -> str:
    """The last line EXPLAIN [ANALYZE] renders for this execution."""
    reason = report.fallback_reason
    return f"mode={report.mode}" + (f" reason={reason}" if reason else "")


def _norm_value(value):
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_norm_value, value))
    if isinstance(value, float) and math.isnan(value):
        return type(value), "<NaN>"
    return type(value), value


def norm_rows(rows):
    """Rows as comparable tuples: NaN != NaN would hide a match, and
    ``True == 1 == 1.0`` (or a list against a tuple) a mismatch, so
    each value, and each item of a list, keeps its type."""
    return [tuple(_norm_value(v) for v in row) for row in rows]


def assert_equivalent(graph, text, params=()) -> ExecutionReport:
    """Both pipelines, strict check; returns the vectorized-path report
    (``report.mode`` tells the caller whether the batch path ran or
    fell back)."""
    params = dict(params)
    t_cols, t_rows, t_work, _ = run_path(graph, text, params, vectorize=False)
    v_cols, v_rows, v_work, report = run_path(graph, text, params, vectorize=True)
    context = f"query={text!r} params={params!r} mode={report.mode}"
    assert v_cols == t_cols, f"column mismatch: {context}"
    assert norm_rows(v_rows) == norm_rows(t_rows), f"row mismatch: {context}"
    assert v_work == t_work, (
        f"work-counter mismatch: {context}\n"
        f"  tuple:      {t_work}\n  vectorized: {v_work}"
    )
    return report
