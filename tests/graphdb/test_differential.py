"""Differential query fuzzing: vectorized vs tuple pipeline.

The batch path's correctness argument is empirical as well as
analytical: every query here runs through *both* pipelines on fresh
sessions over the same graph, and the results must match on columns,
rows (order included - the vectorized path preserves tuple-pipeline
order exactly), and all six work counters.  A counter mismatch is a
bug even when the rows agree: it means the batch kernels charge
different work than the tuple operators they replace.

Two layers:

* a seeded corpus run (``REPRO_DIFF_SEED`` overrides the seed; CI runs
  the fixed default plus one randomized, logged seed per build);
* Hypothesis-driven runs that shrink a failing seed to a minimal
  reproducer.

The corpus must exercise both paths: the generator deliberately emits
object-column predicates, min/max over strings, bare ``LIMIT``, index
point reads, variable-length hops and triangles - shapes the
vectorized path refuses - so a run that never fell back
(or never vectorized) fails loudly instead of silently testing one
pipeline against itself.
"""

import dataclasses
import math
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import LruPageCache
from repro.graphdb.query.ast import FuncCall
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.parser import parse_query
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from tests.graphdb.diffquery import (
    WORK_COUNTERS,
    OPS,
    QueryGen,
    assert_equivalent,
    build_differential_graph,
    norm_rows,
    run_path,
)
from tests.graphdb.lru_oracle import PerRowSession

pytestmark = pytest.mark.diff_seed

#: Default corpus seed; override with REPRO_DIFF_SEED=<int> (the CI
#: job runs one extra randomized seed and logs it for replay).
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))
#: 220 until the generator learned the plan shapes the batch path
#: refuses (~6 % of its draws, tuple on both sides): the corpus grew by
#: as much, so the floors below keep the margin they had.
CORPUS_SIZE = 240


class TestCorpus:
    def test_corpus_is_equivalent_on_both_paths(self, diff_graph):
        gen = QueryGen(random.Random(SEED))
        vectorized = fallbacks = 0
        for i in range(CORPUS_SIZE):
            text, params = gen.query()
            try:
                report = assert_equivalent(diff_graph, text, params)
            except AssertionError as exc:  # pragma: no cover - fail path
                raise AssertionError(
                    f"seed={SEED} query #{i}: {exc}"
                ) from exc
            if report.mode == "vectorized":
                vectorized += 1
            else:
                fallbacks += 1
        # The run must have exercised both pipelines, or it proved
        # nothing about their agreement.
        assert vectorized >= 100, (
            f"seed={SEED}: only {vectorized} queries ran vectorized"
        )
        assert fallbacks >= 10, (
            f"seed={SEED}: only {fallbacks} queries fell back"
        )

    @pytest.mark.parametrize("capacity", [0, 1, 4, 22, 96])
    def test_repeat_runs_charge_as_per_row_touches(self, diff_graph, capacity):
        """Each corpus query twice on one session - the batch path's
        second run settles the traces its first recorded - against a
        session that touches every row the kernels produce: the six
        counters and the LRU's recency order after every run."""
        gen = QueryGen(random.Random(SEED))
        bulk = GraphSession(diff_graph, NEO4J_LIKE, LruPageCache(capacity))
        loop = PerRowSession(diff_graph, NEO4J_LIKE, LruPageCache(capacity))
        vectorized = 0
        for i in range(CORPUS_SIZE):
            text, params = gen.query()
            for run in ("cold", "warm"):
                outcomes = []
                for session in (bulk, loop):
                    report = ExecutionReport()
                    _, _, _, rows = Executor(session).stream(
                        text, dict(params), report=report
                    )
                    vectorized += report.mode == "vectorized"
                    rows = norm_rows(list(rows))
                    work = session.reset_metrics().as_dict()
                    outcomes.append((
                        rows, {k: work[k] for k in WORK_COUNTERS},
                        list(session.cache._pages),
                    ))
                assert outcomes[0] == outcomes[1], (i, text, run)
        assert vectorized >= 4 * 100

    def test_object_column_queries_fall_back_and_agree(self, diff_graph):
        """Ordering or folding a string / mixed column is the designed
        fallback case; pin a few explicit shapes on top of whatever the
        corpus drew."""
        cases = [
            "MATCH (p:Patient) WHERE p.name < 'p3' RETURN p.name",
            "MATCH (d:Drug) WHERE d.code >= 30 RETURN d.dose",
            "MATCH (d:Drug) RETURN min(d.name) AS first",
        ]
        for text in cases:
            report = assert_equivalent(diff_graph, text)
            assert report.mode == "tuple", text
            assert report.reason is not None, text

    def test_vectorized_shapes_actually_vectorize(self, diff_graph):
        """Guard the guard: the corpus assertion above is only
        meaningful if plain numeric shapes take the batch path."""
        cases = [
            "MATCH (p:Patient) WHERE p.age > 40 RETURN p.age",
            "MATCH (p:Patient) RETURN sum(p.age) AS total",
            "MATCH (p:Patient)-[:takes]->(d:Drug) RETURN count(*) AS n",
            "MATCH (v:Visit) WHERE v.cost >= 0.0 OR v.day < 5 RETURN v.day",
            # Equality on a string or mixed column compares value codes.
            "MATCH (p:Patient) WHERE p.name = 'p3' RETURN p.name",
            "MATCH (d:Drug) WHERE d.code = 30 RETURN d.dose",
            "MATCH (d:Drug) WHERE d.code = 'c21' RETURN d.name",
        ]
        for text in cases:
            report = assert_equivalent(diff_graph, text)
            assert report.mode == "vectorized", (text, report.reason)
            assert report.batches > 0, text


    def test_grouped_shapes_actually_vectorize(self, diff_graph):
        """Grouped, collect and wrapped aggregates take the batch
        consumer - one explicit case per shape the generator draws."""
        cases = [
            "MATCH (p:Patient) RETURN p.name, count(*) AS n",
            "MATCH (p:Patient) RETURN p.name, p.age, count(p.weight) AS n",
            "MATCH (d:Drug) RETURN d.tags, collect(d.name) AS names",
            "MATCH (p:Patient)-[r:takes]->(d:Drug) "
            "RETURN r.since, sum(d.dose) AS total",
            "MATCH (p:Patient)-[r:takes]->(d:Drug) "
            "RETURN d.name, max(r.since) AS latest",
            "MATCH (p:Patient)-[:takes]->(d:Drug) "
            "RETURN size(collect(d.code)) AS n",
            "MATCH (p:Patient)-[:takes]->(d:Drug) "
            "RETURN p.pid, head(collect(d.name)) AS first",
            "MATCH (p:Patient) RETURN count(DISTINCT p.name) AS n",
            "MATCH (d:Drug) RETURN d.dose, collect(DISTINCT d.tags) AS t",
            "MATCH (p:Patient) RETURN p.name, avg(p.weight) AS w "
            "ORDER BY w DESC LIMIT 3",
            "MATCH (v:Visit) RETURN DISTINCT v.day, count(*) AS n",
            "MATCH (p:Patient) RETURN p, count(*) AS n",
            "MATCH (p:Patient) WHERE p.age > 99 "
            "RETURN coalesce(max(p.age), -1) AS oldest",
        ]
        for text in cases:
            report = assert_equivalent(diff_graph, text)
            assert report.mode == "vectorized", (text, report.reason)

    def test_flattened_collect_over_a_list_column(self, diff_graph):
        """``flatten=True`` is what the rewriter's OPT Q9-Q12 carry;
        query text cannot express it, so the AST is built by hand."""
        for text in (
            "MATCH (d:Drug) RETURN d.name, collect(d.tags) AS t",
            "MATCH (p:Patient)-[:takes]->(d:Drug) "
            "RETURN size(collect(DISTINCT d.tags)) AS n",
        ):
            query = parse_query(text)
            flat = dataclasses.replace(
                query,
                return_items=tuple(
                    dataclasses.replace(item, expr=_flattened(item.expr))
                    for item in query.return_items
                ),
            )
            assert flat != query
            report = assert_equivalent(diff_graph, flat)
            assert report.mode == "vectorized", (text, report.reason)


def _flattened(expr):
    if not isinstance(expr, FuncCall):
        return expr
    return dataclasses.replace(
        expr,
        args=tuple(_flattened(arg) for arg in expr.args),
        flatten=expr.name == "collect",
    )


class TestHypothesis:
    """Shrinkable differential runs: a failure minimizes to one seed."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_seed_is_equivalent(self, diff_graph, seed):
        gen = QueryGen(random.Random(seed))
        for _ in range(3):
            text, params = gen.query()
            assert_equivalent(diff_graph, text, params)

    @settings(max_examples=20, deadline=None)
    @given(
        ages=st.lists(
            st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            max_size=25,
        ),
        op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        const=st.integers(min_value=-100, max_value=100),
    )
    def test_int_predicates_on_generated_columns(self, ages, op, const):
        graph = _column_graph("x", ages)
        assert_equivalent(
            graph, f"MATCH (n:L) WHERE n.x {op} {const} RETURN n.x"
        )

    @settings(max_examples=20, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=True, allow_infinity=True, width=64),
            ),
            max_size=25,
        ),
        op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        const=st.floats(
            allow_nan=False, allow_infinity=False, width=64
        ),
    )
    def test_float_predicates_on_generated_columns(self, weights, op, const):
        graph = _column_graph("x", weights)
        assert_equivalent(
            graph, f"MATCH (n:L) WHERE n.x {op} $c RETURN n.x", {"c": const}
        )

    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.integers(-1000, 1000),
                st.text(
                    alphabet="abcxyz", min_size=0, max_size=4
                ),
            ),
            max_size=25,
        ),
    )
    def test_aggregates_on_promoted_columns(self, values):
        """Mixed int/str columns promote to object mid-column; every
        aggregate must agree (typically by falling back)."""
        graph = _column_graph("x", values)
        present = [v for v in values if v is not None]
        mixed = any(isinstance(v, int) for v in present) and any(
            isinstance(v, str) for v in present
        )
        # min/max over a genuinely mixed column raises TypeError in
        # both pipelines; only count is total there.
        funcs = ("count",) if mixed else ("count", "min", "max")
        for func in funcs:
            assert_equivalent(
                graph, f"MATCH (n:L) RETURN {func}(n.x) AS agg"
            )
        assert_equivalent(
            graph, "MATCH (n:L) WHERE n.x IS NOT NULL RETURN count(*) AS c"
        )


#: One NaN object: stored in an object column and bound as a ``$param``,
#: it must still equal nothing (a dict would find it by identity).
NAN = float("nan")

#: Per label set (one table each), per property, the values stored in
#: row order (None: not stored).  ``i`` is an int64 column, ``f`` a
#: float64 one, ``o`` an object one holding strings, bools, an int and
#: ``NAN``, ``m`` a mixed one (int, float and str tables), ``t`` a
#: list column.
EDGE_TABLES = {
    ("V", "A"): {
        "i": [-(2**63), -1, 0, 1, 2**53, 2**53 + 1, 2**63 - 1, None],
        "f": [-math.inf, -0.0, 0.0, 0.5, 1.0, 2.0**53, math.inf, math.nan],
        "o": ["a", "b", True, False, NAN, 1, None, "a"],
        "m": [0, 1, 2**53 + 1, -5, None, 7, 2**62, 3],
        "t": [[1], ["a"], [1, 2], None, [], [True], ["a"], None],
    },
    ("V", "B"): {
        "i": [5, None, 2**53, -1],
        "f": [math.nan, 0.0, 1.5, None],
        "m": [0.0, math.nan, 2.0**53, -0.0],
    },
    ("V", "C"): {"m": ["a", "b", None]},
}

#: Constants at the edges of exact comparison: past int64, past exact
#: float64 ints, bools, NaN, signed zeros, infinities and strings; plus
#: two that hit stored values.
EDGE_CONSTANTS = [
    2**63, -(2**63), 2**53 + 1, 2**70, -(2**70), True, False, math.nan,
    NAN, 0.0, -0.0, math.inf, -math.inf, "a", 1, 0.5,
]


def _edge_graph():
    g = PropertyGraph("edge-constants")
    vids = []
    for labels, columns in EDGE_TABLES.items():
        rows = max(map(len, columns.values()))
        for row in range(rows):
            props = {
                name: values[row] for name, values in columns.items()
                if row < len(values) and values[row] is not None
            }
            vids.append(g.add_vertex(labels, props))
    for k, vid in enumerate(vids):
        g.add_edge(vid, vids[(3 * k + 1) % len(vids)], "E")
    g.freeze()
    return g


def _literal(value):
    """``value`` as query text, or None where the grammar has no
    literal for it (NaN, infinities)."""
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return repr(value)


class TestEdgeConstants:
    """Every comparison of an edge constant with every column kind runs
    on the batch path - only an order on an object or mixed column
    refuses - and equals the tuple path on rows and the six counters,
    as a literal and as a ``$param``."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _edge_graph()

    @pytest.mark.parametrize("prop", ["i", "f", "o", "m"])
    def test_edge_constants_agree(self, graph, prop):
        kind = {"i": "int64", "f": "float64", "o": "object", "m": "mixed"}
        assert graph.arrays().column(prop).kind == kind[prop]
        refusal = {"o": "object-column", "m": "mixed-kind"}.get(prop)
        shapes = [
            (f"MATCH (n:V) WHERE n.{prop} {op} {{c}} RETURN n.i, n.{prop}",
             refusal if op not in ("=", "<>") else None)
            for op in OPS
        ] + [
            (f"MATCH (n:V {{{{{prop}: {{c}}}}}}) RETURN n.i", None),
            (f"MATCH (a)-[:E]->(b {{{{{prop}: {{c}}}}}}) RETURN a.i, b.f",
             None),
        ]
        for const in EDGE_CONSTANTS:
            forms = [("$c", {"c": const})]
            if _literal(const) is not None:
                forms.append((_literal(const), {}))
            for shape, reason in shapes:
                for text, params in forms:
                    query = shape.format(c=text)
                    report = assert_equivalent(graph, query, params)
                    assert report.reason == reason, (query, const)

    def test_null_is_false_and_a_null_map_matches_absent(self, graph):
        for op in OPS:
            for text, params in (("null", {}), ("$c", {"c": None})):
                rows = _checked(
                    graph, f"MATCH (n:V) WHERE n.i {op} {text} RETURN n.i",
                    params,
                )
                assert rows == [], op
        # A literal null in a node map matches the slots reading None
        # (code 0): 1 of A's rows and 1 of B's lack ``i``, C has none.
        assert len(_checked(graph, "MATCH (n:V {i: null}) RETURN n.m")) == 5

    def test_nan_equals_nothing_not_even_the_object_stored(self, graph):
        for shape in (
            "MATCH (n:V) WHERE n.o = $c RETURN n.i",
            "MATCH (n:V {o: $c}) RETURN n.i",
            "MATCH (a)-[:E]->(b {o: $c}) RETURN a.i",
        ):
            assert _checked(graph, shape, {"c": NAN}) == [], shape
        rows = _checked(graph, "MATCH (n:V) WHERE n.o <> $c RETURN n.o",
                        {"c": NAN})
        assert len(rows) == 7  # every row that reads a value

    @pytest.mark.parametrize("const", [(1,), [1], ("a",), ["a"]])
    def test_a_container_against_a_list_column_refuses(self, graph, const):
        # A stored list's code is its tuple form's: a tuple would equal
        # it by code and not by ``==``.
        for shape in (
            "MATCH (n:V) WHERE n.t = $c RETURN n.i",
            "MATCH (n:V {t: $c}) RETURN n.i",
        ):
            report = assert_equivalent(graph, shape, {"c": const})
            assert report.reason == "unhashable-value", (shape, const)


def _checked(graph, text, params=()):
    """Rows of the batch path, which must have run and agreed with the
    tuple path."""
    report = assert_equivalent(graph, text, params)
    assert report.mode == "vectorized", (text, report.reason)
    return run_path(graph, text, dict(params), vectorize=True)[1]


def _column_graph(prop, values):
    """One label, one column, exactly these values (None = absent)."""
    g = PropertyGraph("col")
    for v in values:
        g.add_vertex("L", {} if v is None else {prop: v})
    g.freeze()
    return g


def test_module_level_graph_matches_fixture(diff_graph):
    """The session fixture and a fresh build are the same graph (the
    builder is deterministic, so logged CI seeds replay exactly)."""
    fresh = build_differential_graph()
    assert fresh.summary() == diff_graph.summary()


def test_norm_rows_keeps_each_value_type():
    """``True == 1 == 1.0`` and ``[1] == (1,)`` in Python; a path that
    returned one for the other would pass a plain ``==``."""
    assert norm_rows([(True,)]) != norm_rows([(1,)])
    assert norm_rows([(1.0,)]) != norm_rows([(1,)])
    assert norm_rows([([1],)]) != norm_rows([((1,),)])
    assert norm_rows([([True],)]) != norm_rows([([1],)])
    assert norm_rows([(float("nan"), [1])]) == norm_rows([(float("nan"), [1])])
