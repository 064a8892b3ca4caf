"""The vectorized batch path: mask kernels, fallback decisions, and
the execution report surface.

The differential suite (``tests/graphdb/test_differential.py``) checks
vectorized-vs-tuple agreement; this file pins the batch path against
an *independent* oracle - plain Python comprehensions over
:func:`repro.graphdb.query.functions.compare` - so a bug shared by
both pipelines cannot hide.  It also pins the fallback decision table
(which query/column shapes must refuse the batch path, and the reason
string each reports) and the aggregation kernels' exactness rules.

The grouped consumer's column folds are drawn by Hypothesis against the
tuple path; ``REPRO_DIFF_SEED`` seeds those draws, as it seeds the
differential corpus, so a red randomized CI run reproduces locally.
"""

import dataclasses
import math
import os
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.graphdb import observe
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.metrics import LruPageCache
from repro.graphdb.query import vectorized
from repro.graphdb.query.ast import FuncCall
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.functions import (
    apply_aggregate,
    apply_scalar,
    compare,
)
from repro.graphdb.query.parser import parse_query
from repro.graphdb.session import GraphSession
from tests.graphdb.diffquery import (
    WORK_COUNTERS,
    assert_equivalent,
    mode_line,
    norm_rows,
)

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))

OPS = ("=", "<>", "<", "<=", ">", ">=")


def column_graph(values, prop="x", freeze=False):
    """One label ``L``, one column; ``None`` means *absent*."""
    g = PropertyGraph("k")
    for v in values:
        g.add_vertex("L", {} if v is None else {prop: v})
    if freeze:
        g.freeze()
    return g


def run_vectorized(graph, text, params=None, guard=None):
    """Rows + report from the default (vectorize=True) executor."""
    session = GraphSession(graph, NEO4J_LIKE)
    executor = Executor(session)
    report = vectorized.ExecutionReport()
    _, _, columns, rows = executor.stream(
        text, dict(params or {}), report=report, guard=guard
    )
    return [tuple(r) for r in rows], report


def assert_matches_tuple(graph, text, params=None):
    """The batch path ran, and agrees with the tuple path on rows (in
    order, each value of the same type) and on all six work
    counters."""
    outcomes = []
    for vectorize in (False, True):
        session = GraphSession(graph, NEO4J_LIKE)
        executor = Executor(session, vectorize=vectorize)
        report = vectorized.ExecutionReport()
        _, _, columns, rows = executor.stream(
            text, dict(params or {}), report=report
        )
        rows = [tuple(r) for r in rows]
        metrics = session.reset_metrics().as_dict()
        outcomes.append(
            (columns, norm_rows(rows), {k: metrics[k] for k in WORK_COUNTERS})
        )
    assert report.mode == "vectorized", (text, report.reason)
    assert outcomes[0] == outcomes[1], text
    return rows


def norm(value):
    if isinstance(value, float) and math.isnan(value):
        return "<NaN>"
    return value


class TestMaskKernelsVsOracle:
    """Kernel output == a list comprehension over ``compare()``."""

    def check(self, values, op, const, expect_mode=None):
        graph = column_graph(values)
        rows, report = run_vectorized(
            graph, f"MATCH (n:L) WHERE n.x {op} $c RETURN n.x", {"c": const}
        )
        expected = [
            (v,) for v in values if v is not None and compare(op, v, const)
        ]
        assert [tuple(norm(v) for v in r) for r in rows] == [
            tuple(norm(v) for v in r) for r in expected
        ], (values, op, const, report.reason)
        if expect_mode is not None:
            assert report.mode == expect_mode, report.reason
        return report

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.none(), st.integers(-(2**62), 2**62)),
            max_size=30,
        ),
        op=st.sampled_from(OPS),
        const=st.integers(-(2**70), 2**70),
    )
    def test_int64_kernels(self, values, op, const):
        self.check(values, op, const)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=True, allow_infinity=True, width=64),
            ),
            max_size=30,
        ),
        op=st.sampled_from(OPS),
        const=st.one_of(
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            st.integers(-(2**60), 2**60),
        ),
    )
    def test_float64_kernels_with_nan(self, values, op, const):
        self.check(values, op, const)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.integers(-100, 100),
                st.text(alphabet="abz", max_size=3),
            ),
            max_size=20,
        ),
        op=st.sampled_from(OPS),
        const=st.one_of(st.integers(-100, 100), st.text("abz", max_size=3)),
    )
    def test_promoted_object_columns_fall_back_correctly(
        self, values, op, const
    ):
        """A column that turns object mid-table compares ``=`` / ``<>``
        by its value codes, and refuses an ordering kernel - each with
        oracle-identical rows."""
        present = [v for v in values if v is not None]
        has_int = any(isinstance(v, int) for v in present)
        has_str = any(isinstance(v, str) for v in present)
        report = self.check(values, op, const)
        if op in ("=", "<>") or not has_str:
            assert report.mode == "vectorized", report.reason
        elif has_int:
            assert report.mode == "tuple"
            assert report.reason in ("object-column", "mixed-kind")

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.none(), st.integers(-50, 50)), max_size=25
        ),
        negate=st.booleans(),
    )
    def test_null_checks(self, values, negate):
        graph = column_graph(values)
        check = "IS NOT NULL" if negate else "IS NULL"
        rows, report = run_vectorized(
            graph, f"MATCH (n:L) WHERE n.x {check} RETURN count(*) AS c"
        )
        expected = sum(
            1 for v in values if (v is not None) == negate
        )
        assert rows == [(expected,)], report.reason

    def test_all_null_column(self):
        """Kernel over a never-stored key: everything reads as null."""
        graph = column_graph([None] * 12)
        for op in OPS:
            rows, report = run_vectorized(
                graph, f"MATCH (n:L) WHERE n.x {op} 5 RETURN n.x"
            )
            assert rows == []
            assert report.mode == "vectorized", report.reason
        rows, _ = run_vectorized(
            graph, "MATCH (n:L) WHERE n.x IS NULL RETURN count(*) AS c"
        )
        assert rows == [(12,)]

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.none(), st.integers(-20, 20)),
            min_size=1,
            max_size=25,
        ),
        a=st.integers(-20, 20),
        b=st.integers(-20, 20),
        joiner=st.sampled_from(["AND", "OR"]),
        negate=st.booleans(),
    )
    def test_boolean_folding(self, values, a, b, joiner, negate):
        """AND/OR/NOT trees fold progressively; the oracle evaluates
        the same tree row-at-a-time."""
        graph = column_graph(values)
        pred = f"n.x > {a} {joiner} n.x <= {b}"
        if negate:
            pred = f"NOT ({pred})"
        rows, report = run_vectorized(
            graph, f"MATCH (n:L) WHERE {pred} RETURN n.x"
        )

        def oracle(v):
            # Two-valued logic: a null comparison is *false* (not
            # unknown), so NOT can resurrect null rows.
            hit = (
                (compare(">", v, a) or compare("<=", v, b))
                if joiner == "OR"
                else (compare(">", v, a) and compare("<=", v, b))
            )
            return not hit if negate else hit

        assert rows == [(v,) for v in values if oracle(v)], report.reason
        assert report.mode == "vectorized", report.reason


class TestFallbackDecisions:
    """The documented fallback matrix, by reason string."""

    @pytest.fixture()
    def graph(self):
        g = PropertyGraph("fb")
        for i in range(10):
            g.add_vertex("P", {"x": i, "flag": i % 2 == 0})
        return g

    def expect(self, graph, text, reason, params=None):
        rows, report = run_vectorized(graph, text, params)
        assert report.mode == "tuple", text
        assert report.reason == reason, (text, report.reason)
        return rows

    def test_limit_is_tuple_only(self, graph):
        self.expect(graph, "MATCH (n:P) RETURN n.x LIMIT 3", "limit")

    def test_order_by_limit_vectorizes(self, diff_graph):
        """ORDER BY + LIMIT drains fully into the shared top-k heap,
        so it does not force the tuple path; bare LIMIT still does."""
        text = (
            "MATCH (p:Patient) WHERE p.age > 10 "
            "RETURN p.age ORDER BY p.age DESC LIMIT 5"
        )
        report = assert_equivalent(diff_graph, text)
        assert report.mode == "vectorized", report.reason
        self.expect(
            diff_graph, "MATCH (p:Patient) RETURN p.age LIMIT 3", "limit"
        )

    def test_grouped_aggregation_is_tuple_only(self, graph):
        """Was tuple-only; the batch consumer now groups (name kept)."""
        rows = assert_matches_tuple(
            graph, "MATCH (n:P) RETURN n.flag, count(*) AS c"
        )
        assert rows == [(True, 5), (False, 5)]

    def test_collect_is_tuple_only(self, graph):
        """Was tuple-only; ``collect`` now folds on the batch path."""
        rows = assert_matches_tuple(
            graph, "MATCH (n:P) RETURN collect(n.x) AS c"
        )
        assert rows == [(list(range(10)),)]

    def test_nested_aggregate_shapes_still_refuse(self, graph):
        # What is left of aggregate-shape: a grouping key that is not
        # a leaf, and an aggregate whose argument is not one.
        self.expect(
            graph,
            "MATCH (n:P) RETURN coalesce(n.x, 0), count(*) AS c",
            "aggregate-shape",
        )
        self.expect(
            graph,
            "MATCH (n:P) RETURN sum(coalesce(n.x, 0)) AS s",
            "aggregate-shape",
        )

    def test_summing_an_object_column_refuses(self, graph):
        # Reading strings vectorizes; adding or comparing them does not.
        self.expect(
            graph, "MATCH (n:P) RETURN n.x, max(n.flag) AS m",
            "object-column",
        )

    def test_bool_column_is_object(self, graph):
        # Equality reads the value codes; an order needs a typed column.
        assert assert_matches_tuple(
            graph, "MATCH (n:P) WHERE n.flag = true RETURN n.x"
        ) == [(0,), (2,), (4,), (6,), (8,)]
        self.expect(
            graph,
            "MATCH (n:P) WHERE n.flag < true RETURN n.x",
            "object-column",
        )

    def test_bool_constant_is_the_int_it_equals(self, graph):
        # 1 == True and 0 < True in Python, and in a rank lookup.
        assert assert_matches_tuple(
            graph, "MATCH (n:P) WHERE n.x = true RETURN n.x"
        ) == [(1,)]
        assert assert_matches_tuple(
            graph, "MATCH (n:P) WHERE n.x < true RETURN n.x"
        ) == [(0,)]

    def test_expand_needs_frozen_arrays(self):
        g = PropertyGraph()
        a = g.add_vertex("P", {"x": 1})
        b = g.add_vertex("Q", {"y": 2})
        g.add_edge(a, b, "r")
        assert g.arrays().type_rank is None  # not frozen
        self.expect(g, "MATCH (a:P)-[:r]->(b:Q) RETURN b.y", "no-frozen-view")
        # Frozen, the same query vectorizes.
        g.freeze()
        _, report = run_vectorized(g, "MATCH (a:P)-[:r]->(b:Q) RETURN b.y")
        assert report.mode == "vectorized", report.reason

    #: One query per plan construct the batch compiler has no operator
    #: or kernel for.  The planner used to keep such plans away from
    #: it; now each is refused by the raise at the site that would
    #: have to compile it - and a missing raise must not pass: the
    #: rows are held to ``Executor(vectorize=False)``.
    NO_OPERATOR = {
        "index scan": "MATCH (p:Patient {pid: 5}) RETURN p.age",
        "variable-length hop":
            "MATCH (d:Drug)-[:interacts*1..2]->(e:Drug) "
            "RETURN d.dose, count(*) AS n",
        "cycle closed by a join check":
            "MATCH (a:Patient)-[:takes]->(b:Drug)-[:interacts]-(c:Drug), "
            "(a)-[:takes]->(c) RETURN a.pid, b.dose, c.dose",
        "second scan":
            "MATCH (v:Visit), (d:Drug) WHERE v.day = 3 AND d.dose = 50 "
            "RETURN v.cost, d.code",
        "edge-property predicate":
            "MATCH (p:Patient)-[r:takes]->(d:Drug) WHERE r.since > 2005 "
            "RETURN p.pid, d.dose",
        "property-to-property comparison":
            "MATCH (p:Patient)-[:takes]->(d:Drug) WHERE p.age > d.dose "
            "RETURN p.pid, d.dose",
        "function call in WHERE":
            "MATCH (d:Drug) WHERE size(d.tags) > 1 RETURN d.dose",
    }

    @pytest.mark.parametrize("cause", NO_OPERATOR)
    def test_a_plan_without_an_operator_is_refused(self, diff_graph, cause):
        report = assert_equivalent(diff_graph, self.NO_OPERATOR[cause])
        assert (report.mode, report.reason) == ("tuple", "plan"), cause
        rows, _ = run_vectorized(diff_graph, self.NO_OPERATOR[cause])
        assert rows, cause  # equal and empty would show nothing

    def test_disabled_executor_reports_disabled(self, graph):
        session = GraphSession(graph, NEO4J_LIKE)
        executor = Executor(session, vectorize=False)
        report = vectorized.ExecutionReport()
        _, _, _, rows = executor.stream(
            "MATCH (n:P) RETURN n.x", {}, report=report
        )
        list(rows)
        assert report.mode == "tuple"
        assert report.reason == "disabled"


class TestStaticModeFidelity:
    """Plain EXPLAIN's mode line is what actually runs, for every
    parameter-free query shape we emit.  Both come from the same
    compile now (``tests/graphdb/test_explain_fidelity.py`` holds that
    over the generated corpus); these are the named regressions from
    when EXPLAIN predicted the mode with a hand-kept mirror."""

    CASES = [
        ("MATCH (n:P) RETURN n.x", None),
        ("MATCH (n:P) WHERE n.x > 3 RETURN n.x", None),
        ("MATCH (n:P) RETURN sum(n.x) AS s", None),
        ("MATCH (n:P) RETURN n.name", None),
        ("MATCH (n:P) RETURN n.name, n.either, count(*) AS c", None),
        ("MATCH (n:P) RETURN size(collect(n.name)) AS c", None),
        ("MATCH (n:P) RETURN n.x, count(n.name) AS c", None),
        ("MATCH (a:P)-[:r]->(b:P) RETURN count(*) AS c", None),
        ("MATCH (a:P)-[:r]->(b:P) RETURN a.name, collect(b.name) AS c", None),
        # One per refusal reason EXPLAIN can see without parameters.
        ("MATCH (n:P) RETURN n.x LIMIT 2", "limit"),
        ("MATCH (n:P) RETURN size(n.name)", "return-shape"),
        ("MATCH (n:P) RETURN size(n.name), count(*) AS c", "aggregate-shape"),
        ("MATCH (n:P) WHERE n.name < 'a' RETURN n.x", "object-column"),
        ("MATCH (n:P) RETURN n.x, min(n.name) AS m", "object-column"),
        ("MATCH (n) WHERE n.either > 1 RETURN n.x", "mixed-kind"),
        ("MATCH (n) RETURN max(n.either) AS m", "mixed-kind"),
        # Equality on any column kind compares value codes, and an
        # order on a typed column ranks the constant exactly.
        ("MATCH (n:P) WHERE n.name = 'a' RETURN n.x", None),
        ("MATCH (n:P {name: 'n1'}) RETURN n.x", None),
        ("MATCH (n) WHERE n.either = 0.5 RETURN n.x", None),
        ("MATCH (n:P) WHERE n.x = true RETURN n.x", None),
        ("MATCH (n:P) WHERE n.x > 'a' RETURN n.x", None),
        (f"MATCH (n:P) WHERE n.x < {2**63} RETURN n.x", None),
        (f"MATCH (n:P) WHERE n.f < {2**53 + 1} RETURN n.x", None),
        (f"MATCH (n:P {{f: {2**63}}}) RETURN n.x", None),
        (f"MATCH (n:P {{x: {2**63}}}) RETURN n.x", None),
        ("MATCH (n:P {x: 'a'}) RETURN n.x", None),
        ("MATCH (n:P) WHERE n.flag = true RETURN n.x", None),
        # A null constant and a never-stored key need no values.
        ("MATCH (n:P) WHERE n.name < null RETURN n.x", None),
        ("MATCH (n:P) WHERE n.nokey > true RETURN n.x", None),
    ]

    def check(self, graph, query, reason, label):
        explained = Executor(GraphSession(graph, NEO4J_LIKE)).explain(query)
        _, report = run_vectorized(graph, query)
        assert report.reason == reason, (label, report.reason)
        assert explained.splitlines()[-1] == mode_line(report), label
        assert report.mode == ("tuple" if reason else "vectorized"), label

    def test_prediction_matches_runtime(self):
        g = PropertyGraph("sm")
        vids = [
            g.add_vertex(
                "P",
                {"x": i, "name": f"n{i}", "flag": bool(i % 2), "either": i,
                 "f": i + 0.5},
            )
            for i in range(8)
        ]
        g.add_vertex("Q", {"either": 0.5})  # int here, float there
        for i in range(7):
            g.add_edge(vids[i], vids[i + 1], "r")
        # Unfrozen, an expansion has no CSR to slice.
        self.check(
            g, "MATCH (a:P)-[:r]->(b:P) RETURN b.name",
            "no-frozen-view", "unfrozen",
        )
        g.freeze()
        for text, reason in self.CASES:
            self.check(g, text, reason, text)

    def test_paper_queries_predict_vectorized(self, med_pipeline, fin_pipeline):
        """The 24 ops of Fig. 11: DIR as text, OPT as the rewriter's
        ``Query`` objects (which carry ``flatten`` aggregates)."""
        for pipeline in (med_pipeline, fin_pipeline):
            for graph, queries in (
                (pipeline.dir_graph, pipeline.dataset.queries),
                (pipeline.opt_graph, pipeline.rewritten),
            ):
                for qid, query in queries.items():
                    self.check(graph, query, None, (graph.name, qid))
                    assert (
                        Executor(GraphSession(graph, NEO4J_LIKE))
                        .explain(query).endswith("mode=vectorized")
                    )


class TestAggregationExactness:
    def test_int_sum_beyond_float_precision(self):
        """Sums that float64 would round must come out exact."""
        values = [2**60, 2**60 - 1, 3, -7]
        rows, report = run_vectorized(
            column_graph(values), "MATCH (n:L) RETURN sum(n.x) AS s"
        )
        assert rows == [(sum(values),)]
        assert isinstance(rows[0][0], int)
        assert report.mode == "vectorized", report.reason

    def test_float_sum_matches_sequential_fold(self):
        values = [0.1] * 10 + [1e16, -1e16]
        rows, report = run_vectorized(
            column_graph(values), "MATCH (n:L) RETURN sum(n.x) AS s"
        )
        acc = 0
        for v in values:
            acc += v
        assert rows == [(acc,)]
        assert report.mode == "vectorized", report.reason

    def test_nan_poisons_min_max_like_python(self):
        values = [3.0, float("nan"), 1.0]
        for func in ("min", "max"):
            rows, report = run_vectorized(
                column_graph(values),
                f"MATCH (n:L) RETURN {func}(n.x) AS m",
            )
            oracle = min(values) if func == "min" else max(values)
            assert (
                [tuple(norm(v) for v in r) for r in rows]
                == [(norm(oracle),)]
            )
            assert report.mode == "vectorized", report.reason

    def test_zero_match_aggregate_row(self):
        graph = column_graph([1, 2, 3])
        rows, report = run_vectorized(
            graph,
            "MATCH (n:L) WHERE n.x > 99 "
            "RETURN count(*) AS c, sum(n.x) AS s, min(n.x) AS lo, "
            "avg(n.x) AS a",
        )
        assert rows == [(0, 0, None, None)]
        assert report.mode == "vectorized", report.reason


#: Stored values per property, one property per way the grouped
#: consumer groups on or folds a column: typed int64 (with magnitudes past
#: the overflow guard), typed float64 (NaN, -0.0), object with ``True``
#: beside ``1``, strings, lists and a stored None, strings alone, and
#: lists beside scalars.  ``z`` is never stored.
FOLD_COLUMNS = {
    "i": st.sampled_from([1, 2, 3] * 3 + [-1, 2**62, -(2**62)]),
    "f": st.sampled_from([0.5, 0.0, -0.0, 2.25, float("nan")]),
    "m": st.sampled_from([True, 1, 1.0, 0, "a", None, [1, 2], ["a"], []]),
    "s": st.sampled_from(["x", "y", "z"]),
    "l": st.lists(st.sampled_from(["a", "b", 1]), max_size=3)
    | st.sampled_from(["a", 2]),
}
#: One vertex: each property stored or absent, about evenly.
FOLD_VERTEX = st.tuples(*(
    st.one_of(st.just(KeyError), values) for values in FOLD_COLUMNS.values()
)).map(lambda row: {
    name: value for name, value in zip(FOLD_COLUMNS, row)
    if value is not KeyError
})
FOLD_VALUE = st.one_of(
    st.none(), st.integers(-3, 3), st.sampled_from([float("nan"), 0.5]),
    st.text(max_size=1), st.lists(st.integers(-1, 1) | st.none(), max_size=3),
)
FOLD_KEYS = ("n.i", "n.f", "n.m", "n.s", "n.l", "n.z", "n")
FOLD_AGGREGATES = (
    "count(*)", "count(n)",
    *(f"{fn}(n.{prop})" for fn in ("count", "collect") for prop in "imslz"),
    *(f"{fn}(DISTINCT n.{prop})" for fn in ("count", "collect")
      for prop in "fml"),
    *(f"size(collect(n.{prop}))" for prop in "fmlz"),
    "size(collect(DISTINCT n.m))", "head(collect(n.l))",
    *(f"{fn}(n.{prop})" for fn in ("sum", "min", "max", "avg")
      for prop in "ifz"),
    "coalesce(max(n.i), n.s)",
)


#: The one NaN object the drawn object values share: an object column
#: stores it as itself, so every read of it is the same key.
NAN = float("nan")
#: Per label set, each property's stored values.  ``i`` is int64, ``f``
#: float64 and ``o`` object (``True``, ``1``, ``1.0``, lists, the shared
#: NaN and a stored None) on both; ``m`` is float64 on ``G`` and object
#: on ``H``, a mixed column.
HOP_COLUMNS = {
    label: {
        "i": st.sampled_from([1, 2, 3, -4]),
        "f": st.sampled_from([0.5, 0.0, -0.0, NAN, 2.25]),
        "o": st.sampled_from(
            [True, 1, 1.0, 0, "a", None, NAN, [1, 2], [], ["a"]]
        ),
        "m": st.sampled_from(
            [1.0, 0.5, NAN] if label == "G" else [1, True, "a", [1], None]
        ),
    }
    for label in ("G", "H")
}
#: One vertex: a label set, each property stored or absent.
HOP_VERTEX = st.sampled_from(sorted(HOP_COLUMNS)).flatmap(
    lambda label: st.tuples(st.just(label), st.tuples(*(
        st.one_of(st.just(KeyError), values)
        for values in HOP_COLUMNS[label].values()
    )).map(lambda row: {
        name: value for name, value in zip(HOP_COLUMNS[label], row)
        if value is not KeyError
    }))
)
HOP_EDGE_VALUE = st.sampled_from(
    [KeyError, 1, 1.0, True, "a", None, NAN, [1], ["a", "b"]]
)
HOP_KEYS = (
    "s.i", "s.f", "s.o", "s.m", "t.i", "t.f", "t.o", "t.m", "e.w",
    "s", "t", "e",
)
HOP_AGGREGATES = (
    "count(*)", "count(s.o)", "count(t.m)", "count(e.w)",
    "size(collect(t.o))", "size(collect(e.w))", "collect(s.f)",
    "count(DISTINCT t.o)", "sum(s.i)", "count(t.f)", "count(null)",
    "count([1, 2])",
)


def with_flatten(query):
    """``query`` with every count / collect flattening list values:
    the rewriter's ``FuncCall.flatten`` has no surface syntax."""

    def walk(expr):
        if not isinstance(expr, FuncCall):
            return expr
        return dataclasses.replace(
            expr, args=tuple(map(walk, expr.args)),
            flatten=expr.flatten or expr.name in ("count", "collect"),
        )

    return dataclasses.replace(query, return_items=tuple(
        dataclasses.replace(item, expr=walk(item.expr))
        for item in query.return_items
    ))


#: Four vertices a page, so a few dozen span pages a small cache evicts.
SMALL_PAGES = dataclasses.replace(NEO4J_LIKE, vertices_per_page=4)


def assert_same_at_capacity(graph, query, capacity):
    """Columns, rows in order with each value's type (``True``, ``1``
    and ``1.0`` compare equal), the six counters and the LRU's final
    recency order equal the tuple path's - on a first run and on a
    second one on the same session, which the batch path settles from
    the traces the first recorded."""
    outcomes = []
    for vectorize in (False, True):
        session = GraphSession(graph, SMALL_PAGES, LruPageCache(capacity))
        runs = []
        for _ in range(2):
            report = vectorized.ExecutionReport()
            executor = Executor(session, vectorize=vectorize)
            _, _, columns, rows = executor.stream(query, {}, report=report)
            rows = norm_rows(rows)
            work = session.reset_metrics().as_dict()
            runs.append((
                columns, rows, {k: work[k] for k in WORK_COUNTERS},
                list(session.cache._pages),
            ))
        outcomes.append(runs)
    assert report.mode == "vectorized", report.reason
    assert outcomes[0] == outcomes[1], (capacity, outcomes)


@pytest.mark.diff_seed
class TestGroupedConsumer:
    """The batch consumer of every aggregating RETURN, on the edges
    the differential corpus reaches only by luck."""

    def test_keyed_group_over_zero_matches_is_zero_rows(self):
        graph = column_graph([1, 2, 3])
        rows = assert_matches_tuple(
            graph, "MATCH (n:L) WHERE n.x > 99 RETURN n.x, count(*) AS c"
        )
        assert rows == []

    def test_global_wrapped_aggregate_over_zero_matches_is_one_row(self):
        graph = column_graph([1, 2, 3])
        rows = assert_matches_tuple(
            graph,
            "MATCH (n:L) WHERE n.x > 99 RETURN size(collect(n.x)) AS c, "
            "head(collect(n.x)) AS h, coalesce(max(n.x), 7) AS m",
        )
        # A literal inside a wrapper is read off the group's first
        # binding - an empty group has none, so it is null too.
        assert rows == [(0, None, None)]

    def test_unsatisfiable_scan_goes_through_the_consumer(self):
        graph = column_graph([1, 2, 3])
        params = {"v": None}  # `{x: $v}` with null matches nothing
        rows = assert_matches_tuple(
            graph, "MATCH (n:L {x: $v}) RETURN collect(n.x) AS c", params
        )
        assert rows == [([],)]
        rows = assert_matches_tuple(
            graph, "MATCH (n:L {x: $v}) RETURN n.x, count(*) AS c", params
        )
        assert rows == []

    def test_groups_span_batches(self, monkeypatch):
        monkeypatch.setattr(vectorized, "BATCH_ROWS", 7)
        graph = column_graph([i % 5 for i in range(40)])
        text = (
            "MATCH (n:L) RETURN n.x, count(*) AS c, collect(n.x) AS xs, "
            "sum(n.x) AS s"
        )
        rows = assert_matches_tuple(graph, text)
        assert rows == [(k, 8, [k] * 8, 8 * k) for k in range(5)]
        _, report = run_vectorized(graph, text)
        assert report.batches == 6

    def test_deadline_is_checked_between_batches(self, monkeypatch):
        from repro.exceptions import QueryTimeoutError
        from repro.graphdb.query.executor import ExecutionGuard

        monkeypatch.setattr(vectorized, "BATCH_ROWS", 4)
        graph = column_graph(range(20))
        checks = []

        class ThirdCheckExpires(ExecutionGuard):
            def check_deadline(self):
                checks.append(len(checks))
                if len(checks) == 3:
                    raise QueryTimeoutError("deadline")

        with pytest.raises(QueryTimeoutError):
            run_vectorized(
                graph, "MATCH (n:L) RETURN n.x, count(*) AS c",
                guard=ThirdCheckExpires(timeout=60.0),
            )
        # Stopped while draining, two batches short of the end.
        assert len(checks) == 3

    def test_stored_none_in_an_object_column_reads_as_absent(self):
        graph = column_graph(["a", None, "b"], prop="s")
        graph.set_property(2, "s", None)  # present slot, null value
        rows = assert_matches_tuple(graph, "MATCH (n:L) RETURN n.s")
        assert rows == [("a",), (None,), (None,)]
        rows = assert_matches_tuple(
            graph, "MATCH (n:L) RETURN n.s, count(n.s) AS c"
        )
        assert rows == [("a", 1), (None, 0)]

    def test_projected_list_is_a_fresh_copy(self):
        tags = ["t0", "t1"]
        graph = PropertyGraph("lists")
        vid = graph.add_vertex("L", {"tags": tags})
        graph.add_vertex("L", {"tags": ["t0", "t1", "t2"]})
        rows = assert_matches_tuple(graph, "MATCH (n:L) RETURN n.tags")
        assert rows == [(["t0", "t1"],), (["t0", "t1", "t2"],)]
        stored = GraphSession(graph, NEO4J_LIKE).property_reader("tags")(vid)
        assert rows[0][0] == stored and rows[0][0] is not stored
        # Grouping on a list hashes a tuple copy and returns a list.
        rows = assert_matches_tuple(
            graph, "MATCH (n:L) RETURN n.tags, count(*) AS c"
        )
        assert rows[0][0] == stored and rows[0][0] is not stored

    # -- the column folds, drawn ------------------------------------------
    @seed(SEED)
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        vertices=st.lists(FOLD_VERTEX, min_size=3, max_size=30),
        keys=st.lists(st.sampled_from(FOLD_KEYS), max_size=2),
        aggregates=st.lists(st.sampled_from(FOLD_AGGREGATES), min_size=2,
                            max_size=5),
        flatten=st.booleans(),
        matched=st.sampled_from([True] * 7 + [False]),
        batch_rows=st.integers(1, 9),
    )
    def test_column_folds_equal_the_tuple_path(
        self, vertices, keys, aggregates, flatten, matched, batch_rows
    ):
        """Rows in order, the six counters and the LRU's final recency
        order equal the tuple path's at every cache size, with groups
        spanning batches; a label nothing carries gives the zero-match
        keyed and global cases."""
        graph = PropertyGraph("folds")
        for props in vertices:
            graph.add_vertex("G", props)
        items = list(dict.fromkeys(keys)) + [
            f"{agg} AS a{i}" for i, agg in enumerate(aggregates)
        ]
        label = "G" if matched else "Nothing"
        query = parse_query(f"MATCH (n:{label}) RETURN {', '.join(items)}")
        if flatten:
            query = with_flatten(query)
        with mock.patch.object(vectorized, "BATCH_ROWS", batch_rows):
            for capacity in (0, 1, 4, 96):
                assert_same_at_capacity(graph, query, capacity)

    # -- grouping keys over a hop, drawn ----------------------------------
    @seed(SEED)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        vertices=st.lists(HOP_VERTEX, min_size=2, max_size=7),
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), HOP_EDGE_VALUE),
            min_size=1, max_size=24,
        ),
        keys=st.lists(st.sampled_from(HOP_KEYS), min_size=1, max_size=2,
                      unique=True),
        aggregates=st.lists(st.sampled_from(HOP_AGGREGATES), min_size=1,
                            max_size=3),
        flatten=st.booleans(),
        batch_rows=st.integers(1, 9),
    )
    def test_keys_over_a_hop_equal_the_tuple_path(
        self, vertices, edges, keys, aggregates, flatten, batch_rows
    ):
        """Keys on either end of a hop, whose values repeat across
        vertices and whose vertices repeat across rows, group as the
        tuple path's dict does: ``True``, ``1`` and ``1.0`` as one, a
        stored None with an absent key, a stored NaN object as itself,
        every read of a float64 table's NaN apart - in a float64 column
        and in a column two label sets store with different kinds."""
        graph = PropertyGraph("hop")
        vids = [graph.add_vertex(label, props) for label, props in vertices]
        for src, dst, value in edges:
            graph.add_edge(
                vids[src % len(vids)], vids[dst % len(vids)], "E",
                None if value is KeyError else {"w": value},
            )
        graph.freeze()
        items = keys + [f"{agg} AS a{i}" for i, agg in enumerate(aggregates)]
        query = parse_query(f"MATCH (s)-[e:E]->(t) RETURN {', '.join(items)}")
        if flatten:
            query = with_flatten(query)
        with mock.patch.object(vectorized, "BATCH_ROWS", batch_rows):
            for capacity in (0, 96):
                assert_same_at_capacity(graph, query, capacity)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP 3(a): rows and counters agree, but the tuple "
        "path touches pages binding by binding and the batch path "
        "operator by operator, so the LRU's recency order differs",
    )
    @pytest.mark.parametrize(
        "n, edges, key, batch_rows",
        [(5, [(0, 0), (0, 4)], "t.i", 5), (6, [(0, 0), (4, 0)], "s.i", 2)],
        ids=["seed-61", "seed-9"],
    )
    def test_recency_order_over_a_hop(self, n, edges, key, batch_rows):
        """The falsifying examples ``REPRO_DIFF_SEED`` 61 and 9 draw
        for :meth:`test_keys_over_a_hop_equal_the_tuple_path`: at
        capacity 96 (nothing evicted) the final recency order is
        ``[2, 1, 0]`` on the tuple path and ``[1, 2, 0]`` on the
        batch path."""
        graph = PropertyGraph("hop")
        vids = [graph.add_vertex("G", {}) for _ in range(n)]
        for src, dst in edges:
            graph.add_edge(vids[src], vids[dst], "E")
        graph.freeze()
        query = parse_query(
            f"MATCH (s)-[e:E]->(t) RETURN {key}, count(*) AS a0"
        )
        with mock.patch.object(vectorized, "BATCH_ROWS", batch_rows):
            assert_same_at_capacity(graph, query, 96)

    def test_a_float_tables_nan_in_a_mixed_column_is_a_group_per_row(self):
        # ``k`` is float64 on G and object on H: the column is mixed,
        # and each read of G's NaN is a new float, as in a float64
        # column.
        graph = PropertyGraph("mixed")
        a = graph.add_vertex("G", {"k": float("nan")})
        b = graph.add_vertex("H", {"k": "s"})
        for src in (a, b, a):
            graph.add_edge(src, a, "E")
        graph.freeze()
        text = "MATCH (s)-[:E]->(t) RETURN t.k, count(*) AS c"
        assert_same_at_capacity(graph, parse_query(text), 96)
        rows, _ = run_vectorized(graph, text)
        assert [c for _, c in rows] == [1, 1, 1]

    def test_an_unhashable_key_value_runs_on_the_tuple_path(self):
        # No dict can key a set: the batch path leaves the column to
        # the tuple path, which hashes only the rows it groups.
        graph = column_graph(["a", "b", "a"], prop="s")
        graph.add_vertex("M", {"s": {1}})
        rows, report = run_vectorized(
            graph, "MATCH (n:L) RETURN n.s, count(*) AS c"
        )
        assert rows == [("a", 2), ("b", 1)]
        assert report.reason == "unhashable-value"

    def test_the_drain_keeps_only_the_slots_it_reads(self):
        graph = PropertyGraph("slots")
        a, b = (graph.add_vertex("L", {"x": i}) for i in range(2))
        graph.add_edge(a, b, "E")
        graph.add_edge(b, b, "E")
        graph.freeze()
        kept = []
        groups = vectorized._Groups

        def spy(session, cols, counts, total):
            kept.append([c is not None for c in cols])
            return groups(session, cols, counts, total)

        with mock.patch.object(vectorized, "_Groups", spy):
            rows, report = run_vectorized(
                graph, "MATCH (s:L)-[r:E]->(t:L) RETURN t.x, count(*) AS c"
            )
        assert rows == [(1, 2)] and report.mode == "vectorized"
        # Of the slots of s, r and t, only the key's outlives its batch.
        assert [len(k) for k in kept] == [3] and sum(kept[0]) == 1

    def test_a_nan_key_is_a_group_per_row_even_on_one_vertex(self):
        # Rows of one vertex share a group code, but two reads of its
        # NaN are two fresh floats no dict key equals: the tuple path
        # never merges them.
        graph = PropertyGraph("nan")
        a, b = (graph.add_vertex("G", {"f": v}) for v in (float("nan"), 1.0))
        for src, dst in ((b, a), (b, a), (a, b), (b, b), (a, a)):
            graph.add_edge(src, dst, "E")
        graph.freeze()
        text = "MATCH (s:G)-[:E]->(t:G) RETURN t.f, s.f, count(*) AS c"
        assert_same_at_capacity(graph, parse_query(text), 96)
        rows, _ = run_vectorized(graph, text)
        assert [c for *_, c in rows] == [1, 1, 1, 1, 1]

    def test_int_folds_whose_sums_pass_int64(self):
        graph = column_graph([2**62, 2**62, None, 2**62, -1, 3] * 2)
        for vid in graph.vertex_ids():
            graph.set_property(vid, "k", vid % 2)
        rows = assert_matches_tuple(
            graph, "MATCH (n:L) RETURN n.k, sum(n.x) AS s, avg(n.x) AS a, "
            "min(n.x) AS lo, max(n.x) AS hi",
        )
        assert [s for _, s, *_ in rows] == [2**63 - 2, 2**64 + 6]

    def test_key_reads_are_charged_binding_by_binding(self):
        # Two keys read one vertex after the other, as the tuple path
        # reads them: on a one-page cache, rows of the same page hit.
        graph = column_graph(range(12))
        for vid in graph.vertex_ids():
            graph.set_property(vid, "y", vid % 3)
        query = parse_query("MATCH (n:L) RETURN n.x, n.y, count(*) AS c")
        with mock.patch.object(vectorized, "BATCH_ROWS", 5):
            for capacity in (1, 4):
                assert_same_at_capacity(graph, query, capacity)

    @seed(SEED)
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        values=st.lists(FOLD_VALUE, max_size=8),
        distinct=st.booleans(),
        flatten=st.booleans(),
    )
    def test_size_of_collect_is_count(self, values, distinct, flatten):
        """The identity the consumer folds ``size(collect(x))`` by."""
        collected = apply_aggregate("collect", values, distinct, flatten)
        assert apply_scalar("size", [collected]) == apply_aggregate(
            "count", values, distinct, flatten
        )


class TestObservability:
    def test_query_path_counter_increments(self):
        graph = column_graph([1, 2, 3])
        counter = observe.REGISTRY.labeled_counter(
            "repro_query_path_total", "path"
        )
        before_v = counter.value("vectorized")
        before_t = counter.value("tuple")
        run_vectorized(graph, "MATCH (n:L) RETURN n.x")
        run_vectorized(graph, "MATCH (n:L) RETURN n.x LIMIT 1")
        assert counter.value("vectorized") == before_v + 1
        assert counter.value("tuple") == before_t + 1

    def test_report_counts_batches(self):
        graph = column_graph(range(vectorized.BATCH_ROWS + 10))
        rows, report = run_vectorized(graph, "MATCH (n:L) RETURN n.x")
        assert len(rows) == vectorized.BATCH_ROWS + 10
        assert report.batches == 2


def test_scan_and_streaming_aggregate_span_batches(diff_graph, monkeypatch):
    """Shrink the batch so a plain scan and the streaming aggregates
    cross many batch boundaries; columns, rows and all six counters
    must still equal the tuple path."""
    monkeypatch.setattr(vectorized, "BATCH_ROWS", 16)
    for text in (
        "MATCH (p:Patient) WHERE p.age > 40 RETURN p.age, p.weight",
        "MATCH (p:Patient) WHERE p.age > 20 RETURN sum(p.age) AS s",
        "MATCH (v:Visit) RETURN min(v.cost) AS m",
    ):
        report = assert_equivalent(diff_graph, text)
        assert report.mode == "vectorized", (text, report.reason)
        assert report.batches > 1, text
