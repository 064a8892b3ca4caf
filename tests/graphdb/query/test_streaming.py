"""Streaming-pipeline semantics: short-circuit, top-k, pushdown.

These tests pin down the behaviours the generator rewrite introduced:
``LIMIT`` must stop pulling work out of the match pipeline (observable
through the session's work counters), ``ORDER BY + LIMIT`` must agree
with a full sort, pushed-down WHERE conjuncts must agree with
post-filtering, and the join-check probe must agree with the old
adjacency scan.
"""

import pytest

from repro.bench.harness import build_pipeline
from repro.datasets import build_fin, build_med
from repro.exceptions import ResourceLimitError
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import ExecutionGuard, Executor
from repro.graphdb.query.parser import parse_query
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from repro.workload.runner import run_single


@pytest.fixture(scope="module")
def med_graph():
    pipeline = build_pipeline(build_med(), scale=0.25)
    return pipeline.dir_graph


@pytest.fixture(scope="module")
def fin_graph():
    pipeline = build_pipeline(build_fin(), scale=0.25)
    return pipeline.dir_graph


def run(graph, text):
    return Executor(GraphSession(graph, NEO4J_LIKE)).run(text)


def _multiset(rows):
    return sorted(
        tuple(
            tuple(sorted(map(repr, v))) if isinstance(v, list) else v
            for v in row
        )
        for row in rows
    )


class TestLimitShortCircuit:
    QUERY = "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc"

    def test_strictly_less_work(self, med_graph):
        full = run(med_graph, self.QUERY).metrics
        limited = run(med_graph, self.QUERY + " LIMIT 2").metrics
        assert limited.edge_traversals < full.edge_traversals
        assert limited.vertex_reads < full.vertex_reads

    def test_limited_rows_are_a_prefix_of_full(self, med_graph):
        full = run(med_graph, self.QUERY).rows
        limited = run(med_graph, self.QUERY + " LIMIT 5").rows
        assert limited == full[:5]

    def test_limit_zero(self, med_graph):
        result = run(med_graph, self.QUERY + " LIMIT 0")
        assert result.rows == []

    def test_limit_larger_than_result(self, med_graph):
        full = run(med_graph, self.QUERY).rows
        limited = run(med_graph, self.QUERY + " LIMIT 100000").rows
        assert limited == full

    def test_aggregation_still_consumes_everything(self, med_graph):
        # LIMIT applies to grouped rows, so the match work is identical.
        agg = (
            "MATCH (p:Patient)-[:takes]->(d:Drug) "
            "RETURN p.patientId, count(d.name) AS n"
        )
        full = run(med_graph, agg).metrics
        limited = run(med_graph, agg + " LIMIT 1").metrics
        assert limited.edge_traversals == full.edge_traversals


class TestTopK:
    @pytest.mark.parametrize("order", [
        "i.desc", "i.desc DESC", "d.name, i.desc DESC",
    ])
    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_matches_full_sort_prefix(self, med_graph, order, k):
        base = (
            "MATCH (d:Drug)-[:treat]->(i:Indication) "
            f"RETURN d.name, i.desc ORDER BY {order}"
        )
        full = run(med_graph, base).rows
        topk = run(med_graph, f"{base} LIMIT {k}").rows
        assert topk == full[:k]

    def test_with_aggregation(self, med_graph):
        base = (
            "MATCH (p:Patient)-[:takes]->(d:Drug) "
            "RETURN p.patientId, count(d.name) AS n ORDER BY n DESC"
        )
        full = run(med_graph, base).rows
        topk = run(med_graph, base + " LIMIT 4").rows
        assert topk == full[:4]


#: WHERE-augmented variants of workload queries: (dataset, MATCH/RETURN
#: without WHERE, WHERE clause, python post-filter over the unfiltered
#: columns).
PUSHDOWN_CASES = [
    (
        "med",
        "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name, i.desc",
        "d.name CONTAINS '1'",
        lambda row: isinstance(row[0], str) and "1" in row[0],
    ),
    (
        "med",
        "MATCH (p:Patient)-[:takes]->(d:Drug) "
        "RETURN p.patientId, d.name",
        "p.patientId IS NOT NULL AND d.name IS NOT NULL",
        lambda row: row[0] is not None and row[1] is not None,
    ),
    (
        "fin",
        "MATCH (c:Corporation)-[:issues]->(s:Security) "
        "RETURN c.hasLegalName, s.cusip",
        "c.hasLegalName < 'M'",
        lambda row: row[0] is not None and row[0] < "M",
    ),
    (
        "fin",
        "MATCH (o:Officer)-[:isA]->(p:Person) RETURN o.title, p.hasName",
        "o.title IS NOT NULL OR p.hasName IS NOT NULL",
        lambda row: row[0] is not None or row[1] is not None,
    ),
]


class TestWherePushdown:
    @pytest.mark.parametrize(
        "dataset,base,where,post", PUSHDOWN_CASES,
        ids=[c[1][:40] for c in PUSHDOWN_CASES],
    )
    def test_parity_with_post_filter(
        self, med_graph, fin_graph, dataset, base, where, post
    ):
        graph = med_graph if dataset == "med" else fin_graph
        unfiltered = run(graph, base).rows
        expected = [row for row in unfiltered if post(row)]
        match, returns = base.split(" RETURN ")
        filtered = run(
            graph, f"{match} WHERE {where} RETURN {returns}"
        ).rows
        assert _multiset(filtered) == _multiset(expected)

    def test_equality_conjunct_folds_into_scan(self, med_graph):
        # The folded conjunct must show up as a scan-level constraint,
        # not a post-filter, and still return the right rows.
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        name = run(med_graph, "MATCH (d:Drug) RETURN d.name LIMIT 1")
        target = name.rows[0][0]
        text = f"MATCH (d:Drug) WHERE d.name = '{target}' RETURN d.name"
        plan_text = executor.explain(text)
        assert "filter[" not in plan_text  # folded, not residual
        assert executor.run(text).rows == [(target,)]

    def test_list_literal_equality_not_folded_into_index(self):
        # An unhashable literal must never reach a property-index
        # lookup (index buckets are keyed by value); the conjunct stays
        # a runtime filter and simply matches nothing against scalars.
        g = PropertyGraph()
        g.add_vertex("P", {"x": 1})
        g.add_vertex("P", {"x": 2})
        g.create_property_index("P", "x")
        result = run(g, "MATCH (n:P) WHERE n.x = [1, 2] RETURN count(*)")
        assert result.single_value() == 0
        # Hashable literals still fold and hit the index.
        folded = run(g, "MATCH (n:P) WHERE n.x = 2 RETURN count(*)")
        assert folded.single_value() == 1
        assert folded.metrics.index_lookups == 1

    def test_conflicting_equalities_yield_empty(self, med_graph):
        rows = run(
            med_graph,
            "MATCH (d:Drug) WHERE d.name = 'a' AND d.name = 'b' "
            "RETURN d.name",
        ).rows
        assert rows == []

    def test_pushdown_reduces_property_reads(self, med_graph):
        # The pushed conjunct dies at the scan, so downstream expansion
        # work drops compared to filtering after the full match.
        base = (
            "MATCH (d:Drug)-[:treat]->(i:Indication) "
            "WHERE d.name CONTAINS 'zzz-no-such' RETURN i.desc"
        )
        metrics = run(med_graph, base).metrics
        unfiltered = run(
            med_graph,
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN i.desc",
        ).metrics
        assert metrics.edge_traversals < unfiltered.edge_traversals


class TestJoinCheckParity:
    @pytest.fixture()
    def triangle(self):
        g = PropertyGraph()
        a = g.add_vertex("N", {"i": 0})
        b = g.add_vertex("N", {"i": 1})
        c = g.add_vertex("N", {"i": 2})
        g.add_edge(a, b, "e")
        g.add_edge(b, c, "e")
        g.add_edge(c, a, "e")
        g.add_edge(a, c, "f")
        return g

    def test_cycle_closes_via_pair_probe(self, triangle):
        result = run(
            triangle,
            "MATCH (a:N)-[:e]->(b:N)-[:e]->(c:N)-[:e]->(a) "
            "RETURN a.i, b.i, c.i",
        )
        assert _multiset(result.rows) == _multiset(
            [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        )

    def test_join_check_binds_rel_var(self, triangle):
        result = run(
            triangle,
            "MATCH (a:N {i: 0})-[:e]->(b:N)-[:e]->(c:N), (a)-[r:f]->(c) "
            "RETURN r.missing IS NULL",
        )
        assert result.rows == [(True,)]

    def test_direction_respected(self, triangle):
        # a-f->c exists, c-f->a does not.
        yes = run(
            triangle,
            "MATCH (a:N {i: 0}), (c:N {i: 2}), (a)-[:f]->(c) "
            "RETURN count(*)",
        )
        no = run(
            triangle,
            "MATCH (a:N {i: 0}), (c:N {i: 2}), (a)<-[:f]-(c) "
            "RETURN count(*)",
        )
        any_dir = run(
            triangle,
            "MATCH (a:N {i: 0}), (c:N {i: 2}), (a)-[:f]-(c) "
            "RETURN count(*)",
        )
        assert yes.single_value() == 1
        assert no.single_value() == 0
        assert any_dir.single_value() == 1

    def test_variable_length_join_check(self, triangle):
        # The same cycle constraint written join-check-first and
        # expand-first must agree (the former runs a path search inside
        # the join check, the latter a plain variable-length expand).
        join_first = run(
            triangle,
            "MATCH (a:N {i: 0})-[:f]->(c:N), (a)-[:e*2..2]->(c) "
            "RETURN count(*)",
        )
        expand_first = run(
            triangle,
            "MATCH (a:N {i: 0})-[:e*2..2]->(x:N {i: 2}), (a)-[:f]->(x) "
            "RETURN count(*)",
        )
        assert join_first.single_value() == 1
        assert join_first.single_value() == expand_first.single_value()


class TestExplain:
    def test_scan_expand_rendering(self, med_graph):
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        text = executor.explain(
            "MATCH (d:Drug)-[:treat]->(i:Indication) "
            "WHERE i.desc IS NOT NULL RETURN d.name"
        )
        assert "Scan d via label scan (:Drug)" in text
        assert "Expand (d)-[:treat]->(i)" in text
        assert "filter[i.desc IS NOT NULL]" in text

    def test_join_check_rendering(self, med_graph):
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        text = executor.explain(
            "MATCH (a:Drug)-[:treat]->(i:Indication)<-[:treat]-(a) "
            "RETURN a.name"
        )
        assert "JoinCheck" in text
        assert "edge probe" in text

    def test_accepts_parsed_query(self, med_graph):
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        query = parse_query("MATCH (d:Drug) RETURN d")
        assert "Scan d" in executor.explain(query)


class TestRunnerRowCollection:
    def test_rows_kept_on_demand(self, med_graph):
        q = "MATCH (d:Drug) RETURN d.name"
        without = run_single(med_graph, NEO4J_LIKE, q)
        assert without.result_rows is None
        with_rows = run_single(
            med_graph, NEO4J_LIKE, q, collect_rows=True
        )
        assert with_rows.result_rows is not None
        assert len(with_rows.result_rows) == with_rows.rows



class TestChunkHandOver:
    """``stream(chunks=True)``: the batch path hands its column lists
    over as they are - a projection per batch, an aggregation as one
    chunk; row-level clauses and the tuple path stay rows."""

    @pytest.mark.parametrize("tail, chunked", [
        ("", True),
        (" ORDER BY d.name", False),  # row-level clauses work on rows
        (" LIMIT 5", False),  # and so does the tuple path
    ])
    def test_report_says_what_the_stream_yields(
        self, med_graph, tail, chunked
    ):
        query = "MATCH (d:Drug) RETURN d.name, d.drugId" + tail
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        rows = list(executor.stream(query)[3])
        report = ExecutionReport()
        out = list(executor.stream(query, report=report, chunks=True)[3])
        assert report.chunked is chunked
        if chunked:
            assert [len(columns) for _, columns in out] == [2]
            out = [row for _, columns in out for row in zip(*columns)]
        assert out == rows

    @pytest.mark.parametrize("returns", [
        "d.name, count(*) AS c", "size(collect(d.name)) AS n",
    ])
    def test_an_aggregation_is_one_chunk(self, med_graph, returns):
        query = f"MATCH (d:Drug) RETURN {returns}"
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        rows = list(executor.stream(query)[3])
        report = ExecutionReport()
        out = list(executor.stream(query, report=report, chunks=True)[3])
        assert report.chunked
        assert [n for n, _ in out] == [len(rows)]
        assert list(zip(*out[0][1])) == rows

    def test_a_guard_keeps_the_stream_row_level(self, med_graph):
        query = "MATCH (d:Drug) RETURN d.name"
        executor = Executor(GraphSession(med_graph, NEO4J_LIKE))
        report = ExecutionReport()
        rows = executor.stream(
            query, report=report, chunks=True,
            guard=ExecutionGuard(max_rows=2),
        )[3]
        assert report.mode == "vectorized" and not report.chunked
        assert len(next(rows)) == len(next(rows)) == 1
        with pytest.raises(ResourceLimitError):
            next(rows)
