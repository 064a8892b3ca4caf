"""Tests for query planning and execution."""

import pytest

from repro.exceptions import QueryError
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor, VertexBinding
from repro.graphdb.query.planner import ScanStep, build_plan
from repro.graphdb.query.parser import parse_query
from repro.graphdb.session import GraphSession


@pytest.fixture()
def graph():
    g = PropertyGraph()
    drugs = [
        g.add_vertex("Drug", {"name": f"d{i}", "brand": f"b{i % 2}"})
        for i in range(4)
    ]
    inds = [
        g.add_vertex("Indication", {"desc": f"x{i % 3}", "sev": i})
        for i in range(8)
    ]
    for i, ind in enumerate(inds):
        g.add_edge(drugs[i % 4], ind, "treat")
    g.add_edge(drugs[0], drugs[1], "similarTo")
    return g


@pytest.fixture()
def ex(graph):
    return Executor(GraphSession(graph, NEO4J_LIKE))


class TestPlanner:
    def test_starts_at_smallest_label(self, graph):
        q = parse_query(
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d"
        )
        plan = build_plan(q, graph)
        assert isinstance(plan.steps[0], ScanStep)
        assert plan.steps[0].var == "d"  # 4 drugs < 8 indications

    def test_prefers_property_index(self, graph):
        graph.create_property_index("Indication", "desc")
        q = parse_query(
            "MATCH (d:Drug)-[:treat]->(i:Indication {desc: 'x0'}) "
            "RETURN d"
        )
        plan = build_plan(q, graph)
        assert plan.steps[0].var == "i"

    def test_shared_variable_merges_constraints(self, graph):
        q = parse_query(
            "MATCH (a:Drug)-[:treat]->(i), (a {name: 'd0'}) RETURN a"
        )
        plan = build_plan(q, graph)
        assert plan.node_specs["a"].props == {"name": "d0"}
        assert plan.node_specs["a"].labels == {"Drug"}

    def test_conflicting_filters_rejected(self, graph):
        q = parse_query(
            "MATCH (a {name: 'x'}), (a {name: 'y'}) RETURN a"
        )
        with pytest.raises(QueryError):
            build_plan(q, graph)

    def test_cycle_produces_join_check(self, graph):
        from repro.graphdb.query.planner import JoinCheckStep

        q = parse_query(
            "MATCH (a:Drug)-[:treat]->(i:Indication)<-[:treat]-(a) "
            "RETURN a"
        )
        plan = build_plan(q, graph)
        assert any(isinstance(s, JoinCheckStep) for s in plan.steps)


class TestBasicMatching:
    def test_label_scan(self, ex):
        result = ex.run("MATCH (d:Drug) RETURN d.name ORDER BY d.name")
        assert result.column("d.name") == ["d0", "d1", "d2", "d3"]

    def test_hop(self, ex):
        result = ex.run(
            "MATCH (d:Drug {name: 'd0'})-[:treat]->(i:Indication) "
            "RETURN i.sev ORDER BY i.sev"
        )
        assert result.column("i.sev") == [0, 4]

    def test_reverse_hop(self, ex):
        result = ex.run(
            "MATCH (i:Indication {sev: 3})<-[:treat]-(d:Drug) "
            "RETURN d.name"
        )
        assert result.rows == [("d3",)]

    def test_two_hops(self, ex):
        result = ex.run(
            "MATCH (a:Drug)-[:similarTo]->(b:Drug)-[:treat]->"
            "(i:Indication) RETURN a.name, count(i)"
        )
        assert result.rows == [("d0", 2)]

    def test_undirected_hop(self, ex):
        result = ex.run(
            "MATCH (a:Drug {name: 'd1'})-[:similarTo]-(b:Drug) "
            "RETURN b.name"
        )
        assert result.rows == [("d0",)]

    def test_no_match(self, ex):
        result = ex.run("MATCH (d:Drug {name: 'zzz'}) RETURN d")
        assert result.rows == []

    def test_vertex_binding_returned(self, ex):
        result = ex.run("MATCH (d:Drug {name: 'd0'}) RETURN d")
        assert result.rows == [(VertexBinding(0),)]

    def test_edge_property(self, graph):
        g = graph
        src = g.add_vertex("Drug", {"name": "dx"})
        dst = g.add_vertex("Indication", {"desc": "y"})
        g.add_edge(src, dst, "treat", {"since": 2020})
        ex = Executor(GraphSession(g, NEO4J_LIKE))
        result = ex.run(
            "MATCH (d:Drug {name: 'dx'})-[t:treat]->(i) RETURN t.since"
        )
        assert result.rows == [(2020,)]


class TestWhere:
    def test_comparison(self, ex):
        result = ex.run(
            "MATCH (i:Indication) WHERE i.sev > 5 RETURN count(*)"
        )
        assert result.single_value() == 2

    def test_and_or(self, ex):
        result = ex.run(
            "MATCH (i:Indication) WHERE i.sev < 2 OR i.sev >= 6 "
            "RETURN count(*)"
        )
        assert result.single_value() == 4

    def test_contains(self, ex):
        result = ex.run(
            "MATCH (d:Drug) WHERE d.name CONTAINS '0' RETURN count(*)"
        )
        assert result.single_value() == 1

    def test_in(self, ex):
        result = ex.run(
            "MATCH (d:Drug) WHERE d.name IN ['d0', 'd2'] RETURN count(*)"
        )
        assert result.single_value() == 2

    def test_null_comparison_is_false(self, ex):
        result = ex.run(
            "MATCH (d:Drug) WHERE d.missing = 1 RETURN count(*)"
        )
        assert result.single_value() == 0

    def test_is_null_checks(self, ex):
        result = ex.run(
            "MATCH (d:Drug) WHERE d.missing IS NULL RETURN count(*)"
        )
        assert result.single_value() == 4
        result = ex.run(
            "MATCH (d:Drug) WHERE d.name IS NOT NULL RETURN count(*)"
        )
        assert result.single_value() == 4


class TestAggregation:
    def test_global_count(self, ex):
        result = ex.run("MATCH (i:Indication) RETURN count(i)")
        assert result.single_value() == 8

    def test_grouped_count(self, ex):
        result = ex.run(
            "MATCH (d:Drug)-[:treat]->(i) "
            "RETURN d.brand, count(i) AS n ORDER BY d.brand"
        )
        assert result.rows == [("b0", 4), ("b1", 4)]

    def test_collect(self, ex):
        result = ex.run(
            "MATCH (d:Drug {name: 'd1'})-[:treat]->(i) "
            "RETURN collect(i.sev)"
        )
        assert sorted(result.single_value()) == [1, 5]

    def test_collect_distinct(self, ex):
        result = ex.run(
            "MATCH (i:Indication) RETURN collect(DISTINCT i.desc)"
        )
        assert sorted(result.single_value()) == ["x0", "x1", "x2"]

    def test_sum_avg_min_max(self, ex):
        result = ex.run(
            "MATCH (i:Indication) "
            "RETURN sum(i.sev), avg(i.sev), min(i.sev), max(i.sev)"
        )
        assert result.rows == [(28, 3.5, 0, 7)]

    def test_size_of_collect(self, ex):
        result = ex.run(
            "MATCH (d:Drug)-[:treat]->(i) RETURN size(collect(i.sev))"
        )
        assert result.single_value() == 8

    def test_count_star_zero_matches(self, ex):
        result = ex.run(
            "MATCH (d:Drug {name: 'none'}) RETURN count(*)"
        )
        assert result.single_value() == 0

    def test_aggregates_skip_nulls(self, ex):
        result = ex.run("MATCH (d:Drug) RETURN count(d.missing)")
        assert result.single_value() == 0


class TestProjectionModifiers:
    def test_distinct_rows(self, ex):
        result = ex.run("MATCH (d:Drug) RETURN DISTINCT d.brand")
        assert sorted(result.rows) == [("b0",), ("b1",)]

    def test_order_by_desc(self, ex):
        result = ex.run(
            "MATCH (i:Indication) RETURN i.sev ORDER BY i.sev DESC LIMIT 3"
        )
        assert result.column("i.sev") == [7, 6, 5]

    def test_order_by_alias(self, ex):
        result = ex.run(
            "MATCH (i:Indication) RETURN i.sev AS s ORDER BY s LIMIT 2"
        )
        assert result.column("s") == [0, 1]

    def test_order_by_unreturned_rejected(self, ex):
        with pytest.raises(QueryError):
            ex.run("MATCH (i:Indication) RETURN i.sev ORDER BY i.desc")

    def test_limit(self, ex):
        result = ex.run("MATCH (i:Indication) RETURN i LIMIT 3")
        assert len(result.rows) == 3

    def test_scalar_size_of_list_property(self, graph):
        vid = graph.add_vertex("Drug", {"name": "dl", "vals": [1, 2, 3]})
        ex = Executor(GraphSession(graph, NEO4J_LIKE))
        result = ex.run(
            "MATCH (d:Drug {name: 'dl'}) RETURN size(d.vals)"
        )
        assert result.single_value() == 3

    def test_head_and_coalesce(self, graph):
        graph.add_vertex("Drug", {"name": "dh", "vals": [9, 8]})
        ex = Executor(GraphSession(graph, NEO4J_LIKE))
        result = ex.run(
            "MATCH (d:Drug {name: 'dh'}) "
            "RETURN head(d.vals), coalesce(d.missing, d.name)"
        )
        assert result.rows == [(9, "dh")]


class TestMetricsAndErrors:
    def test_metrics_populated(self, ex):
        result = ex.run("MATCH (d:Drug)-[:treat]->(i) RETURN count(*)")
        assert result.metrics.edge_traversals > 0
        assert result.metrics.queries == 1
        assert result.latency_ms > 0

    def test_unbound_variable(self, ex):
        with pytest.raises(QueryError):
            ex.run("MATCH (d:Drug) RETURN q.name")

    def test_single_value_requires_one(self, ex):
        result = ex.run("MATCH (d:Drug) RETURN d.name")
        with pytest.raises(QueryError):
            result.single_value()

    def test_unknown_column(self, ex):
        result = ex.run("MATCH (d:Drug) RETURN d.name")
        with pytest.raises(QueryError):
            result.column("nope")

    def test_aggregate_in_where_rejected(self, ex):
        with pytest.raises(QueryError):
            ex.run("MATCH (d:Drug) WHERE count(d) > 1 RETURN d")


class TestResultListsAreFresh:
    """A list in a query result is the caller's: changing it changes
    nothing stored.  A write through it would skip the undo log, the
    WAL and the indexes."""

    QUERIES = (
        ("MATCH (a:A) RETURN a.xs", lambda value: value),
        ("MATCH (a:A) RETURN coalesce(a.xs, 0)", lambda value: value),
        ("MATCH (a:A) RETURN collect(a.xs) AS c", lambda value: value[0]),
        (
            "MATCH (a:A) RETURN a.xs ORDER BY a.xs LIMIT 1",
            lambda value: value,
        ),
    )

    @staticmethod
    def list_graph(frozen):
        g = PropertyGraph()
        vid = g.add_vertex("A", {"xs": [1, 2]})
        if frozen:
            g.freeze()
        return g, vid

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("vectorize", [True, False])
    @pytest.mark.parametrize("text,stored", QUERIES)
    def test_executor_rows(self, vectorize, frozen, text, stored):
        g, vid = self.list_graph(frozen)
        result = Executor(GraphSession(g), vectorize=vectorize).run(text)
        stored(result.rows[0][0]).append(9)
        assert g.get_property(vid, "xs") == [1, 2]

    def test_streamed_chunks(self):
        from repro.graphdb.query.vectorized import ExecutionReport

        g, vid = self.list_graph(frozen=True)
        report = ExecutionReport()
        _, _, _, chunks = Executor(GraphSession(g)).stream(
            "MATCH (a:A) RETURN a.xs", report=report, chunks=True
        )
        for _, cols in chunks:
            cols[0][0].append(9)
        assert report.chunked
        assert g.get_property(vid, "xs") == [1, 2]

    def test_driver(self):
        from repro.graphdb import connect

        g, vid = self.list_graph(frozen=False)
        with connect(g).session() as session:
            session.run("MATCH (a:A) RETURN a.xs AS xs").single()[
                "xs"
            ].append(9)
            for _, cols in session.run(
                "MATCH (a:A) RETURN a.xs AS xs"
            ).batches():
                cols[0][0].append(9)
        assert g.get_property(vid, "xs") == [1, 2]
