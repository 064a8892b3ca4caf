"""Cost-based planning: access-path pricing, ordering, cache, ANALYZE.

Planner *semantics* (what rows come back) are already pinned by the
executor and streaming suites; these tests pin the cost-specific
behaviours: histogram-priced access paths (a poorly selective index
must lose), estimated rows on plan steps, EXPLAIN ANALYZE rendering,
plan-cache reuse keyed on the stats epoch, and full result parity
between the cost-based and syntactic orderings on the med/fin
workload suites.
"""

import pytest

from repro.bench.harness import build_pipeline
from repro.datasets import build_fin, build_med
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.planner import ScanStep, build_plan
from repro.graphdb.query.parser import parse_query
from repro.graphdb.session import GraphSession


@pytest.fixture(scope="module")
def med():
    return build_pipeline(build_med(), scale=0.25)


@pytest.fixture(scope="module")
def fin():
    return build_pipeline(build_fin(), scale=0.25)


def _multiset(rows):
    return sorted(
        (
            tuple(
                tuple(sorted(map(repr, v))) if isinstance(v, list) else v
                for v in row
            )
            for row in rows
        ),
        key=repr,
    )


@pytest.fixture()
def skewed():
    """60 P-vertices with a 2-value indexed prop, 3 unique Q-vertices."""
    g = PropertyGraph()
    targets = [
        g.add_vertex("Q", {"name": f"q{i}"}) for i in range(3)
    ]
    for i in range(60):
        vid = g.add_vertex("P", {"flag": "hot" if i % 2 else "cold"})
        g.add_edge(vid, targets[i % 3], "hits")
    g.create_property_index("P", "flag")
    return g


class TestAccessPathPricing:
    def test_selective_index_is_used(self, skewed):
        plan = build_plan(
            parse_query("MATCH (p:P {flag: 'hot'}) RETURN p"), skewed
        )
        assert plan.steps[0].access == "index"

    def test_poorly_selective_index_loses_to_unique_scan(self, skewed):
        # Syntactic ordering starts at the index by fiat; the cost
        # model prices its 30-row bucket against the 1-row name check
        # behind the 3-vertex :Q label scan and starts there instead.
        q = parse_query(
            "MATCH (p:P {flag: 'hot'})-[:hits]->(t:Q {name: 'q0'}) "
            "RETURN p"
        )
        cost = build_plan(q, skewed)
        assert cost.steps[0].var == "t"
        assert cost.steps[0].access == "label"
        syntactic = build_plan(
            parse_query(
                "MATCH (p:P {flag: 'hot'})-[:hits]->(t:Q {name: 'q0'}) "
                "RETURN p"
            ),
            skewed,
            cost_based=False,
        )
        assert syntactic.steps[0].var == "p"
        assert syntactic.steps[0].access == "index"

    def test_est_rows_attached_to_cost_plans_only(self, skewed):
        q = "MATCH (p:P)-[:hits]->(t:Q) RETURN p"
        cost = build_plan(parse_query(q), skewed)
        assert all(s.est_rows is not None for s in cost.steps)
        assert cost.ordering == "cost"
        syntactic = build_plan(
            parse_query(q), skewed, cost_based=False
        )
        assert all(s.est_rows is None for s in syntactic.steps)
        assert syntactic.ordering == "syntactic"

    def test_huge_variable_length_range_does_not_overflow(self, skewed):
        # per_hop ** depth must be capped in log space: fan-out > 1
        # raised OverflowError for large hop ranges before planning
        # even started.
        import math

        plan = build_plan(
            parse_query(
                "MATCH (p:P)-[:hits*500..600]->(t:Q) RETURN count(*)"
            ),
            skewed,
        )
        assert all(
            s.est_rows is None or math.isfinite(s.est_rows)
            for s in plan.steps
        )

    def test_scan_estimate_uses_histogram(self, skewed):
        plan = build_plan(
            parse_query("MATCH (p:P {flag: 'cold'}) RETURN p"), skewed
        )
        step = plan.steps[0]
        assert isinstance(step, ScanStep)
        assert step.est_rows == pytest.approx(30.0)


class TestExplainAnalyze:
    def test_estimates_and_actuals_rendered(self, med):
        executor = Executor(GraphSession(med.dir_graph, NEO4J_LIKE))
        text = executor.explain(
            "MATCH (d:Drug)-[:treat]->(i:Indication) RETURN d.name",
            analyze=True,
        )
        assert "est~" in text
        assert "actual=" in text

    def test_actuals_match_pipeline_rows(self, skewed):
        executor = Executor(GraphSession(skewed, NEO4J_LIKE))
        result = executor.run("MATCH (p:P {flag: 'hot'}) RETURN p")
        text = executor.explain(
            "MATCH (p:P {flag: 'hot'}) RETURN p", analyze=True
        )
        assert f"actual={len(result.rows)}" in text

    def test_limit_short_circuit_visible(self, skewed):
        executor = Executor(GraphSession(skewed, NEO4J_LIKE))
        text = executor.explain(
            "MATCH (p:P) RETURN p LIMIT 2", analyze=True
        )
        assert "actual=2" in text

    def test_plain_explain_has_no_actuals(self, skewed):
        executor = Executor(GraphSession(skewed, NEO4J_LIKE))
        text = executor.explain("MATCH (p:P) RETURN p")
        assert "actual=" not in text
        assert "est~" in text


class TestPlanCache:
    QUERY = "MATCH (p:P)-[:hits]->(t:Q) RETURN t.name"

    def test_repeated_text_hits_cache(self, skewed):
        executor = Executor(GraphSession(skewed, NEO4J_LIKE))
        cache = skewed.statistics().plan_cache
        baseline_misses = cache.misses
        first = executor.run(self.QUERY)
        second = executor.run(self.QUERY)
        assert cache.misses == baseline_misses + 1
        assert cache.hits >= 1
        assert _multiset(first.rows) == _multiset(second.rows)

    def test_cache_shared_across_sessions(self, skewed):
        Executor(GraphSession(skewed, NEO4J_LIKE)).run(self.QUERY)
        cache = skewed.statistics().plan_cache
        hits = cache.hits
        Executor(GraphSession(skewed, NEO4J_LIKE)).run(self.QUERY)
        assert cache.hits == hits + 1

    def test_index_creation_invalidates(self):
        g = PropertyGraph()
        for i in range(8):
            g.add_vertex("P", {"x": i % 2})
        executor = Executor(GraphSession(g, NEO4J_LIKE))
        query = "MATCH (p:P {x: 1}) RETURN p"
        before = executor._prepare(query).plan
        assert before.steps[0].access == "label"
        g.create_property_index("P", "x")  # bumps the stats epoch
        after = executor._prepare(query).plan
        assert after.steps[0].access == "index"

    def test_ast_queries_cached_too(self, skewed):
        # Frozen-dataclass ASTs are hashable, so the rewriter's
        # pre-parsed queries cache like text; structurally equal ASTs
        # share one entry.
        executor = Executor(GraphSession(skewed, NEO4J_LIKE))
        cache = skewed.statistics().plan_cache
        executor.run(parse_query(self.QUERY))
        hits = cache.hits
        executor.run(parse_query(self.QUERY))
        assert cache.hits == hits + 1

    def test_unhashable_literal_ast_planned_fresh(self, skewed):
        executor = Executor(GraphSession(skewed, NEO4J_LIKE))
        cache = skewed.statistics().plan_cache
        size = len(cache)
        query = parse_query(
            "MATCH (p:P) WHERE p.flag IN ['hot', 'cold'] "
            "RETURN count(*)"
        )
        result = executor.run(query)
        assert result.single_value() == 60
        assert len(cache) == size  # list literal: not cacheable


class TestWorkloadParity:
    """Cost-based and syntactic plans must agree on every result, and
    the cost-based plan must never be the dearer one."""

    def _check(self, graph, queries):
        """``{qid: (cost ms, syntactic ms)}``, in simulated time: work
        counters weighted by the backend profile, the same on any
        host."""
        latencies = {}
        for qid, query in queries.items():
            cost = Executor(GraphSession(graph, NEO4J_LIKE)).run(query)
            syntactic = Executor(
                GraphSession(graph, NEO4J_LIKE), cost_based=False
            ).run(query)
            assert _multiset(cost.rows) == _multiset(syntactic.rows), qid
            assert cost.latency_ms <= syntactic.latency_ms, qid
            latencies[qid] = (cost.latency_ms, syntactic.latency_ms)
        return latencies

    def test_med_dir(self, med):
        self._check(med.dir_graph, med.dataset.queries)

    def test_med_opt(self, med):
        self._check(med.opt_graph, med.rewritten)

    def test_fin_dir(self, fin):
        self._check(fin.dir_graph, fin.dataset.queries)

    def test_fin_opt(self, fin):
        self._check(fin.opt_graph, fin.rewritten)

    def test_selective_variants(self):
        """Paper queries with an equality attached, as a parameterized
        application sends them - the paper's own carry no WHERE, so
        their plans differ in join order alone.  At scale 0.5 (at 0.25
        the gender bucket is small enough that both planners start
        there) syntactic ordering takes the index on the two-valued
        ``Patient.gender`` by fiat; the cost model prices that bucket
        against the one-row ``Drug.name`` check and starts at the
        drug."""
        graph = build_pipeline(build_med(), scale=0.5).dir_graph

        def commonest(label, prop):
            return Executor(GraphSession(graph, NEO4J_LIKE)).run(
                f"MATCH (x:{label}) RETURN x.{prop}, count(*) AS n "
                "ORDER BY n DESC LIMIT 1"
            ).rows[0][0]

        desc = commonest("Indication", "desc")
        gender = commonest("Patient", "gender")
        name = Executor(GraphSession(graph, NEO4J_LIKE)).run(
            "MATCH (d:Drug) RETURN d.name LIMIT 1"
        ).single_value()
        graph.create_property_index("Patient", "gender")
        latencies = self._check(graph, {
            "Q6sel":
                "MATCH (d:Drug)-[:treat]->(i:Indication) "
                f"WHERE i.desc = {desc!r} RETURN d.name",
            "Q9sel":
                f"MATCH (p:Patient {{gender: {gender!r}}})-[:takes]->"
                f"(d:Drug {{name: {name!r}}}) RETURN p.patientId",
            # The same misfire through WHERE folding.
            "Q10sel":
                "MATCH (p:Patient)-[:takes]->(d:Drug) "
                f"WHERE p.gender = {gender!r} AND d.name = {name!r} "
                "RETURN p.patientId, d.name",
        })
        # The histogram confirms the syntactic choice (scan
        # :Indication checking desc): one plan, one price.
        cost, syntactic = latencies["Q6sel"]
        assert cost == syntactic
        for qid in ("Q9sel", "Q10sel"):
            cost, syntactic = latencies[qid]
            assert cost < syntactic, qid

    def test_cycles_and_cartesian_products(self, skewed):
        for query in (
            "MATCH (a:P)-[:hits]->(t:Q)<-[:hits]-(b:P) "
            "RETURN count(*)",
            "MATCH (a:Q), (b:Q) RETURN count(*)",
            "MATCH (a:P {flag: 'hot'})-[r:hits]->(t:Q), (b:Q) "
            "RETURN count(*)",
        ):
            cost = Executor(GraphSession(skewed, NEO4J_LIKE)).run(query)
            syntactic = Executor(
                GraphSession(skewed, NEO4J_LIKE), cost_based=False
            ).run(query)
            assert cost.single_value() == syntactic.single_value()
