"""GraphStatistics: batch build, rebuild when stale, estimation.

Statistics are derived state: ``PropertyGraph.statistics()`` is the
cached build until enough element mutations have made it stale, and
then a build of the current graph again - never a copy kept current
by hand.  An equality estimate reads the graph as it stood at the
first ask of its (label, property) after the build, so it equals
``stats_oracle.py``'s histograms of that graph.  The estimation API is
pinned down against hand-computable fixtures.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import GraphStatistics, PlanCache
from repro.graphdb.view import _Column
from tests.graphdb.randgraph import SCRIPTS, run_script
from tests.graphdb.stats_oracle import assert_estimates_match


def snapshot_of(stats: GraphStatistics) -> dict:
    """Comparable dump of every counter a build keeps."""
    return {
        "num_vertices": stats.num_vertices,
        "num_edges": stats.num_edges,
        "labels": dict(stats.label_counts),
        "edge_labels": dict(stats.edge_label_counts),
        "src": dict(stats._src),
        "dst": dict(stats._dst),
        "src_total": dict(stats._src_total),
        "dst_total": dict(stats._dst_total),
        "pairs": dict(stats._label_pairs),
        "triples": dict(stats._triples),
    }


@pytest.fixture()
def graph():
    g = PropertyGraph()
    drugs = [
        g.add_vertex("Drug", {"name": f"d{i}", "brand": f"b{i % 2}"})
        for i in range(4)
    ]
    inds = [
        g.add_vertex("Indication", {"desc": f"x{i % 3}"}) for i in range(8)
    ]
    for i, ind in enumerate(inds):
        g.add_edge(drugs[i % 4], ind, "treat")
    g.add_vertex(["Drug", "Compound"], {"name": "dual"})
    return g


class TestBatchBuild:
    def test_cardinalities(self, graph):
        stats = graph.statistics()
        assert stats.num_vertices == 13
        assert stats.num_edges == 8
        assert stats.label_count("Drug") == 5
        assert stats.label_count("Indication") == 8
        assert stats.label_count("Nope") == 0
        assert stats.edge_label_counts == {"treat": 8}

    def test_degree_pairs(self, graph):
        stats = graph.statistics()
        assert stats._src[("treat", "Drug")] == 8
        assert stats._dst[("treat", "Indication")] == 8
        assert stats.fanout({"Drug"}, ("treat",), "out") == pytest.approx(
            8 / 5
        )
        assert stats.fanout(
            {"Indication"}, ("treat",), "in"
        ) == pytest.approx(1.0)
        # Untyped expansion falls back to the per-label totals.
        assert stats.fanout({"Drug"}, (), "out") == pytest.approx(8 / 5)

    def test_label_pairs(self, graph):
        stats = graph.statistics()
        assert stats._label_pairs == {("Compound", "Drug"): 1}
        assert stats.label_overlap("Compound", "Drug") == 1.0
        assert stats.label_overlap("Drug", "Compound") == pytest.approx(
            1 / 5
        )

    def test_histograms(self, graph):
        stats = graph.statistics()
        assert stats.eq_estimate("Drug", "brand", "b0") == 2.0
        assert stats.eq_estimate("Drug", "name", "d1") == 1.0
        assert stats.eq_estimate("Drug", "name", "zzz") == 0.0
        assert stats.eq_estimate("Drug", "nope", 1) == 0.0
        # Eight values, three distinct.
        assert stats.avg_eq_estimate("Indication", "desc") == 8 / 3

    def test_conditional_endpoint_fraction(self, graph):
        stats = graph.statistics()
        assert stats.cond_endpoint_fraction(
            ("treat",), "Drug", "Indication", "out"
        ) == 1.0
        assert stats.cond_endpoint_fraction(
            ("treat",), "Indication", "Drug", "in"
        ) == 1.0
        # No treat edges leave an Indication: the conditioning side is
        # empty, and the unconditional dst-fraction fallback (treat
        # edges ending at a Drug) is also zero.
        assert stats.cond_endpoint_fraction(
            ("treat",), "Indication", "Drug", "out"
        ) == 0.0

    def test_statistics_is_idempotent(self, graph):
        assert graph.statistics() is graph.statistics()


class TestDerived:
    """``statistics()`` returns the cached build until the element
    mutations since it reach ``max(64, size >> 4)``, then rebuilds."""

    def test_a_bulk_call_counts_each_element(self):
        graph = PropertyGraph()
        stats = graph.statistics()
        graph.add_vertices("A", 63)
        assert graph.statistics() is stats  # 63 of 64
        graph.add_vertex("A")
        stats = graph.statistics()
        assert stats.label_count("A") == 64
        # Past 1024 elements the trigger is a sixteenth of the graph.
        graph.add_vertices("B", 2048)
        stats = graph.statistics()
        graph.set_properties("p", dict.fromkeys(range(130), 1))
        assert graph.statistics() is stats  # 130 of 2112 >> 4 = 132
        graph.set_property(0, "p", 2)
        graph.remove_vertex(1)
        rebuilt = graph.statistics()
        assert rebuilt is not stats
        fresh = GraphStatistics.build(graph)
        assert snapshot_of(rebuilt) == snapshot_of(fresh)
        assert_estimates_match(rebuilt, graph)  # the graph as it stands

    def test_no_cached_plan_survives_an_index_or_its_rollback(self):
        graph = PropertyGraph()
        for i in range(20):
            graph.add_vertex("A", {"p": i % 4})
        executor = Executor(GraphSession(graph))
        query = "MATCH (a:A {p: 1}) RETURN a.p"
        assert executor.run(query).rows == [(1,)] * 5
        assert len(graph.statistics().plan_cache) == 1
        graph.begin_transaction()
        graph.create_property_index("A", "p")
        assert len(graph.statistics().plan_cache) == 0
        assert executor.run(query).rows == [(1,)] * 5
        assert "index lookup" in executor.explain(query)
        graph.rollback_transaction()
        assert len(graph.statistics().plan_cache) == 0
        # A plan that survived would look the dropped index up.
        assert executor.run(query).rows == [(1,)] * 5
        assert "label scan" in executor.explain(query)


@settings(max_examples=60, deadline=None)
@given(SCRIPTS, SCRIPTS, st.booleans())
def test_rebuilt_once_the_element_mutations_reach_the_trigger(
    before, script, bulk
):
    """Over random scripts, per element or bulk: the same object until
    the trigger, then equal to a build field for field.  A per-element
    twin counts the mutations: its listener sees one event each."""
    graph = run_script(before, bulk)
    twin = run_script(before, bulk=False)
    events: list = []
    twin.add_listener(
        lambda op, args: op.startswith("tx_") or events.append(op)
    )
    stats = graph.statistics()
    for step in script * 3:
        run_script([step], bulk, graph)
        run_script([step], False, twin)
        due = max(64, (stats.num_vertices + stats.num_edges) >> 4)
        if len(events) < due:
            assert graph.statistics() is stats
            continue
        rebuilt = graph.statistics()
        assert rebuilt is not stats
        fresh = GraphStatistics.build(graph)
        assert snapshot_of(rebuilt) == snapshot_of(fresh)
        stats = rebuilt
        events.clear()
    # Stale or rebuilt, a build first asked now reads the graph the
    # script left.
    assert_estimates_match(graph.statistics(), graph)


class TestPropertyStats:
    def test_unhashable_values_counted_in_aggregate(self):
        graph = PropertyGraph()
        graph.add_vertex("A", {"v": [1, 2]})
        graph.add_vertex("A", {"v": "x"})
        graph.add_vertex("A", {"v": (1, 2)})  # a list's key, not a list
        stats = graph.statistics()
        assert stats.eq_estimate("A", "v", [1, 2]) == 1.0
        assert stats.eq_estimate("A", "v", [3]) == 1.0  # any list
        assert stats.eq_estimate("A", "v", "x") == 1.0
        assert stats.eq_estimate("A", "v", (1, 2)) == 1.0
        # Two hashable values, two distinct: the list is no bucket.
        assert stats.avg_eq_estimate("A", "v") == 1.0
        assert_estimates_match(stats, graph)

    def test_a_column_no_dict_can_key_takes_each_value_for_a_distinct_one(
        self, monkeypatch
    ):
        # Only in memory: a set.  The column has no codes; the
        # histograms bucketed "x", and a hashable literal is not priced
        # as matching nothing.
        graph = PropertyGraph()
        graph.add_vertex("A", {"v": {1}})
        graph.add_vertex("A", {"v": "x"})
        graph.add_vertex("B", {"v": "x"})
        stats = graph.statistics()
        assert stats.eq_estimate("A", "v", "x") == 1.0
        assert stats.eq_estimate("A", "v", "y") == 1.0
        assert stats.eq_estimate("A", "v", [1]) == 2.0
        assert stats.avg_eq_estimate("A", "v") == 1.0
        assert stats.eq_estimate("B", "v", "x") == 1.0
        # The failed coding is kept with the build: no ask hashes again.
        monkeypatch.setattr(_Column, "coding", None)
        assert stats.eq_estimate("A", "v", "x") == 1.0
        assert stats.avg_eq_estimate("B", "v") == 1.0

    def test_without_a_graph_nothing_matches(self):
        graph = PropertyGraph()
        graph.add_vertex("A", {"v": 1})
        stats = GraphStatistics.build(graph)
        del graph
        gc.collect()
        for orphan in (GraphStatistics(), stats):
            assert orphan.eq_estimate("A", "v", 1) == 0.0
            assert orphan.eq_estimate("A", "v", [1]) == 0.0
            assert orphan.avg_eq_estimate("A", "v") == 0.0

    def test_an_estimate_is_as_of_its_first_ask_after_the_build(self):
        graph = PropertyGraph()
        for i in range(4):
            graph.add_vertex("A", {"v": i % 2, "w": i})
        stats = graph.statistics()
        assert stats.eq_estimate("A", "v", 1) == 2.0
        graph.set_property(0, "v", 1)  # two mutations: the build stays
        graph.set_property(0, "w", 1)
        assert graph.statistics() is stats
        # v as first asked, before the writes; w first asked after them.
        assert stats.eq_estimate("A", "v", 1) == 2.0
        assert stats.avg_eq_estimate("A", "v") == 2.0
        assert stats.eq_estimate("A", "w", 1) == 2.0
        assert stats.eq_estimate("A", "w", True) == 2.0
        assert stats.eq_estimate("A", "w", 1.0) == 2.0
        assert stats.eq_estimate("A", "w", 1.5) == 0.0
        assert stats.avg_eq_estimate("A", "w") == 4 / 3
        assert stats.label_count("A") == 4
        for _ in range(62):  # the 64th mutation: a rebuild reads v again
            graph.set_property(1, "v", 1)
        rebuilt = graph.statistics()
        assert rebuilt is not stats
        assert rebuilt.eq_estimate("A", "v", 1) == 3.0
        assert_estimates_match(rebuilt, graph)


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("q1", "plan1")
        cache.put("q2", "plan2")
        assert cache.get("q1") == "plan1"
        assert cache.get("q0") is None
        cache.put("q3", "plan3")  # evicts q2 (q1 was touched)
        assert cache.get("q2") is None
        assert cache.get("q1") == "plan1"
        assert cache.get("q3") == "plan3"
        assert cache.hits == 3
        assert cache.misses == 2
