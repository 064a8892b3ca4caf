"""Graph-level transaction semantics: undo-log rollback.

The invariant under test: after ``rollback_transaction()`` the graph
is *exactly* the pre-transaction graph - vertices, edges, properties,
property indexes, id counters (so WAL recovery and the live graph
agree on future id assignment), statistics, and the order in which
every reader meets the elements all match.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import TransactionError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import GraphStatistics
from repro.graphdb.storage import graph_state
from tests.graphdb.randgraph import SCRIPTS, run_script
from tests.graphdb.stats_oracle import assert_estimates_match


def seed_graph() -> PropertyGraph:
    g = PropertyGraph("tx")
    drugs = [
        g.add_vertex("Drug", {"name": f"d{i}", "id": i})
        for i in range(6)
    ]
    conds = [
        g.add_vertex("Condition", {"cname": f"c{i}"}) for i in range(4)
    ]
    for i, d in enumerate(drugs):
        g.add_edge(d, conds[i % 4], "treats", {"w": i})
    g.create_property_index("Drug", "id")
    return g


def churn(g: PropertyGraph) -> None:
    """One of every mutation kind, deletes and cascades included."""
    v = g.add_vertex(("Drug", "Generic"), {"name": "new", "id": 99})
    g.add_edge(v, 6, "treats")
    g.set_property(0, "name", "renamed")
    g.set_property(0, "fresh", True)
    g.remove_property(1, "name")
    g.remove_edge(0)
    g.remove_vertex(7)  # cascades into remove_edge
    g.create_property_index("Condition", "cname")


def assert_stats_consistent(g: PropertyGraph) -> None:
    """The graph's statistics equal a from-scratch batch build, and its
    equality estimates the histograms of ``g`` as it stands."""
    live = g.statistics()
    fresh = GraphStatistics.build(g)
    assert live.num_vertices == fresh.num_vertices
    assert live.num_edges == fresh.num_edges
    assert live.label_counts == fresh.label_counts
    assert live.edge_label_counts == fresh.edge_label_counts
    assert_estimates_match(live, g)


class TestRollback:
    def test_rollback_restores_exact_state(self):
        g = seed_graph()
        before = graph_state(g)
        g.begin_transaction()
        churn(g)
        g.rollback_transaction()
        assert graph_state(g) == before

    def test_rollback_restores_statistics(self):
        g = seed_graph()
        stats = g.statistics()  # built before the tx

        def estimates(stats):
            return [
                stats.eq_estimate("Drug", "name", "d0"),
                stats.eq_estimate("Drug", "id", 99),
                stats.eq_estimate("Drug", "fresh", True),
                stats.avg_eq_estimate("Drug", "name"),
            ]

        before = estimates(stats)
        g.begin_transaction()
        churn(g)
        # The build keeps its answers as first asked, before the tx; a
        # new build reads the churned graph: d0 renamed, 99 added.
        assert estimates(stats) == before
        assert estimates(GraphStatistics.build(g)) != before
        g.rollback_transaction()
        # ... and a build after the rollback the graph before the tx.
        assert estimates(stats) == before
        assert estimates(GraphStatistics.build(g)) == before
        assert_stats_consistent(g)

    def test_rollback_restores_property_indexes(self):
        g = seed_graph()
        g.begin_transaction()
        churn(g)
        g.rollback_transaction()
        assert g.lookup_property("Drug", "id", 0) == [0]
        assert g.lookup_property("Drug", "id", 99) == []
        assert not g.has_property_index("Condition", "cname")

    def test_rollback_reuses_ids(self):
        """Ids allocated in a rolled-back tx are reallocated - the
        live graph must agree with a WAL recovery that never saw the
        frame."""
        g = seed_graph()
        next_vid = g._next_vid
        next_eid = g._next_eid
        g.begin_transaction()
        g.add_vertex("Drug", {"id": 50})
        g.add_edge(0, 1, "treats")
        g.rollback_transaction()
        assert g.add_vertex("Drug", {"id": 51}) == next_vid
        assert g.add_edge(0, 1, "zz") == next_eid

    def test_rollback_of_interleaved_add_then_remove(self):
        g = seed_graph()
        before = graph_state(g)
        g.begin_transaction()
        v = g.add_vertex("Drug", {"id": 77})
        e = g.add_edge(v, 6, "treats")
        g.remove_edge(e)
        g.remove_vertex(v)
        g.rollback_transaction()
        assert graph_state(g) == before

    def test_rollback_restores_edge_properties(self):
        g = seed_graph()
        g.begin_transaction()
        g.remove_edge(2)
        g.rollback_transaction()
        assert g.edge(2).properties["w"] == 2

    def test_queries_after_rollback(self):
        """The plan cache and statistics epochs stay coherent: queries
        planned before, during, and after a rolled-back tx all see
        their own graph state."""
        from repro.graphdb.query.executor import Executor
        from repro.graphdb.session import GraphSession

        g = seed_graph()
        executor = Executor(GraphSession(g))
        q = "MATCH (d:Drug) RETURN count(*)"
        assert executor.run(q).single_value() == 6
        g.begin_transaction()
        g.add_vertex("Drug", {"id": 100})
        assert executor.run(q).single_value() == 7
        g.rollback_transaction()
        assert executor.run(q).single_value() == 6

    def test_commit_keeps_changes(self):
        g = seed_graph()
        g.begin_transaction()
        v = g.add_vertex("Drug", {"id": 88})
        g.commit_transaction()
        assert g.get_property(v, "id") == 88
        assert not g.in_transaction


class TestStateMachine:
    def test_no_nesting(self):
        g = seed_graph()
        g.begin_transaction()
        with pytest.raises(TransactionError):
            g.begin_transaction()
        g.rollback_transaction()

    def test_commit_without_begin(self):
        with pytest.raises(TransactionError):
            seed_graph().commit_transaction()

    def test_rollback_without_begin(self):
        with pytest.raises(TransactionError):
            seed_graph().rollback_transaction()

    def test_in_transaction_flag(self):
        g = seed_graph()
        assert not g.in_transaction
        g.begin_transaction()
        assert g.in_transaction
        g.commit_transaction()
        assert not g.in_transaction


def test_rollback_restores_a_stored_none():
    # Found by the bulk-ingest scripts: "old value None" used to mean
    # "key was absent", so rolling back a write over a stored None
    # removed the key instead of restoring it.
    graph = PropertyGraph()
    vid = graph.add_vertex("N", {"kept": None})
    graph.begin_transaction()
    graph.set_property(vid, "kept", 1)
    graph.set_property(vid, "fresh", None)
    graph.rollback_transaction()
    assert dict(graph.vertex(vid).properties) == {"kept": None}


def test_a_list_value_is_indexed_as_its_tuple():
    # A list used to be an unhashable bucket key: creating the index,
    # and adding or setting a list under one, raised TypeError after
    # the row was already written.
    graph = PropertyGraph()
    tagged = graph.add_vertex("T", {"tags": ["a", "b"]})
    graph.create_property_index("T", "tags")
    assert graph.lookup_property("T", "tags", ["a", "b"]) == [tagged]
    before = graph_state(graph), orders(graph)
    graph.begin_transaction()
    added = graph.add_vertex("T", {"tags": ["a", "b"]})
    graph.set_property(tagged, "tags", ["c", ["d"]])
    assert graph.lookup_property("T", "tags", ["a", "b"]) == [added]
    assert graph.lookup_property("T", "tags", ["c", ["d"]]) == [tagged]
    graph.remove_vertex(added)
    assert graph.lookup_property("T", "tags", ["a", "b"]) == []
    graph.rollback_transaction()
    assert (graph_state(graph), orders(graph)) == before
    assert graph.lookup_property("T", "tags", ["a", "b"]) == [tagged]
    assert graph.lookup_property("T", "tags", ["c", ["d"]]) == []


def test_removing_a_stored_none_is_a_mutation():
    # "old value None" also used to mean "nothing to remove": the slot
    # was unset, then the call returned before the epoch bump, the undo
    # entry and the listener event.
    graph = PropertyGraph()
    vid = graph.add_vertex("N", {"kept": None, "other": 1})
    events = []
    graph.add_listener(lambda op, args: events.append((op, *args)))
    arrays, epoch = graph.freeze(), graph.mutation_epoch
    graph.begin_transaction()
    graph.remove_property(vid, "kept")
    assert dict(graph.vertex(vid).properties) == {"other": 1}
    assert graph.mutation_epoch > epoch and graph.arrays() is not arrays
    assert ("remove_property", vid, "kept") in events
    graph.remove_property(vid, "kept")     # absent now: not a mutation
    graph.remove_property(vid, "unknown")  # never interned: neither
    assert events.count(("remove_property", vid, "kept")) == 1
    graph.rollback_transaction()
    assert dict(graph.vertex(vid).properties) == {"other": 1, "kept": None}


def orders(graph: PropertyGraph) -> dict:
    """The order in which each reader meets vertices and edges."""
    session = GraphSession(graph)
    vids = graph.vertex_ids()
    return {
        "rows": [table.vids for table in graph.iter_tables()],
        "scan": list(session.scan_rows(None, None, ())),
        "labels": {
            label: graph.vertices_with_label(label)
            for label in graph.labels()
        },
        "index": {
            (label, prop, value): graph.lookup_property(label, prop, value)
            for (label, prop), index in graph._property_indexes.items()
            for value in index
        },
        "out": {vid: [e.eid for e in graph.out_edges(vid)] for vid in vids},
        "in": {vid: [e.eid for e in graph.in_edges(vid)] for vid in vids},
        "expand": {vid: session.expand_pairs(vid, (), "any") for vid in vids},
        "first": {
            (e.src, e.dst): graph.first_edge_between(e.src, e.dst)
            for e in graph.iter_edges()
        },
    }


def test_rollback_puts_a_removed_vertex_back_where_it_was():
    # A removed vertex used to come back last: in a new table row (the
    # old one stayed tombstoned), in its label and index buckets, and
    # its edges last in their adjacency buckets.
    g = PropertyGraph()
    for i in range(5):
        g.add_vertex("A", {"p": i % 2})
    g.add_vertex("B")
    for src, dst, label in [(0, 2, "T"), (0, 3, "T"), (2, 5, "U"),
                            (0, 5, "U"), (2, 3, "T"), (0, 2, "U")]:
        g.add_edge(src, dst, label)
    g.create_property_index("A", "p")
    before = orders(g)
    g.begin_transaction()
    g.remove_vertex(2)
    g.rollback_transaction()
    assert orders(g) == before


@settings(max_examples=60, deadline=None)
@given(SCRIPTS, st.booleans(), st.integers(0, 30), st.integers(0, 30))
# Self-loops come back in reverse removal order: W's key was re-created
# by eid 2, behind T's 1, before eid 0 made W first again.
@example(
    script=[("v", ("A",)), ("v", ("A",)), ("e", "W", [(0, 0)]),
            ("e", "T", [(0, 0)]), ("e", "W", [(0, 0)])],
    bulk=False, vertex=0, edge=0,
)
# Removing eid 0 left T's key ahead of U's, where a rebuild puts U's
# first eid 1 ahead of T's 2; the rollback of eid 2 then re-sorted.
@example(
    script=[("v", ("A",)), ("v", ("A",)), ("v", ("A",)),
            ("e", "T", [(0, 1)]), ("e", "U", [(0, 1)]),
            ("e", "T", [(0, 1)]), ("rm_e", 0)],
    bulk=False, vertex=2, edge=1,
)
# A script that removes every vertex leaves none to remove here.
@example(
    script=[("v", ("A",)), ("v", ("A",)), ("rm_v", 0), ("rm_v", 0)],
    bulk=False, vertex=0, edge=0,
)
def test_rolled_back_removals_leave_every_order_as_it_was(
    script, bulk, vertex, edge
):
    g = run_script(script, bulk)
    g.create_property_index("A", "n")
    before = orders(g)
    g.begin_transaction()
    live = g.vertex_ids()
    if live:
        g.remove_vertex(live[vertex % len(live)])
    eids = [e.eid for e in g.iter_edges()]
    if eids:
        g.remove_edge(eids[edge % len(eids)])
    g.rollback_transaction()
    assert orders(g) == before
    # The maintained adjacency is the one a rebuild gives.
    g._base = None
    assert orders(g) == before
