"""Tests for vertex/edge removal and index maintenance."""

import pytest

from repro.exceptions import GraphError
from repro.graphdb.graph import PropertyGraph


@pytest.fixture()
def graph():
    g = PropertyGraph()
    a = g.add_vertex("A", {"name": "a"})
    b = g.add_vertex("A", {"name": "b"})
    c = g.add_vertex("B", {"name": "c"})
    g.add_edge(a, b, "knows")
    g.add_edge(b, c, "knows")
    g.add_edge(a, c, "likes")
    return g


class TestRemoveEdge:
    def test_removes_from_adjacency(self, graph):
        eid = graph.out_edges(0, "knows")[0].eid
        graph.remove_edge(eid)
        assert graph.out_edges(0, "knows") == []
        assert graph.in_edges(1, "knows") == []
        assert graph.num_edges == 2

    def test_unknown_edge(self, graph):
        with pytest.raises(GraphError):
            graph.remove_edge(999)


class TestRemoveVertex:
    def test_cascades_edges(self, graph):
        graph.remove_vertex(1)
        assert graph.num_vertices == 2
        assert graph.num_edges == 1  # only a-likes->c survives
        assert graph.out_edges(0, "knows") == []

    def test_label_lookup_updated(self, graph):
        graph.remove_vertex(0)
        assert graph.vertices_with_label("A") == [1]
        assert graph.label_count("A") == 1

    def test_property_index_updated(self, graph):
        graph.create_property_index("A", "name")
        graph.remove_vertex(0)
        assert graph.lookup_property("A", "name", "a") == []
        assert graph.lookup_property("A", "name", "b") == [1]

    def test_vertex_gone(self, graph):
        graph.remove_vertex(2)
        with pytest.raises(GraphError):
            graph.vertex(2)


class TestSetPropertyIndexMaintenance:
    def test_index_follows_value_change(self, graph):
        graph.create_property_index("A", "name")
        graph.set_property(0, "name", "renamed")
        assert graph.lookup_property("A", "name", "a") == []
        assert graph.lookup_property("A", "name", "renamed") == [0]

    def test_remove_property(self, graph):
        graph.create_property_index("A", "name")
        graph.remove_property(0, "name")
        assert graph.lookup_property("A", "name", "a") == []
        assert "name" not in graph.vertex(0).properties

    def test_remove_missing_property_noop(self, graph):
        graph.remove_property(0, "ghost")  # does not raise


class TestEmptyBucketCleanup:
    def test_deleted_label_disappears(self, graph):
        assert "B" in graph.labels()
        graph.remove_vertex(2)  # the only B vertex
        assert "B" not in graph.labels()
        assert graph.vertices_with_label("B") == []

    def test_label_survives_while_populated(self, graph):
        graph.remove_vertex(0)
        assert "A" in graph.labels()

    def test_removed_edge_label_disappears_from_adjacency(self, graph):
        eid = graph.out_edges(0, "likes")[0].eid
        graph.remove_edge(eid)
        assert graph.out_edges(0, "likes") == []
        assert not graph.has_edge_between(0, 2, "likes")

    def test_property_index_bucket_dropped(self, graph):
        graph.create_property_index("A", "name")
        graph.set_property(0, "name", "renamed")
        assert graph.lookup_property("A", "name", "a") == []
        assert graph.lookup_property("A", "name", "renamed") == [0]


class TestHasEdgeBetween:
    def test_directions(self, graph):
        assert graph.has_edge_between(0, 1, "knows", "out")
        assert not graph.has_edge_between(1, 0, "knows", "out")
        assert graph.has_edge_between(1, 0, "knows", "in")
        assert graph.has_edge_between(1, 0, "knows", "any")

    def test_label_filter(self, graph):
        assert graph.has_edge_between(0, 2, "likes")
        assert not graph.has_edge_between(0, 2, "knows")
        assert graph.has_edge_between(0, 2, None)

    def test_follows_removal(self, graph):
        eid = graph.out_edges(0, "knows")[0].eid
        graph.remove_edge(eid)
        assert not graph.has_edge_between(0, 1, "knows")

    def test_first_edge_between_returns_eid(self, graph):
        eid = graph.first_edge_between(0, 1, "knows")
        assert graph.edge(eid).label == "knows"
        assert graph.first_edge_between(2, 0, "knows") is None

    def test_multigraph_keeps_remaining_parallel_edge(self, graph):
        extra = graph.add_edge(0, 1, "knows")
        first = graph.first_edge_between(0, 1, "knows")
        graph.remove_edge(first)
        assert graph.first_edge_between(0, 1, "knows") == extra


class TestPlannerCartesian:
    def test_disconnected_patterns_cartesian(self, graph):
        from repro.graphdb.backends import NEO4J_LIKE
        from repro.graphdb.query.executor import Executor
        from repro.graphdb.session import GraphSession

        result = Executor(GraphSession(graph, NEO4J_LIKE)).run(
            "MATCH (x:A), (y:B) RETURN count(*)"
        )
        assert result.single_value() == 2  # 2 A-vertices x 1 B-vertex
