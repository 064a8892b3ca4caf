"""Tests for the property graph store."""

import pytest

from repro.exceptions import GraphError
from repro.graphdb.graph import PropertyGraph


@pytest.fixture()
def graph():
    g = PropertyGraph("t")
    a = g.add_vertex("A", {"name": "a0", "k": 1})
    b = g.add_vertex(["A", "B"], {"name": "b0"})
    c = g.add_vertex("C", {})
    g.add_edge(a, b, "knows")
    g.add_edge(a, c, "likes", {"weight": 2})
    g.add_edge(b, c, "knows")
    return g


class TestVertices:
    def test_ids_sequential(self, graph):
        assert [v.vid for v in graph.iter_vertices()] == [0, 1, 2]

    def test_labels_required(self):
        g = PropertyGraph()
        with pytest.raises(GraphError):
            g.add_vertex([], {})

    def test_multi_labels(self, graph):
        assert graph.vertex(1).labels == {"A", "B"}
        assert graph.has_label(1, "B")
        assert not graph.has_label(0, "B")

    def test_label_lookup(self, graph):
        assert graph.vertices_with_label("A") == [0, 1]
        assert graph.vertices_with_label("B") == [1]
        assert graph.vertices_with_label("Nope") == []
        assert graph.label_count("A") == 2

    def test_unknown_vertex(self, graph):
        with pytest.raises(GraphError):
            graph.vertex(99)

    def test_set_property(self, graph):
        graph.set_property(0, "extra", [1, 2])
        assert graph.vertex(0).properties["extra"] == [1, 2]

    def test_labels_listing(self, graph):
        assert graph.labels() == ["A", "B", "C"]


class TestEdges:
    def test_adjacency(self, graph):
        out = graph.out_edges(0)
        assert {e.label for e in out} == {"knows", "likes"}
        assert [e.dst for e in graph.out_edges(0, "knows")] == [1]
        assert [e.src for e in graph.in_edges(2, "likes")] == [0]

    def test_label_filter(self, graph):
        assert graph.out_edges(0, "nothing") == []

    def test_edge_endpoints_checked(self, graph):
        with pytest.raises(GraphError):
            graph.add_edge(0, 99, "x")

    def test_edge_properties(self, graph):
        likes = graph.out_edges(0, "likes")[0]
        assert likes.properties["weight"] == 2

    def test_degree(self, graph):
        assert graph.degree(0) == 2
        assert graph.degree(2) == 2

    def test_counts(self, graph):
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_multigraph(self, graph):
        graph.add_edge(0, 1, "knows")
        assert len(graph.out_edges(0, "knows")) == 2


class TestPropertyIndex:
    def test_lookup(self, graph):
        graph.create_property_index("A", "name")
        assert graph.lookup_property("A", "name", "a0") == [0]
        assert graph.lookup_property("A", "name", "zz") == []

    def test_requires_index(self, graph):
        with pytest.raises(GraphError):
            graph.lookup_property("A", "name", "a0")

    def test_index_tracks_new_vertices(self, graph):
        graph.create_property_index("A", "name")
        vid = graph.add_vertex("A", {"name": "a9"})
        assert graph.lookup_property("A", "name", "a9") == [vid]

    def test_idempotent_creation(self, graph):
        graph.create_property_index("A", "name")
        graph.create_property_index("A", "name")
        assert graph.has_property_index("A", "name")


class TestRecords:
    def test_writes_through_record_properties_raise(self, graph):
        # A write through a record would skip the property indexes, the
        # undo log and the WAL: only the graph's mutation methods write.
        graph.create_property_index("A", "k")
        props = graph.vertex(0).properties
        with pytest.raises(TypeError):
            props["k"] = 2
        with pytest.raises(TypeError):
            del props["k"]
        for eid in (0, 1):  # one edge without properties, one with
            with pytest.raises(TypeError):
                graph.edge(eid).properties["weight"] = 9
        assert graph.get_property(0, "k") == 1
        assert graph.lookup_property("A", "k", 1) == [0]
        assert dict(graph.edge(1).properties) == {"weight": 2}

    def test_list_values_are_copies(self, graph):
        # A list read out of the graph is the reader's own: changing it
        # must not change the graph behind the undo log and the WAL.
        graph.set_property(0, "xs", [1, 2])
        eid = graph.add_edge(0, 1, "tags", {"ys": ["a"]})
        graph.get_property(0, "xs").append(3)
        graph.vertex(0).properties["xs"].append(3)
        graph.edge(eid).properties["ys"].append("b")
        assert graph.get_property(0, "xs") == [1, 2]
        assert graph.vertex(0).properties["xs"] == [1, 2]
        assert graph.edge(eid).properties["ys"] == ["a"]

    def test_equal_records_hash_alike(self, graph):
        assert len({graph.vertex(1), graph.vertex(1)}) == 1
        assert len({graph.edge(0), graph.edge(0), graph.edge(2)}) == 2
