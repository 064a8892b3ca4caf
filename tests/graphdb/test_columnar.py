"""Columnar core: symbol table, typed columns, tables, frozen CSR view."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphdb.columnar import (
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJ,
    PropertyColumn,
    SymbolTable,
)
from repro.graphdb.graph import PropertyGraph
from repro.optimizer.pagerank import pagerank, pagerank_kernel


class TestSymbolTable:
    def test_intern_is_dense_and_stable(self):
        table = SymbolTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.name(1) == "b"
        assert table.sid("b") == 1
        assert table.sid("nope") is None
        assert "a" in table and "nope" not in table
        assert len(table) == 2
        assert table.names() == ["a", "b"]


class TestPropertyColumn:
    def test_typed_kinds(self):
        assert PropertyColumn.for_value(3).kind == KIND_INT
        assert PropertyColumn.for_value(3.5).kind == KIND_FLOAT
        assert PropertyColumn.for_value("x").kind == KIND_OBJ
        # bools must not be packed into int slots (type would be lost)
        assert PropertyColumn.for_value(True).kind == KIND_OBJ
        assert PropertyColumn.for_value([1]).kind == KIND_OBJ
        assert PropertyColumn.for_value(1 << 80).kind == KIND_OBJ

    def test_absent_vs_stored_none(self):
        col = PropertyColumn(KIND_OBJ)
        col.set(2, None)
        assert col.present(2)
        assert col.value_at(2, "fallback") is None
        assert not col.present(1)
        assert col.value_at(1, "fallback") == "fallback"
        assert col.count == 1

    def test_promotion_keeps_values(self):
        col = PropertyColumn(KIND_INT)
        col.set(0, 10)
        col.set(2, 30)
        col.set(1, "mixed")  # promotes in place
        assert col.kind == KIND_OBJ
        assert col.value_at(0) == 10
        assert col.value_at(1) == "mixed"
        assert col.value_at(2) == 30

    def test_unset_frees_slot(self):
        col = PropertyColumn.for_value("a")
        col.set(0, "a")
        col.unset(0)
        assert not col.present(0)
        assert col.count == 0
        col.unset(5)  # out of range: no-op

    def test_from_rows_dense_and_sparse(self):
        dense = PropertyColumn.from_rows([0, 1, 2], [7, 8, 9], KIND_INT)
        assert [dense.value_at(i) for i in range(3)] == [7, 8, 9]
        sparse = PropertyColumn.from_rows([1, 4], ["a", "b"], KIND_OBJ)
        assert sparse.value_at(0) is None
        assert sparse.value_at(1) == "a"
        assert sparse.value_at(4) == "b"


@pytest.fixture()
def graph():
    g = PropertyGraph("t")
    a = g.add_vertex("A", {"name": "a0", "k": 1})
    b = g.add_vertex(["A", "B"], {"name": "b0", "score": 1.5})
    c = g.add_vertex("C", {"tags": ["x", "y"]})
    g.add_edge(a, b, "knows")
    g.add_edge(a, c, "likes", {"weight": 2})
    g.add_edge(b, c, "knows")
    return g


class TestColumnarLayout:
    def test_tables_partition_by_labelset(self, graph):
        tables = {
            frozenset(t.labels): t.live for t in graph.iter_tables()
        }
        assert tables == {
            frozenset({"A"}): 1,
            frozenset({"A", "B"}): 1,
            frozenset({"C"}): 1,
        }

    def test_typed_columns_assigned(self, graph):
        kinds = {}
        for table in graph.iter_tables():
            for sid, column in table.columns.items():
                kinds[graph.symbols.name(sid)] = column.kind
        assert kinds["k"] == KIND_INT
        assert kinds["score"] == KIND_FLOAT
        assert kinds["name"] == KIND_OBJ
        assert kinds["tags"] == KIND_OBJ

    def test_facade_mapping_protocol(self, graph):
        props = graph.vertex(0).properties
        assert props["name"] == "a0"
        assert props.get("missing") is None
        assert "k" in props and "missing" not in props
        assert sorted(props) == ["k", "name"]
        assert len(props) == 2
        assert dict(props) == {"name": "a0", "k": 1}
        assert props == {"name": "a0", "k": 1}
        with pytest.raises(KeyError):
            props["missing"]

    def test_vertex_ids_and_views(self, graph):
        assert graph.vertex_ids() == [0, 1, 2]
        assert [v.vid for v in graph.iter_vertices()] == [0, 1, 2]
        assert [e.eid for e in graph.iter_edges()] == [0, 1, 2]
        graph.remove_vertex(1)
        assert graph.vertex_ids() == [0, 2]
        assert [v.vid for v in graph.iter_vertices()] == [0, 2]
        assert [e.eid for e in graph.iter_edges()] == [1]

    def test_edge_facade(self, graph):
        edge = graph.out_edges(0, "likes")[0]
        assert (edge.src, edge.dst, edge.label) == (0, 2, "likes")
        assert edge.properties == {"weight": 2}
        assert graph.edge(edge.eid) == edge

    def test_stored_none_roundtrip(self, graph):
        graph.set_property(0, "maybe", None)
        assert "maybe" in graph.vertex(0).properties
        graph.remove_property(0, "maybe")
        assert "maybe" not in graph.vertex(0).properties


class TestFreezeLifecycle:
    def test_freeze_returns_cached_until_mutation(self, graph):
        arrays = graph.freeze()
        assert graph.freeze() is arrays and graph.arrays() is arrays
        graph.add_vertex("A", {})
        assert graph.arrays() is not arrays
        assert graph.arrays().type_rank is None  # not frozen
        rebuilt = graph.freeze()
        assert rebuilt is not arrays and rebuilt.type_rank is not None

    def test_every_mutation_invalidates(self, graph):
        mutations = [
            lambda g: g.add_vertex("Z", {}),
            lambda g: g.add_edge(0, 2, "new"),
            lambda g: g.set_property(0, "k", 9),
            lambda g: g.remove_property(0, "k"),
            lambda g: g.remove_edge(0),
            lambda g: g.remove_vertex(2),
            lambda g: g.create_property_index("A", "name"),
        ]
        for mutate in mutations:
            arrays = graph.freeze()
            mutate(graph)
            assert graph.arrays() is not arrays

    @pytest.mark.parametrize("direction", ["out", "in", "any"])
    @pytest.mark.parametrize("labels", [(), ("knows",), ("knows", "likes"),
                                        ("nope",)])
    def test_csr_expand_matches_dict_adjacency(
        self, graph, direction, labels
    ):
        from repro.graphdb.session import GraphSession

        expected = {}
        for vid in graph.vertex_ids():
            session = GraphSession(graph)
            expected[vid] = sorted(
                session.expand_pairs(vid, labels, direction)
            )
        graph.freeze()
        for vid in graph.vertex_ids():
            session = GraphSession(graph)
            got = sorted(session.expand_pairs(vid, labels, direction))
            assert got == expected[vid], (vid, labels, direction)

    def test_csr_segments_match_offsets(self, graph):
        # A typed tuple-path expand on the frozen graph reads the base,
        # which is the frozen CSR, and returns each vertex's segment.
        from repro.graphdb.session import GraphSession

        arrays = graph.freeze()
        session = GraphSession(graph)
        for direction, csrs in (("out", arrays._out), ("in", arrays._in)):
            for sid, csr in csrs.items():
                labels = (graph.symbols.name(sid),)
                vids = graph.vertex_ids()
                starts, counts = csr.span(np.array(vids, dtype=np.int64))
                for vid, start, count in zip(vids, starts, counts):
                    end = start + count
                    got = session.expand_pairs(vid, labels, direction)
                    assert got == list(zip(
                        csr.eids[start:end].tolist(),
                        csr.neighbors[start:end].tolist(),
                    ))

    def test_stale_view_not_used_after_mutation(self, graph):
        from repro.graphdb.session import GraphSession

        graph.freeze()
        graph.add_edge(0, 1, "knows")
        session = GraphSession(graph)
        pairs = session.expand_pairs(0, ("knows",), "out")
        assert len(pairs) == 2  # includes the post-freeze edge


class TestScanRows:
    def test_matches_accept_path(self, graph):
        from repro.graphdb.session import GraphSession

        session = GraphSession(graph)
        got = list(session.scan_rows("A", None, (("name", "a0"),)))
        assert got == [0]
        # residual label check collapses to the table subset test
        got = list(session.scan_rows("A", frozenset({"B"}), ()))
        assert got == [1]
        # absent property only matches an explicit None target
        assert list(session.scan_rows("C", None, (("name", "x"),))) == []
        assert list(session.scan_rows("C", None, (("name", None),))) == [2]

    def test_unknown_label_yields_nothing(self, graph):
        from repro.graphdb.session import GraphSession

        session = GraphSession(graph)
        assert list(session.scan_rows("Nope", None, ())) == []

    def test_multi_prop_scan(self, graph):
        from repro.graphdb.session import GraphSession

        session = GraphSession(graph)
        got = list(
            session.scan_rows("A", None, (("name", "a0"), ("k", 1)))
        )
        assert got == [0]
        got = list(
            session.scan_rows("A", None, (("name", "a0"), ("k", 2)))
        )
        assert got == []


class TestPageRankKernel:
    def test_kernel_matches_dict_wrapper(self):
        adjacency = {
            0: [1, 2], 1: [2], 2: [0], 3: [2], 4: [],
        }
        scores, iters = pagerank(adjacency)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
        flat_src, flat_dst = [], []
        for node, neighbors in adjacency.items():
            for n in neighbors:
                flat_src.append(node)
                flat_dst.append(n)
        raw, raw_iters = pagerank_kernel(5, flat_src, flat_dst)
        assert raw_iters == iters
        for node, score in scores.items():
            assert raw[node] == pytest.approx(score)


class TestFacadeErrors:
    def test_unknown_ids_raise(self, graph):
        with pytest.raises(GraphError):
            graph.vertex(99)
        with pytest.raises(GraphError):
            graph.edge(99)
        with pytest.raises(GraphError):
            graph.labels_of(99)
        graph.remove_vertex(0)
        with pytest.raises(GraphError):
            graph.vertex(0)


class TestReviewRegressions:
    """Pinned fixes from the columnar-core review pass."""

    def test_snapshot_preserves_id_space_after_tail_removal(self, tmp_path):
        from repro.graphdb.storage.snapshot import (
            read_snapshot,
            write_snapshot,
        )

        g = PropertyGraph()
        vids = [g.add_vertex("N", {"i": i}) for i in range(10)]
        eids = [g.add_edge(vids[i], vids[i + 1], "e") for i in range(9)]
        g.remove_edge(eids[-1])
        g.remove_vertex(vids[-1])  # tail ids become holes
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        # New ids continue after the holes; removed ids stay dead.
        new_vid = loaded.add_vertex("N", {"i": 99})
        assert new_vid == 10
        assert loaded.get_property(new_vid, "i") == 99
        with pytest.raises(GraphError):
            loaded.vertex(9)
        new_eid = loaded.add_edge(vids[0], new_vid, "e")
        assert new_eid == 9
        assert loaded.edge(new_eid).dst == new_vid
        with pytest.raises(GraphError):
            loaded.edge(8)

    def test_null_scan_sees_rows_beyond_column_padding(self):
        from repro.graphdb.backends import NEO4J_LIKE
        from repro.graphdb.query.executor import Executor
        from repro.graphdb.session import GraphSession

        g = PropertyGraph()
        first = g.add_vertex("L", {})
        g.set_property(first, "x", 1)  # column mask ends at row 0
        for _ in range(9):
            g.add_vertex("L", {})
        executor = Executor(GraphSession(g, NEO4J_LIKE))
        got = executor.run(
            "MATCH (v:L {x: null}) RETURN count(*)"
        ).single_value()
        assert got == 9

    def test_negative_vertex_ids_rejected(self, graph):
        for vid in (-1, -2, -99):
            with pytest.raises(GraphError):
                graph.vertex(vid)
            with pytest.raises(GraphError):
                graph.labels_of(vid)
            with pytest.raises(GraphError):
                graph.get_property(vid, "name")

    def test_edge_property_reads_do_not_allocate(self, graph):
        before = len(graph._e_props)
        for edge in graph.iter_edges():
            edge.properties.get("weight")
            dict(edge.properties)
        assert len(graph._e_props) == before

    def test_stale_edge_record_keeps_what_it_read(self, graph):
        # A record is a copy: a removed edge's record still reads as it
        # was, and the eid a rolled-back add frees is not aliased.
        edge = graph.out_edges(0, "knows")[0]
        graph.remove_edge(edge.eid)
        assert (edge.src, edge.dst, edge.label) == (0, 1, "knows")
        with pytest.raises(GraphError):
            graph.edge(edge.eid)
        graph.begin_transaction()
        added = graph.edge(graph.add_edge(0, 1, "x", {"w": 1}))
        graph.rollback_transaction()
        reused = graph.add_edge(2, 0, "y")
        assert reused == added.eid
        assert (added.src, added.label, dict(added.properties)) == (
            0, "x", {"w": 1}
        )
        assert graph.edge(reused).properties == {}
