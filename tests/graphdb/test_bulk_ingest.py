"""Bulk ``add_vertices`` / ``add_edges`` / ``set_properties`` must be
indistinguishable from per-element ``add_vertex`` / ``add_edge`` /
``set_property``: same vertex tables and columns (kinds, masks, key
order), edge columns, adjacency (order included), indexes, statistics,
listener events, undo behaviour and WAL recovery.
"""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import GraphError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from repro.graphdb.storage import GraphStore, graph_state, recover_graph
from repro.graphdb.columnar import ABSENT
from tests.graphdb.randgraph import (
    SCRIPTS,
    adjacency_reads,
    label_lists,
    run_script,
)
from tests.graphdb.test_statistics import snapshot_of


def columns_of(graph: PropertyGraph, table) -> list:
    """A table's columns in key order: dtype, presence mask and the
    present values (``repr``, so that ``True`` is not ``1``).  What a
    hole's slot holds is not observable and not compared."""
    return [
        (
            graph.symbols.name(sid), column.kind, bytes(column.mask),
            column.count,
            repr([v for v, bit in zip(column.data, column.mask) if bit]),
        )
        for sid, column in table.columns.items()
    ]


def structures(graph: PropertyGraph) -> dict:
    """Everything an insert touches, dict key order included."""
    return {
        "v_tid": graph._v_tid,
        "v_row": graph._v_row,
        "next_vid": graph._next_vid,
        "tables": [
            (table.labels, table.vids, table.live, columns_of(graph, table))
            for table in graph.iter_tables()
        ],
        "e_src": graph._e_src,
        "e_dst": graph._e_dst,
        "e_label": graph._e_label,
        "e_props": graph._e_props,
        "symbols": [
            graph.symbols.name(sid) for sid in range(len(graph.symbols))
        ],
        "num_edges": graph.num_edges,
        "next_eid": graph._next_eid,
        "adjacency": adjacency_reads(graph),
        "labels": label_lists(graph),
    }


def assert_same_graph(bulk: PropertyGraph, single: PropertyGraph) -> None:
    assert structures(bulk) == structures(single)
    assert graph_state(bulk) == graph_state(single)
    assert snapshot_of(bulk.statistics()) == snapshot_of(single.statistics())


@settings(max_examples=80, deadline=None)
@given(SCRIPTS)
def test_unobserved_graphs_agree(script):
    bulk = run_script(script, bulk=True)
    single = run_script(script, bulk=False)
    assert_same_graph(bulk, single)


@settings(max_examples=40, deadline=None)
@given(SCRIPTS)
def test_listener_events_and_live_statistics_agree(script):
    graphs = []
    for bulk in (True, False):
        graph = PropertyGraph("scripted")
        events: list = []
        graph.add_listener(lambda op, args, log=events: log.append((op, args)))
        graph.statistics()  # both must count their way to one rebuild
        run_script(script, bulk, graph)
        graphs.append((graph, events))
    (bulk, bulk_events), (single, single_events) = graphs
    assert bulk_events == single_events
    assert_same_graph(bulk, single)


@settings(max_examples=40, deadline=None)
@given(SCRIPTS, SCRIPTS)
def test_rollback_restores_ids_and_counters(before, inside):
    rolled = []
    for bulk in (True, False):
        graph = run_script(before, bulk)
        graph.begin_transaction()
        run_script(inside, bulk, graph)
        graph.rollback_transaction()
        rolled.append(graph)
    assert_same_graph(*rolled)
    # ... and both are the pre-transaction graph again.
    baseline = run_script(before, bulk=False)
    for graph in rolled:
        assert graph_state(graph) == graph_state(baseline)
        assert snapshot_of(graph.statistics()) == snapshot_of(
            baseline.statistics()
        )
    # Rolled-back ids are handed out again.
    run_script(inside, True, rolled[0])
    run_script(inside, False, baseline)
    assert graph_state(rolled[0]) == graph_state(baseline)


@settings(max_examples=15, deadline=None)
@given(SCRIPTS)
def test_wal_backed_bulk_recovers_to_the_same_graph(tmp_path_factory, script):
    states = []
    files = []
    for bulk in (True, False):
        target = tmp_path_factory.mktemp("store") / "d"
        store = GraphStore.create(target, PropertyGraph("scripted"))
        run_script(script, bulk, store.graph)
        live = graph_state(store.graph)
        store.close()
        assert graph_state(recover_graph(target)) == live
        states.append(live)
        files.append({
            path.name: path.read_bytes() for path in target.iterdir()
        })
    assert states[0] == states[1]
    assert files[0] == files[1]  # the same WAL, byte for byte


class TestContract:
    @pytest.fixture()
    def graph(self):
        graph = PropertyGraph()
        for _ in range(3):
            graph.add_vertex("N", {})
        return graph

    def test_returns_consecutive_eids(self, graph):
        graph.add_edge(0, 1, "T")
        assert graph.add_edges("T", [0, 1], [1, 2]) == range(1, 3)
        assert graph.add_edges("T", [], []) == range(3, 3)
        assert graph.add_edges("U", iter([2]), (0,)) == range(3, 4)
        assert [graph.edge(eid).label for eid in range(4)] == list("TTTU")

    def test_empty_batch_interns_nothing_and_keeps_the_view(self, graph):
        arrays = graph.freeze()
        graph.add_edges("never", [], [])
        assert graph.symbols.sid("never") is None
        assert graph.arrays() is arrays

    def test_one_epoch_bump_and_the_endpoint_probes(self, graph):
        epoch = graph.mutation_epoch
        graph.add_edges("T", [0, 1, 0], [1, 2, 1])
        assert graph.mutation_epoch == epoch + 1
        assert graph.first_edge_between(0, 1, "T") == 0
        assert graph.first_edge_between(2, 1, "T", direction="in") == 1
        assert not graph.has_edge_between(2, 0)

    @pytest.mark.parametrize("srcs, dsts, culprit", [
        ([0, -1], [1, 1], "-1"),
        ([0, 1], [1, 3], "3"),
        ([0, 1], [9, 3], "9"),
        ([0, "x"], [1, 1], "x"),
        ([0, 1.0], [1, 1], "1.0"),
        ([0, None], [1, 1], "None"),
        (np.array([0, 1]), np.array([1, 9]), "9"),
        (array("q", [0, -1]), array("q", [1, 1]), "-1"),
        # A float is no vid, in an array as in a list.
        (np.array([0, 1.0]), np.array([1, 1]), "0.0"),
    ])
    def test_bad_endpoint_leaves_the_graph_untouched(
        self, graph, srcs, dsts, culprit
    ):
        graph.remove_vertex(2)
        before = structures(graph)
        epoch = graph.mutation_epoch
        with pytest.raises(GraphError, match=f"unknown vertex {culprit}"):
            graph.add_edges("T", srcs, dsts)
        with pytest.raises(GraphError, match="unknown vertex 2"):
            graph.add_edges("T", [0, 2], [1, 1])  # removed vertex
        assert structures(graph) == before
        assert graph.mutation_epoch == epoch

    def test_length_mismatch(self, graph):
        with pytest.raises(GraphError, match="1 sources for 2 targets"):
            graph.add_edges("T", [0], [1, 2])
        assert graph.num_edges == 0


    # -- add_vertices --------------------------------------------------
    def test_returns_consecutive_vids(self, graph):
        assert graph.add_vertices("N", 1, {"n": [1]}) == range(3, 4)
        assert graph.add_vertices(("M", "N"), 1) == range(4, 5)
        assert graph.add_vertices("M", 0) == range(5, 5)
        assert graph.add_vertices(iter(["M"]), 1, {"m": ["x"]}) == range(5, 6)
        assert [sorted(graph.labels_of(vid)) for vid in range(2, 6)] == [
            ["N"], ["N"], ["M", "N"], ["M"]
        ]
        assert graph.get_property(3, "n") == 1
        assert dict(graph.vertex(4).properties) == {}
        assert graph.vertices_with_label("N") == [0, 1, 2, 3, 4]
        assert graph.vertices_with_label("M") == [4, 5]

    def test_empty_vertex_batch_interns_nothing_and_keeps_the_view(
        self, graph
    ):
        arrays = graph.freeze()
        symbols = len(graph.symbols)
        graph.add_vertices("fresh", 0, {"key": []})
        assert len(graph.symbols) == symbols
        assert graph.arrays() is arrays

    def test_vertices_take_one_epoch_bump_and_typed_columns(self, graph):
        epoch = graph.mutation_epoch
        graph.add_vertices("N", 2, {"n": [1, ABSENT], "f": [0.5, 1.5]})
        assert graph.mutation_epoch == epoch + 1
        columns = {
            graph.symbols.name(sid): column
            for sid, column in graph._locate(0)[0].columns.items()
        }
        assert columns["n"].kind == "int64"
        # Rows 0-2 predate the key; no slot is stored past the last set.
        assert bytes(columns["n"].mask) == b"\x00\x00\x00\x01"
        assert columns["f"].kind == "float64"
        assert bytes(columns["f"].mask) == b"\x00\x00\x00\x01\x01"

    @pytest.mark.parametrize("labels, columns, message", [
        ((), None, "at least one label"),
        ([], {}, "at least one label"),
        (frozenset(), {"fresh": [1, 2]}, "at least one label"),
    ])
    def test_bad_vertex_batch_leaves_the_graph_untouched(
        self, graph, labels, columns, message
    ):
        before = structures(graph)
        epoch = graph.mutation_epoch
        with pytest.raises(GraphError, match=message):
            graph.add_vertices(labels, 2, columns)
        assert structures(graph) == before
        assert graph.mutation_epoch == epoch

    @pytest.mark.parametrize("columns, message", [
        ({"fresh": [1, 2, 3]}, "2 vertices for 3 values of 'fresh'"),
        ({"a": [1, 2], "fresh": [1]}, "2 vertices for 1 values of 'fresh'"),
    ], ids=["more-values", "fewer-values"])
    def test_bad_column_batch_leaves_the_graph_untouched(
        self, graph, columns, message
    ):
        before = structures(graph)
        with pytest.raises(GraphError, match=message):
            graph.add_vertices("N", 2, columns)
        assert structures(graph) == before

    def test_column_form_interns_in_row_order(self, graph):
        symbols = len(graph.symbols)
        vids = graph.add_vertices("P", 3, {
            "a": [ABSENT, 1, 2], "b": [3, ABSENT, ABSENT], "c": [ABSENT] * 3,
        })
        assert vids == range(3, 6)
        # The label first; row 0 brings b, row 1 a; c is on no row.
        assert graph.symbols.names()[symbols:] == ["P", "b", "a"]
        assert [dict(graph.vertex(v).properties) for v in vids] == [
            {"b": 3}, {"a": 1}, {"a": 2}
        ]
        table = graph._locate(3)[0]
        assert [graph.symbols.name(sid) for sid in table.columns] == [
            "b", "a"
        ]

    def test_property_index_forces_the_per_element_path(self, graph):
        graph.create_property_index("N", "n")
        epoch = graph.mutation_epoch
        graph.add_vertices("N", 2, {"n": [7, 0]})
        graph.add_vertices("M", 1, {"n": [7]})
        assert graph.mutation_epoch == epoch + 3  # one per element
        assert graph.lookup_property("N", "n", 7) == [3]
        assert graph.lookup_property("N", "n", 0) == [4]
        graph.set_properties("n", {0: 7, 5: 7, 4: None})
        assert graph.mutation_epoch == epoch + 6
        assert graph.lookup_property("N", "n", 7) == [3, 0]
        assert graph.lookup_property("N", "n", 0) == []

    # -- set_properties ------------------------------------------------
    def test_properties_take_one_epoch_bump_and_keep_the_dtype(self, graph):
        graph.add_vertices("N", 1, {"n": [0]})
        graph.add_vertices("M", 1)
        epoch = graph.mutation_epoch
        graph.set_properties("n", {1: 5, 4: [1, 2]})
        graph.set_properties("never", {})
        assert graph.mutation_epoch == epoch + 1
        assert graph.symbols.sid("never") is None
        assert graph.get_property(1, "n") == 5
        assert graph.get_property(4, "n") == [1, 2]
        column = graph._locate(0)[0].columns[graph.symbols.sid("n")]
        assert column.kind == "int64"

    @pytest.mark.parametrize("vid", [-1, 3, "x", None])
    def test_unknown_vertex_leaves_the_graph_untouched(self, graph, vid):
        graph.remove_vertex(1)
        before = structures(graph)
        epoch = graph.mutation_epoch
        with pytest.raises(GraphError, match=f"unknown vertex {vid}"):
            graph.set_properties("fresh", {0: 1, vid: 2})
        with pytest.raises(GraphError, match="unknown vertex 1"):
            graph.set_properties("fresh", {0: 1, 1: 2})  # removed vertex
        assert structures(graph) == before
        assert graph.mutation_epoch == epoch


def csr_lists(arrays) -> list:
    """Every CSR array of frozen ``arrays``, as lists."""
    return [
        [column.tolist() for column in (
            csr.starts, csr.counts, csr.neighbors, csr.eids
        )]
        for csrs in (arrays._out, arrays._in) for csr in csrs.values()
    ]


def test_held_arrays_survive_every_mutation():
    """What one epoch hands out - the frozen arrays, ``v_tid``, the
    statistics and a half-consumed batch-path result - keeps no view of
    the graph's growable id columns: every mutation after it goes
    through (a view would make the next append, or the rollback's
    truncation of the tails, raise ``BufferError``), and what is held
    still reads its own epoch."""
    graph = PropertyGraph()
    graph.add_vertices("A", 40, {"n": list(range(40))})
    graph.add_edges("T", np.arange(40), (np.arange(40) + 1) % 40)
    query = "MATCH (a:A)-[:T]->(b:A) RETURN a.n, b.n"
    executor = Executor(GraphSession(graph))
    frozen = graph.freeze()
    expected = executor.run(query).rows
    v_tid = graph.arrays().v_tid()
    stats = graph.statistics()
    held = (v_tid.tolist(), csr_lists(frozen), snapshot_of(stats))
    report = ExecutionReport()
    rows = executor.stream(query, report=report)[3]
    first = next(rows)
    assert report.mode == "vectorized"

    graph.add_vertex("A", {"n": 40})
    graph.add_vertices("B", 3, {"n": [1, 2, 3]})
    graph.add_edges("T", np.array([40, 41]), np.array([0, 40]))
    graph.add_edges("T", [42], [43])
    graph.set_properties("n", {0: 100, 41: 101})
    graph.begin_transaction()
    graph.add_vertex("A")
    graph.add_edge(44, 0, "T")
    graph.rollback_transaction()  # truncates the id columns' tails
    assert (len(graph._v_tid), len(graph._e_src)) == (44, 43)

    assert [first, *rows] == expected
    assert (v_tid.tolist(), csr_lists(frozen), snapshot_of(stats)) == held
    assert graph.arrays().v_tid()[:40].tolist() == held[0]
