"""The adjacency base is derived state.

A bulk-loaded or snapshot-recovered graph has none (``_base is None``),
and no mutation builds one: while there is none, adds, removals and
rollbacks touch the columns only.  The first per-element read builds
it whole from the edge columns, and the graph then answers as one whose
base was built before its first vertex, so that every edge went
through the tail.  A freeze makes the frozen CSR the base itself, so a
frozen graph's tuple-path reads build nothing, and the batch path and
the statistics never need a base.  The guard at the bottom fails if
the paper's queries start building one of their own, because the
memory and load time this saves would silently come back.
"""

import pytest

from repro.bench.harness import build_pipeline
from repro.data.loader import load_direct
from repro.graphdb.api import connect
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from repro.graphdb.storage.snapshot import (
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from tests.graphdb.randgraph import adjacency_reads

LABELS = ["N", ("N", "M"), "N", "M", "N"]
EDGES = {"T": ([0, 0, 1, 3, 0], [1, 2, 2, 3, 1]), "U": ([2, 4], [0, 0])}


def eager_twin() -> PropertyGraph:
    """Built per element on an empty base, read before the first
    vertex, so every edge goes through the tail; then a vertex (with
    its edges) and an edge are removed."""
    graph = PropertyGraph("g")
    assert graph.degree(0) == 0 and graph._base is not None
    for vid, labels in enumerate(LABELS):
        graph.add_vertex(labels, {"i": vid})
    for label, (srcs, dsts) in EDGES.items():
        for src, dst in zip(srcs, dsts):
            graph.add_edge(src, dst, label)
    return graph


def with_tombstones(graph: PropertyGraph) -> PropertyGraph:
    graph.remove_vertex(4)  # takes eid 6 with it
    graph.remove_edge(1)
    return graph


def bulk_loaded() -> PropertyGraph:
    graph = PropertyGraph("g")
    for vid, labels in enumerate(LABELS):
        graph.add_vertices(labels, 1, {"i": [vid]})
    for label, (srcs, dsts) in EDGES.items():
        graph.add_edges(label, srcs, dsts)
    return graph


def recovered(tmp_path) -> PropertyGraph:
    write_snapshot(with_tombstones(eager_twin()), tmp_path / "g.rpgs")
    return read_snapshot(tmp_path / "g.rpgs")


@pytest.fixture(params=["bulk", "snapshot"])
def lazy_and_twin(request, tmp_path):
    if request.param == "bulk":
        pair = bulk_loaded(), eager_twin()
    else:
        pair = recovered(tmp_path), with_tombstones(eager_twin())
    assert pair[0]._base is None
    return pair


def rolled_back_removal(graph: PropertyGraph) -> None:
    graph.begin_transaction()
    graph.remove_vertex(0)
    graph.add_edge(1, 2, "U")
    graph.rollback_transaction()


READS = {
    "out_edges": lambda graph: [e.eid for e in graph.out_edges(0)],
    "in_edges": lambda graph: [e.eid for e in graph.in_edges(2, "T")],
    "degree": lambda graph: graph.degree(3),
    "session.expand": lambda graph: GraphSession(graph).expand_pairs(
        0, (), "any"
    ),
    "session.expand_pairs": lambda graph: GraphSession(graph).expand_pairs(
        0, ("T",), "out"
    ),
}
MUTATIONS = {
    "add_edge": lambda graph: graph.add_edge(3, 0, "V"),
    "add_vertex": lambda graph: graph.add_vertex("M", {}),
    "remove_edge": lambda graph: graph.remove_edge(0),
    "remove_vertex": lambda graph: graph.remove_vertex(2),
    "rollback": rolled_back_removal,
}


@pytest.mark.parametrize("trigger", [*READS, *MUTATIONS])
def test_first_need_builds_what_an_eager_graph_has(lazy_and_twin, trigger):
    lazy, twin = lazy_and_twin
    run = READS.get(trigger) or MUTATIONS[trigger]
    assert run(lazy) == run(twin)
    # A read builds the base; a mutation builds none.
    assert (lazy._base is not None) == (trigger in READS)
    assert adjacency_reads(lazy) == adjacency_reads(twin)
    # ... and base plus tail answer alike from there on, bulk appends
    # included.
    for graph in (lazy, twin):
        new = [graph.add_vertices(labels, 1)[0] for labels in "MN"]
        graph.add_edges("T", [new[0], 0], [0, new[1]])
        graph.remove_edge(3)
    assert adjacency_reads(lazy) == adjacency_reads(twin)


def test_bulk_appends_and_frozen_reads_leave_it_unbuilt(lazy_and_twin):
    """Nothing builds a base beside the frozen CSR."""
    lazy, _twin = lazy_and_twin
    new = lazy.add_vertices("M", 1, {"i": [9]})
    lazy.add_edges("T", [new[0]], [0])
    assert lazy._base is None
    arrays = lazy.freeze()
    # The frozen CSR is the base: the same objects, not a copy.
    assert lazy._base[0] is arrays._out and lazy._base[1] is arrays._in
    session = GraphSession(lazy)
    query = "MATCH (a:M)-[:T]->(b) RETURN count(*)"
    assert Executor(session).run(query).rows == [(3,)]
    lazy.statistics()
    # A tuple-path read of the frozen graph reads that base.
    assert session.expand_pairs(0, ("T",), "in") == [(7, new[0])]
    assert Executor(session, vectorize=False).run(query).rows == [(3,)]
    assert lazy._base[0] is arrays._out and lazy._base[1] is arrays._in


@pytest.mark.parametrize("endpoint", [1, 7, -1])
def test_snapshot_edge_to_a_dead_vertex_is_still_refused(tmp_path, endpoint):
    graph = eager_twin()
    if endpoint == 1:  # tombstone vertex 1 behind its edges' back
        table, row = graph._locate(1)
        table.tombstone(row)
        graph._v_tid[1] = -1
    else:
        graph._e_dst[0] = endpoint
    write_snapshot(graph, tmp_path / "bad.rpgs")
    with pytest.raises(SnapshotError, match="edge references unknown id"):
        read_snapshot(tmp_path / "bad.rpgs")


@pytest.mark.parametrize("name", ["med", "fin"])
def test_paper_queries_never_build_it(name, med_small, fin_small):
    dataset = med_small if name == "med" else fin_small
    pipeline = build_pipeline(dataset, scale=0.2)
    assert load_direct(pipeline.logical, "g")._base is None
    runs = (
        (pipeline.dir_graph, dataset.queries),
        (pipeline.opt_graph, pipeline.rewritten),
    )
    for graph, queries in runs:
        # build_pipeline froze it: the frozen CSR is its base.
        arrays = graph.freeze()
        graph.statistics()
        with connect(graph).session() as session:
            for query in queries.values():
                session.run(query).consume()
        assert graph.num_edges and graph.arrays() is arrays
        assert graph._base[0] is arrays._out, f"{graph.name}: base built"
        assert graph._base[1] is arrays._in, f"{graph.name}: base built"
