"""The array-based freeze against the pure-Python reference build.

Freeze adds the CSR arrays and their type order to the graph's
``GraphArrays``, nothing else; the tuple path reads the dict
adjacency, frozen or not.  Untyped batch expansion iterates the
per-direction type dicts and the differential harness pins row order,
so equality here includes the key order of every dict, not only the
contents.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from tests.graphdb.freeze_oracle import reference_freeze
from tests.graphdb.randgraph import SCRIPTS, run_script


def assert_matches_reference(graph: PropertyGraph) -> None:
    arrays = graph.freeze()
    reference = reference_freeze(graph)
    for direction, csrs in (("out", arrays._out), ("in", arrays._in)):
        want_csrs, _ = reference[direction]
        assert list(csrs) == list(want_csrs)
        for sid, triple in csrs.items():
            for got, want in zip(triple, want_csrs[sid]):
                assert got.dtype == np.int64
                assert not got.flags.writeable
                assert got.tolist() == list(want)
    name = graph.symbols.name
    assert arrays.type_rank == {
        name(sid): rank for rank, sid in enumerate(reference["out"][0])
    }


@settings(max_examples=60, deadline=None)
@given(SCRIPTS)
def test_random_graphs_match_reference(script):
    assert_matches_reference(run_script(script, bulk=True))


def test_empty_graph():
    graph = PropertyGraph()
    assert_matches_reference(graph)
    assert graph.freeze()._out == {}
    assert GraphSession(graph).expand_pairs(0, (), "any") == []


def test_vertices_without_edges():
    graph = PropertyGraph()
    graph.add_vertex("A", {})
    graph.add_vertex("B", {})
    assert_matches_reference(graph)
    assert graph.freeze()._out == {}


def test_single_type_with_parallel_edges_and_self_loop():
    graph = PropertyGraph()
    a, b, c = (graph.add_vertex("N", {}) for _ in range(3))
    graph.add_edges("T", [c, a, a, b, a], [a, b, b, b, c])
    assert_matches_reference(graph)
    session = GraphSession(graph)
    assert session.expand_pairs(a, (), "out") == [(1, b), (2, b), (4, c)]
    assert session.expand_pairs(b, (), "in") == [(1, a), (2, a), (3, b)]


def test_untyped_type_order_is_global_when_frozen():
    """What is true today, pinned for the equivalence fuzzer: typed
    expansion is identical frozen and unfrozen; untyped expansion
    orders edge types by first live eid graph-wide when frozen and by
    the first edge *at that vertex* when not."""
    graph = PropertyGraph()
    a, b, c = (graph.add_vertex("N", {}) for _ in range(3))
    graph.add_edge(b, c, "A")
    graph.add_edge(a, b, "B")
    graph.add_edge(a, c, "A")
    calls = [((), "out"), (("A",), "out"), (("B",), "out"),
             (("A", "B"), "out"), (("B", "A"), "any")]
    unfrozen = [
        GraphSession(graph).expand_pairs(a, labels, direction)
        for labels, direction in calls
    ]
    assert graph.arrays().type_rank is None  # not frozen
    graph.freeze()
    frozen = [
        GraphSession(graph).expand_pairs(a, labels, direction)
        for labels, direction in calls
    ]
    assert frozen[1:] == unfrozen[1:]
    assert unfrozen[0] == [(1, b), (2, c)]  # a met B first ...
    assert frozen[0] == [(2, c), (1, b)]    # ... the graph met A first


def test_type_order_is_first_live_eid_not_sid_order():
    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    first = graph.add_edge(a, b, "T")  # interned first ...
    graph.add_edge(a, b, "U")
    graph.add_edge(a, b, "T")
    graph.remove_edge(first)           # ... but U now has the lowest eid
    assert_matches_reference(graph)
    sid = graph.symbols.sid
    assert list(graph.freeze()._out) == [sid("U"), sid("T")]


def test_all_edges_removed_and_tail_vertices_gone():
    graph = PropertyGraph()
    vids = [graph.add_vertex("N", {}) for _ in range(4)]
    graph.add_edges("T", vids[:-1], vids[1:])
    graph.remove_vertex(vids[-1])
    graph.remove_vertex(vids[-2])
    for eid in list(graph._edges):
        graph.remove_edge(eid)
    assert_matches_reference(graph)
    assert graph.freeze()._out == {}


def test_view_is_cached_until_the_epoch_moves():
    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    graph.add_edge(a, b, "T")
    arrays = graph.freeze()
    assert graph.freeze() is arrays and graph.arrays() is arrays
    graph.add_edges("T", [b], [a])
    assert graph._arrays is None
    rebuilt = graph.freeze()
    assert rebuilt is not arrays and rebuilt is graph.arrays()
    assert GraphSession(graph).expand_pairs(b, (), "out") == [(1, a)]
    assert_matches_reference(graph)


def test_csr_arrays_are_adopted_by_the_vectorized_cache():
    """The batch path's cache is the graph's arrays: the CSR a freeze
    builds is what a compile reads, not a copy."""
    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    graph.add_edges("T", [a, b], [b, a])
    arrays = graph.freeze()
    executor = Executor(GraphSession(graph))
    query = "MATCH (x:N)-[:T]->(y) RETURN y"
    assert [y.vid for y, in executor.run(query).rows] == [b, a]
    assert executor._prepare(query).compiled[0] is arrays
    (offsets, _neighbors, _eids), = arrays._out.values()
    with pytest.raises(ValueError):
        offsets[0] = 1  # read-only: the CSR is immutable
