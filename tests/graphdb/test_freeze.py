"""The array-based freeze against the pure-Python reference build.

Freeze builds the CSR arrays and their type order only; the tuple
path reads the dict adjacency, frozen or not.  Untyped batch expansion
iterates the per-direction type dicts and the differential harness
pins row order, so equality here includes the key order of every
dict, not only the contents.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.session import GraphSession
from tests.graphdb.freeze_oracle import reference_freeze
from tests.graphdb.randgraph import SCRIPTS, run_script


def assert_matches_reference(graph: PropertyGraph) -> None:
    view = graph.freeze()
    reference = reference_freeze(graph)
    for direction in ("out", "in"):
        want_csrs, _ = reference[direction]
        csrs = dict(view.iter_csr(direction))
        assert list(csrs) == list(want_csrs)
        for sid, triple in csrs.items():
            for got, want in zip(triple, want_csrs[sid]):
                assert got.dtype == np.int64
                assert got.tolist() == list(want)
    name = graph.symbols.name
    assert view.type_rank == {
        name(sid): rank for rank, sid in enumerate(reference["out"][0])
    }
    assert view.edge_types() == sorted(reference["out"][0])


@settings(max_examples=60, deadline=None)
@given(SCRIPTS)
def test_random_graphs_match_reference(script):
    assert_matches_reference(run_script(script, bulk=True))


def test_empty_graph():
    graph = PropertyGraph()
    assert_matches_reference(graph)
    view = graph.freeze()
    assert view.edge_types() == []
    assert GraphSession(graph).expand_pairs(0, (), "any") == []


def test_vertices_without_edges():
    graph = PropertyGraph()
    graph.add_vertex("A", {})
    graph.add_vertex("B", {})
    assert_matches_reference(graph)
    assert list(graph.freeze().iter_csr("out")) == []


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
    assert graph.frozen_view is None
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
    assert [s for s, _ in graph.freeze().iter_csr("out")] == [
        sid("U"), sid("T")
    ]


def test_all_edges_removed_and_tail_vertices_gone():
    graph = PropertyGraph()
    vids = [graph.add_vertex("N", {}) for _ in range(4)]
    graph.add_edges("T", vids[:-1], vids[1:])
    graph.remove_vertex(vids[-1])
    graph.remove_vertex(vids[-2])
    for eid in list(graph._edges):
        graph.remove_edge(eid)
    assert_matches_reference(graph)
    assert graph.freeze().edge_types() == []


def test_view_is_cached_until_the_epoch_moves():
    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    graph.add_edge(a, b, "T")
    view = graph.freeze()
    assert view.valid and graph.freeze() is view
    graph.add_edges("T", [b], [a])
    assert not view.valid and graph.frozen_view is None
    rebuilt = graph.freeze()
    assert rebuilt is not view and rebuilt.valid
    assert GraphSession(graph).expand_pairs(b, (), "out") == [(1, a)]
    assert_matches_reference(graph)


def test_csr_arrays_are_adopted_by_the_vectorized_cache():
    from repro.graphdb.query.vectorized import graph_arrays

    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    graph.add_edges("T", [a, b], [b, a])
    view = graph.freeze()
    arrays, order = graph_arrays(graph).csr("out")
    assert order == [sid for sid, _ in view.iter_csr("out")]
    for sid, triple in view.iter_csr("out"):
        assert all(x is y for x, y in zip(arrays[sid], triple))
    with pytest.raises(ValueError):
        triple[0][0] = 1  # read-only: the view is immutable
