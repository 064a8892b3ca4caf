"""The array-based freeze against the pure-Python reference build.

Freeze builds the CSR arrays only; the (eid, neighbor) segments the
tuple path reads are cut from them on the first expand that asks.
Untyped expansion iterates the per-direction type dicts and the
differential harness pins row order, so equality here includes the
key order of every dict, not only the contents.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphdb import view as view_module
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.session import GraphSession
from tests.graphdb.freeze_oracle import reference_freeze
from tests.graphdb.randgraph import SCRIPTS, ordered, run_script


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
    # One untyped expand cuts every type of the directions it reads,
    # in the view's rank order.
    view.expand_pairs(0, None, "any")
    for direction, segments in (
        ("out", view._out_segments), ("in", view._in_segments)
    ):
        assert ordered(segments) == ordered(reference[direction][1])
        for per_vid in segments.values():
            for vid, pairs in per_vid.items():
                # Ids reach query rows: plain ints, never numpy scalars.
                assert type(vid) is int
                assert all(
                    type(eid) is int and type(far) is int
                    for eid, far in pairs
                )
    assert view.edge_types() == sorted(reference["out"][0])


@settings(max_examples=60, deadline=None)
@given(SCRIPTS)
def test_random_graphs_match_reference(script):
    assert_matches_reference(run_script(script, bulk=True))


@settings(max_examples=40, deadline=None)
@given(SCRIPTS)
def test_typed_expands_cut_the_same_segments_one_type_at_a_time(script):
    graph = run_script(script, bulk=True)
    view = graph.freeze()
    assert view._out_segments == {} and view._in_segments == {}
    reference = reference_freeze(graph)
    # Last-ranked type first: a typed build may fill the segment dicts
    # in any key order without moving what an untyped expand returns.
    for sid in reversed(list(reference["out"][0])):
        view.expand_pairs(0, (sid,), "out")
        assert ordered(view._out_segments[sid]) == ordered(
            reference["out"][1][sid]
        )
    assert view._in_segments == {}
    for vid in range(view.num_vid_slots):
        assert view.expand_pairs(vid, None, "out") == [
            pair
            for per_vid in reference["out"][1].values()
            for pair in per_vid.get(vid, ())
        ]


def test_empty_graph():
    graph = PropertyGraph()
    assert_matches_reference(graph)
    view = graph.freeze()
    assert view.edge_types() == []
    assert view.expand_pairs(0, None, "any") == []


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
    view = graph.freeze()
    assert view.expand_pairs(a, None, "out") == [(1, b), (2, b), (4, c)]
    assert view.expand_pairs(b, None, "in") == [(1, a), (2, a), (3, b)]


def three_typed_vertices():
    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    for label in ("T", "U", "V", "T"):
        graph.add_edge(a, b, label)
    return graph, a, b


def test_typed_expand_builds_only_the_asked_types():
    graph, a, b = three_typed_vertices()
    view = graph.freeze()
    sid = graph.symbols.sid
    assert view._out_segments == {} and view._in_segments == {}
    assert view.expand_pairs(a, (sid("U"),), "out") == [(1, b)]
    assert list(view._out_segments) == [sid("U")]
    assert view._in_segments == {}
    # A type the view lacks, or a label never interned, builds nothing.
    assert view.expand_pairs(a, (sid("N"), None), "any") == []
    assert list(view._out_segments) == [sid("U")]
    assert view._in_segments == {}
    assert view.expand_pairs(b, (sid("V"), sid("T")), "in") == [
        (2, a), (0, a), (3, a)
    ]
    assert list(view._in_segments) == [sid("V"), sid("T")]
    # Untyped: the rest, and the pairs come in rank order whatever
    # order the segment dict was filled in.
    assert view.expand_pairs(a, None, "out") == [
        (0, b), (3, b), (1, b), (2, b)
    ]
    assert set(view._out_segments) == {sid("T"), sid("U"), sid("V")}


def test_two_expands_build_once(monkeypatch):
    graph, a, b = three_typed_vertices()
    session = GraphSession(graph)
    view = graph.freeze()
    cuts = []
    cut = view_module._cut_segments
    monkeypatch.setattr(
        view_module, "_cut_segments",
        lambda csr: cuts.append(csr) or cut(csr),
    )
    first = session.expand_pairs(a, ("T",), "out")
    built = view._out_segments[graph.symbols.sid("T")]
    assert session.expand_pairs(a, ("T",), "out") == first == [(0, b), (3, b)]
    assert session.expand_pairs(b, ("T",), "out") == []
    assert view._out_segments[graph.symbols.sid("T")] is built
    assert len(cuts) == 1
    session.expand_pairs(a, (), "any")
    session.expand_pairs(b, (), "any")
    assert len(cuts) == 6  # three types x two directions, once each
    assert view._out_segments[graph.symbols.sid("T")] is built
    assert session.metrics.edge_traversals == 2 + 2 + 0 + 4 + 4


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
    assert rebuilt.expand_pairs(b, None, "out") == [(1, a)]
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
