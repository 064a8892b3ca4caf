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
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from tests.graphdb.freeze_oracle import reference_freeze
from tests.graphdb.randgraph import SCRIPTS, run_script


def assert_matches_reference(graph: PropertyGraph) -> None:
    arrays = graph.freeze()
    reference = reference_freeze(graph)
    # Every vid slot, the anchor ranges' outsides included.
    vids = np.arange(len(graph._v_tid), dtype=np.int64)
    for direction, csrs in (("out", arrays._out), ("in", arrays._in)):
        want_csrs, _ = reference[direction]
        assert list(csrs) == list(want_csrs)
        for sid, csr in csrs.items():
            for got in (csr.starts, csr.counts, csr.neighbors, csr.eids):
                assert got.dtype == np.int64
                assert not got.flags.writeable
            offsets, neighbors, eids = want_csrs[sid]
            offsets = np.frombuffer(offsets, dtype=np.int64)
            starts, counts = csr.span(vids)
            assert np.array_equal(starts, offsets[:-1])
            assert np.array_equal(counts, np.diff(offsets))
            assert csr.neighbors.tolist() == neighbors
            assert csr.eids.tolist() == eids
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
    for eid in [e.eid for e in graph.iter_edges()]:
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


def test_a_compile_reads_the_frozen_csr_not_a_copy():
    """The batch path reads the graph's arrays: the CSR a freeze builds
    is what a compile reads, not a copy."""
    graph = PropertyGraph()
    a, b = graph.add_vertex("N", {}), graph.add_vertex("N", {})
    graph.add_edges("T", [a, b], [b, a])
    arrays = graph.freeze()
    executor = Executor(GraphSession(graph))
    query = "MATCH (x:N)-[:T]->(y) RETURN y"
    assert [y.vid for y, in executor.run(query).rows] == [b, a]
    assert executor._prepare(query).compiled[0] is arrays
    csr, = arrays._out.values()
    starts, counts = csr.span(np.array([a, b]))
    assert starts.tolist() == [0, 1] and counts.tolist() == [1, 1]
    for column in (csr.starts, csr.counts, csr.neighbors, csr.eids):
        with pytest.raises(ValueError):
            column[0] = 1  # read-only: the CSR is immutable


# -- a graph whose edge types each anchor on their own block of vids ---
BLOCKS = 40
BLOCK = 100
#: Within a block, the offsets that anchor an out-edge: every other
#: vid, so each range has gaps, and the block's last vid.
OUT_OFFSETS = [*range(0, BLOCK, 2), BLOCK - 1]


@pytest.fixture(scope="module")
def blocked():
    """Type ``T<k>`` anchors on block k's vids only (plus type ``S``
    inside block 0); isolated vertices sit before, between and after
    the blocks, so vid 0 and the last slot have no edges."""
    graph = PropertyGraph()
    isolated = [graph.add_vertex("I", {}) for _ in range(3)]
    lows = []
    for _ in range(BLOCKS):
        lows.append(graph.add_vertex("N", {}))
        for _ in range(BLOCK - 1):
            graph.add_vertex("N", {})
        isolated += [graph.add_vertex("I", {}) for _ in range(2)]
    for k, lo in enumerate(lows):
        srcs = [lo + i for i in OUT_OFFSETS]
        dsts = [lo + (i * 37 + 11) % BLOCK for i in OUT_OFFSETS]
        # A parallel edge and a self-loop at the block's ends.
        last = lo + BLOCK - 1
        graph.add_edges(f"T{k}", srcs + [lo, last], dsts + [dsts[0], last])
    graph.add_edges("S", [lows[0] + 1, lows[0] + 3], [lows[0], lows[0] + 5])
    graph.freeze()
    return graph, isolated


def test_csr_bytes_are_bounded_by_anchor_ranges(blocked):
    graph, isolated = blocked
    assert isolated[0] == 0 and isolated[-1] == len(graph._v_tid) - 1
    arrays = graph.freeze()
    types = len(arrays.type_rank)
    # The dense layout: an int64 row of slots + 1 per type, twice.
    dense = types * (arrays.nslots + 1) * 8 * 2
    index, payload = arrays.csr_nbytes()
    assert index + payload < 0.1 * dense, (index, payload, dense)


@pytest.mark.parametrize("direction", ["out", "in", "any"])
def test_batch_expand_at_range_edges_matches_expand_pairs(blocked, direction):
    """Every vid is a source: vid 0, the last slot, each range's
    ``lo - 1``, ``lo``, ``hi``, ``hi + 1`` and the gaps inside it."""
    graph, _ = blocked
    arrow = {"out": ("-", "->"), "in": ("<-", "-"), "any": ("-", "-")}
    left, right = arrow[direction]
    # Typed in an order other than the type rank, then untyped.
    typed = ["S", *(f"T{k}" for k in reversed(range(BLOCKS)))]
    session = GraphSession(graph)
    for labels in (tuple(typed), ()):
        rel = f"[r:{'|'.join(labels)}]" if labels else "[r]"
        report = ExecutionReport()
        _, _, _, rows = Executor(GraphSession(graph)).stream(
            f"MATCH (x){left}{rel}{right}(y) RETURN x, r, y", {},
            report=report,
        )
        got = {}
        for x, r, y in rows:
            got.setdefault(x.vid, []).append((r.eid, y.vid))
        assert report.mode == "vectorized", report.fallback_reason
        for vid in graph.vertex_ids():
            want = session.expand_pairs(vid, labels, direction)
            assert got.get(vid, []) == [tuple(p) for p in want], vid
