"""Every derived read of a graph against an oracle over its columns.

The graph keeps its facts once, in the id maps and the vertex / edge
columns; everything else is derived: the adjacency behind per-element
reads (a base CSR plus a tail of newer edges), the label lookups over
the label-set tables and the CSR arrays a freeze adds to the graph's
``GraphArrays``.  Each random script (``tests/graphdb/randgraph.py``)
is checked in every state the adjacency can be in: with no base when a
transaction starts and one built inside it, and after its rollback;
unfrozen with a base the first read built; frozen; frozen and then
mutated (base plus tail), inside a transaction, frozen again inside it
and after its rollback, which truncates eids that base covers; and
base plus tail outside a transaction.  In each:

* ``out_edges`` / ``in_edges`` typed and untyped, ``degree`` and
  ``remove_vertex``'s cascade: ``adjacency_oracle.py``'s dict
  adjacency, in value and in order;
* ``GraphSession.expand_pairs``, typed and untyped, in every
  direction: frozen, in ``freeze_oracle.py``'s CSR order; unfrozen, in
  the oracle's bucket order;
* ``edge_between``, ``has_edge_between`` and ``first_edge_between``:
  the smallest matching eid of the oracle's buckets;
* ``vertices_with_label``, ``label_count`` and ``labels``: a pass over
  ``_v_tid`` and ``labels_of``, with label sets that share a label;
* ``GraphStatistics.build``, every count: a pass over ``vertex_ids``,
  ``labels_of`` and every live eid of the edge columns; its equality
  estimates: ``stats_oracle.py``'s, whose histograms equal a pass over
  each vertex's property dict (``is_hashable`` decides bucket or
  unhashable).

``REPRO_DIFF_SEED`` seeds the draw, as for the differential query
fuzzer; CI runs one extra logged random seed per build.
"""

import os
from itertools import combinations

import pytest
from hypothesis import example, given, seed, settings

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import GraphStatistics, is_hashable
from tests.graphdb.adjacency_oracle import (
    first_to,
    reference_adjacency,
    untyped,
)
from tests.graphdb.freeze_oracle import reference_freeze
from tests.graphdb.randgraph import EDGE_TYPES, SCRIPTS, run_script
from tests.graphdb.stats_oracle import (
    assert_estimates_match,
    reference_histograms,
)

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))
#: Typed label tuples (one never interned) and the untyped ``()``.
EDGE_LABELS = [(), ("T",), ("U", "T"), ("W", "X")]
DIRECTIONS = ("out", "in", "any")
#: Every label a script can use, and one it never does.
VERTEX_LABELS = ("A", "B", "C", "X")


def column_edges(graph: PropertyGraph) -> list[tuple[int, int, int, str]]:
    """``(eid, src, dst, label)`` of every live edge, ascending eid."""
    name = graph.symbols.name
    return [
        (eid, src, dst, name(sid))
        for eid, (sid, src, dst) in enumerate(
            zip(graph._e_label, graph._e_src, graph._e_dst)
        )
        if sid >= 0
    ]


def check_reads(graph: PropertyGraph, adjacency) -> None:
    """``out_edges`` / ``in_edges`` typed and untyped, ``degree`` and
    ``remove_vertex``'s cascade, per vid slot and one past them."""
    slots = range(len(graph._v_tid) + 1)
    had_base = graph._base is not None
    # The cascade first: without a base it is a pass over the columns,
    # which must not build one (a mutation builds none).
    cascades = [graph._incident(vid) for vid in slots]
    assert (graph._base is not None) == had_base
    for vid, cascade in zip(slots, cascades):
        sides = [by_vid.get(vid, {}) for by_vid in adjacency]
        want = untyped(sides[0]) + untyped(sides[1])
        assert cascade == want, vid
        for read, by_label in zip((graph.out_edges, graph.in_edges), sides):
            assert [e.eid for e in read(vid)] == untyped(by_label), vid
            for label in (*EDGE_TYPES, "X"):
                assert [e.eid for e in read(vid, label)] == list(
                    by_label.get(label, ())
                ), (vid, label)
        assert graph.degree(vid) == sum(
            len(bucket) for side in sides for bucket in side.values()
        ), vid
        assert graph._incident(vid) == want, vid


def check_expand(graph: PropertyGraph, adjacency, frozen: bool) -> None:
    reference = reference_freeze(graph) if frozen else None
    sid = graph.symbols.sid
    session = GraphSession(graph)
    for vid in range(len(graph._v_tid)):
        for labels in EDGE_LABELS:
            for direction in DIRECTIONS:
                want = []
                for d, by_vid in zip(("out", "in"), adjacency):
                    if direction not in (d, "any"):
                        continue
                    if frozen:
                        csrs, segments = reference[d]
                        sids = [sid(label) for label in labels] or csrs
                        for type_sid in sids:
                            want.extend(
                                segments.get(type_sid, {}).get(vid, ())
                            )
                        continue
                    by_label = by_vid.get(vid, {})
                    for label in labels or by_label:
                        want.extend(by_label.get(label, {}).items())
                got = session.expand_pairs(vid, labels, direction)
                assert [tuple(p) for p in got] == [
                    tuple(p) for p in want
                ], (vid, labels, direction, frozen)


def check_probes(graph: PropertyGraph, adjacency) -> None:
    out, into = adjacency
    session = GraphSession(graph)
    live = graph.vertex_ids()
    for src in live:
        # Every endpoint src has an edge with, and a few it may not.
        near = {
            far for side in (out, into)
            for bucket in side[src].values() for far in bucket.values()
        }
        for dst in sorted(near.union(live[:3], (src,))):
            want = {}
            for label in (None, *EDGE_TYPES, "X"):
                forward = first_to(out[src], dst, label)
                backward = first_to(into[src], dst, label)
                for direction, eid in (
                    ("out", forward), ("in", backward),
                    ("any", backward if forward is None else forward),
                ):
                    want[label, direction] = eid
                    assert graph.first_edge_between(
                        src, dst, label, direction
                    ) == eid, (src, dst, label, direction)
                    assert graph.has_edge_between(
                        src, dst, label, direction
                    ) == (eid is not None)
            for labels in EDGE_LABELS:
                for direction in DIRECTIONS:
                    eids = [want[label, direction]
                            for label in labels or (None,)]
                    assert session.edge_between(
                        src, dst, labels, direction
                    ) == next((e for e in eids if e is not None), None)


def check_labels(graph: PropertyGraph) -> None:
    live = [vid for vid, tid in enumerate(graph._v_tid) if tid >= 0]
    for label in VERTEX_LABELS:
        want = [vid for vid in live if label in graph.labels_of(vid)]
        assert graph.vertices_with_label(label) == want, label
        assert graph.label_count(label) == len(want), label
    assert graph.labels() == sorted(
        {label for vid in live for label in graph.labels_of(vid)}
    )


def check_statistics(graph: PropertyGraph, edges) -> None:
    def bump(counts: dict, key) -> None:
        counts[key] = counts.get(key, 0) + 1

    want = {name: {} for name in (
        "label_counts", "edge_label_counts", "_src", "_dst", "_triples",
        "_src_total", "_dst_total", "_label_pairs",
    )}
    props: dict = {}  # (label, name) -> [count, unhashable, hist]
    vertices = graph.vertex_ids()
    for vid in vertices:
        labels = graph.labels_of(vid)
        for label in labels:
            bump(want["label_counts"], label)
        for pair in combinations(sorted(labels), 2):
            bump(want["_label_pairs"], pair)
        for name, value in graph.vertex(vid).properties.items():
            if value is None:
                continue
            for label in labels:
                stat = props.setdefault((label, name), [0, 0, {}])
                stat[0] += 1
                if is_hashable(value):
                    bump(stat[2], value)
                else:
                    stat[1] += 1
    for _eid, src, dst, label in edges:
        bump(want["edge_label_counts"], label)
        for near in graph.labels_of(src):
            bump(want["_src"], (label, near))
            bump(want["_src_total"], near)
            for far in graph.labels_of(dst):
                bump(want["_triples"], (label, near, far))
        for near in graph.labels_of(dst):
            bump(want["_dst"], (label, near))
            bump(want["_dst_total"], near)
    stats = GraphStatistics.build(graph)
    assert (stats.num_vertices, stats.num_edges) == (
        len(vertices), len(edges)
    )
    for name, counts in want.items():
        assert getattr(stats, name) == counts, name
    assert {
        key: [stat.count, stat.unhashable, stat.hist]
        for key, stat in reference_histograms(graph).items()
    } == props
    assert_estimates_match(stats, graph)


def check(graph: PropertyGraph, frozen: bool) -> None:
    """Every per-element read against the adjacency oracle, expand
    frozen against the CSR oracle, and the label and statistics reads
    against the columns."""
    edges = column_edges(graph)
    adjacency = reference_adjacency(graph)
    if frozen:
        graph.freeze()
    else:
        assert graph.arrays().type_rank is None  # not frozen
    check_reads(graph, adjacency)
    check_expand(graph, adjacency, frozen)
    check_probes(graph, adjacency)
    check_labels(graph)
    check_statistics(graph, edges)


#: Pinned: vertex 0 meets U before T but the graph meets T first, so
#: its untyped frozen order is not its dict order; label B lives in
#: one table, whose row order the rolled-back removal must keep.
PINNED = (
    [("v", ("B",))] * 3 + [
        ("e", "T", [(1, 2)]), ("e", "U", [(0, 1)]), ("e", "T", [(0, 2)]),
    ],
    [("v", ("B",)), ("v", ("B",)), ("rm_v", 0)],
)
#: Pinned: a list-valued object column on a table with a tombstoned
#: row: the lists count as unhashable, the removed row not at all.
LISTS = (
    [("v", ("A",))] * 2 + [
        ("vs", [(("A",), {"x": ["a"]}), (("A",), {"x": "b"}),
                (("A",), {"x": ["a"]})]),
        ("rm_v", 2), ("e", "T", [(0, 2), (2, 1)]),
    ],
    [("rm_v", 0)],
)


#: Pinned: vertex 0's out types interleave (T, U, T), so its untyped
#: read, T's eids then U's, is not in eid order.
INTERLEAVED = (
    [("v", ("A",))] * 2
    + [("e", label, [(0, 1)]) for label in ("T", "U", "T")],
    [("rm_e", 1), ("e", "U", [(0, 1)])],
)


@seed(SEED)
@settings(max_examples=25, deadline=None, database=None)
@given(script=SCRIPTS, more=SCRIPTS)
@example(*PINNED)
@example(*LISTS)
@example(*INTERLEAVED)
def test_derived_reads_match_the_columns(script, more):
    graph = run_script(script, bulk=True)
    # No base at the transaction's start: the first read builds one
    # after its removals, so the rollback, which restores edges that
    # base lacks, must not keep it.
    graph.begin_transaction()
    run_script(more, bulk=True, graph=graph)
    check(graph, frozen=False)
    graph.rollback_transaction()
    check(graph, frozen=False)
    check(graph, frozen=True)
    # The frozen CSR as base plus a tail, inside a transaction: the
    # rollback prunes the tail and clears the base's tombstones.
    graph.begin_transaction()
    run_script(more, bulk=True, graph=graph)
    check(graph, frozen=False)
    graph.rollback_transaction()
    check(graph, frozen=False)
    # Frozen inside a transaction: its rollback truncates eids that
    # base covers.
    graph.begin_transaction()
    run_script(more, bulk=True, graph=graph)
    check(graph, frozen=True)
    graph.rollback_transaction()
    check(graph, frozen=False)
    # Base plus tail outside a transaction: bulk appends go to the tail.
    run_script(more, bulk=True, graph=graph)
    check(graph, frozen=False)
    check(graph, frozen=True)


def test_statistics_skip_a_tombstoned_row_that_keeps_its_values():
    """The tombstone guards of the build and of the column projection
    the estimates read: a row removed without clearing its presence
    bits (a partial unset) counts for nothing, its list value included.
    The last vertex of ``LISTS`` has no edges."""
    graph = run_script(LISTS[0], bulk=True)
    vid = graph.vertex_ids()[-1]
    table = graph._tables[graph._v_tid[vid]]
    assert table.get_prop(graph._v_row[vid], graph.symbols.sid("x")) == ["a"]
    table.vids[graph._v_row[vid]] = -1
    table.live -= 1
    graph._v_tid[vid] = -1
    check_statistics(graph, column_edges(graph))
