"""Every derived read of a graph against a brute-force pass over its
columns.

The graph keeps its facts once, in the id maps and the vertex / edge
columns; everything else is derived: the dict adjacency behind
per-element reads, the label lookups over the label-set tables and
the CSR arrays a freeze adds to the graph's ``GraphArrays``.  Each
random script (``tests/graphdb/randgraph.py``) is checked unfrozen,
frozen, inside a transaction of further steps and again after that
transaction rolls back:

* ``GraphSession.expand_pairs``, typed and untyped, in every
  direction: frozen, in ``freeze_oracle.py``'s CSR order; unfrozen, in
  the vertex's dict order, each type's pairs as the columns list them;
* ``edge_between``, ``has_edge_between`` and ``first_edge_between``:
  the smallest matching eid of a scan of ``_e_src`` / ``_e_dst`` /
  ``_e_label``;
* ``vertices_with_label``, ``label_count`` and ``labels``: a pass over
  ``_v_tid`` and ``labels_of``, with label sets that share a label;
* ``GraphStatistics.build``, every field: a pass over ``vertex_ids``,
  ``labels_of``, each vertex's property dict (``is_hashable`` decides
  histogram or unhashable) and every live eid of the edge columns.

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
from tests.graphdb.freeze_oracle import reference_freeze
from tests.graphdb.randgraph import EDGE_TYPES, SCRIPTS, run_script

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


def check_expand(graph: PropertyGraph, edges, frozen: bool) -> None:
    # (vid, direction) -> label -> the (eid, far) pairs, ascending eid.
    by_type: dict[tuple[int, str], dict[str, list]] = {}
    for eid, src, dst, label in edges:
        by_type.setdefault((src, "out"), {}).setdefault(label, []).append(
            (eid, dst)
        )
        by_type.setdefault((dst, "in"), {}).setdefault(label, []).append(
            (eid, src)
        )
    reference = reference_freeze(graph) if frozen else None
    sid = graph.symbols.sid
    session = GraphSession(graph)
    for vid in range(len(graph._v_tid)):
        if not frozen and graph._v_tid[vid] >= 0:
            for direction, adjacency in (("out", graph._out),
                                         ("in", graph._in)):
                assert set(adjacency[vid]) == set(
                    by_type.get((vid, direction), {})
                ), (vid, direction)
        for labels in EDGE_LABELS:
            for direction in DIRECTIONS:
                want = []
                for d in ("out", "in"):
                    if direction not in (d, "any"):
                        continue
                    pairs = by_type.get((vid, d), {})
                    if frozen:
                        csrs, segments = reference[d]
                        sids = [sid(label) for label in labels] or csrs
                        for type_sid in sids:
                            want.extend(
                                segments.get(type_sid, {}).get(vid, ())
                            )
                        continue
                    order = labels or (
                        (graph._out if d == "out" else graph._in).get(vid, ())
                    )
                    for label in order:
                        want.extend(pairs.get(label, ()))
                got = session.expand_pairs(vid, labels, direction)
                assert [tuple(p) for p in got] == [
                    tuple(p) for p in want
                ], (vid, labels, direction, frozen)


def check_probes(graph: PropertyGraph, edges) -> None:
    # (src, dst, label) -> smallest eid; label None: any label.
    first: dict[tuple[int, int, str | None], int] = {}
    near: dict[int, set[int]] = {}
    for eid, src, dst, label in edges:
        first.setdefault((src, dst, label), eid)
        first.setdefault((src, dst, None), eid)
        near.setdefault(src, set()).add(dst)
        near.setdefault(dst, set()).add(src)
    live = graph.vertex_ids()
    session = GraphSession(graph)
    for src in live:
        # Every endpoint src has an edge with, and a few it may not.
        for dst in sorted(near.get(src, set()).union(live[:3], (src,))):
            want = {}
            for label in (None, *EDGE_TYPES, "X"):
                out = first.get((src, dst, label))
                into = first.get((dst, src, label))
                for direction, eid in (
                    ("out", out), ("in", into),
                    ("any", into if out is None else out),
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
        for key, stat in stats.props.items()
    } == props


def check(graph: PropertyGraph, frozen: bool) -> None:
    edges = column_edges(graph)
    if frozen:
        graph.freeze()
        check_expand(graph, edges, frozen)
        check_statistics(graph, edges)
        return  # nothing else reads the CSR
    assert graph.arrays().type_rank is None  # not frozen
    check_expand(graph, edges, frozen)
    check_probes(graph, edges)
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


@seed(SEED)
@settings(max_examples=25, deadline=None, database=None)
@given(script=SCRIPTS, more=SCRIPTS)
@example(*PINNED)
@example(*LISTS)
def test_derived_reads_match_the_columns(script, more):
    graph = run_script(script, bulk=True)
    check(graph, frozen=False)
    check(graph, frozen=True)
    graph.begin_transaction()
    run_script(more, bulk=True, graph=graph)
    check(graph, frozen=False)
    graph.rollback_transaction()
    check(graph, frozen=False)
    check(graph, frozen=True)


def test_statistics_skip_a_tombstoned_row_that_keeps_its_values():
    """The build's tombstone guard: a row removed without clearing its
    presence bits (a partial unset) counts for nothing, its list value
    included.  The last vertex of ``LISTS`` has no edges."""
    graph = run_script(LISTS[0], bulk=True)
    vid = graph.vertex_ids()[-1]
    table = graph._tables[graph._v_tid[vid]]
    assert table.get_prop(graph._v_row[vid], graph.symbols.sid("x")) == ["a"]
    table.vids[graph._v_row[vid]] = -1
    table.live -= 1
    graph._v_tid[vid] = -1
    check_statistics(graph, column_edges(graph))
