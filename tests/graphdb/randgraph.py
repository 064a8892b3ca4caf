"""Random graph-building scripts shared by the bulk-ingest and freeze
tests.

A script is a list of steps over vertices, *batches* of vertices
(interleaved label sets, ragged property dicts), batches of same-label
edges and batches of one property's values, with removals in between
(tombstoned eids, removed tail vids, several edge types sharing
endpoints).  :func:`run_script` applies it either through per-element
``add_vertex`` / ``add_edge`` / ``set_property`` or through bulk
``add_vertices`` / ``add_edges`` / ``set_properties``; everything else
is identical, so the two graphs must be too.  Bulk mode passes every
other edge batch as two int64 numpy arrays, the form the loaders pass,
and the rest as lists.  A vertex batch goes in
as one ``add_vertices`` per run of rows with the same label argument,
its rows as property columns (:func:`vertex_runs`); the per-element
path adds the same rows, each dict in its run's column order.
"""

import numpy as np
from hypothesis import strategies as st

from repro.graphdb.columnar import ABSENT
from repro.graphdb.graph import PropertyGraph

LABELSETS = [("A",), ("B",), ("A", "B")]
EDGE_TYPES = ["T", "U", "W"]

#: Every spelling of a label set ``add_vertex`` accepts; several name
#: one table.
LABEL_ARGS = LABELSETS + [
    "A", ("B", "A"), frozenset({"A", "B"}), ["B"], ("C", "A"),
]
#: ``n`` is the int column every single-vertex step writes, so batches
#: land on typed columns that already have rows.
KEYS = ["n", "x", "y", "z"]
VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        [-(1 << 63), (1 << 63) - 1, -(1 << 63) - 1, 1 << 63, 1 << 64]
    ),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.text(max_size=2), max_size=2),
)
#: Mostly one type per key, so that columns also *stay* typed.
_typed_props = st.fixed_dictionaries(
    {}, optional={
        "n": st.integers(-3, 3), "x": st.floats(allow_nan=False),
        "y": st.text(max_size=2),
    },
)
_props = st.one_of(
    st.none(), _typed_props, st.dictionaries(st.sampled_from(KEYS), VALUES)
)

_index = st.integers(min_value=0, max_value=30)
_step = st.one_of(
    st.tuples(st.just("v"), st.sampled_from(LABELSETS)),
    st.tuples(
        st.just("vs"),
        st.lists(st.tuples(st.sampled_from(LABEL_ARGS), _props), max_size=6),
    ),
    st.tuples(
        st.just("e"),
        st.sampled_from(EDGE_TYPES),
        st.lists(st.tuples(_index, _index), max_size=8),
    ),
    st.tuples(
        st.just("p"),
        st.sampled_from(KEYS),
        st.lists(st.tuples(_index, VALUES), max_size=5),
    ),
    st.tuples(st.just("rm_e"), _index),
    st.tuples(st.just("rm_v"), _index),
)

#: A few vertices first, so that edge batches have endpoints.
SCRIPTS = st.tuples(
    st.lists(st.sampled_from(LABELSETS), min_size=2, max_size=5),
    st.lists(_step, max_size=25),
).map(lambda parts: [("v", labels) for labels in parts[0]] + parts[1])


def vertex_runs(rows) -> list[tuple[object, int, dict[str, list]]]:
    """A vertex batch's ``(labels, props)`` rows as ``(labels, count,
    property columns)``, one per run of rows with the same label
    argument; names in order of first appearance within the run."""
    runs: list[tuple[object, list[dict]]] = []
    for labels, props in rows:
        if not runs or runs[-1][0] != labels:
            runs.append((labels, []))
        runs[-1][1].append(props or {})
    return [
        (labels, len(dicts), {
            name: [props.get(name, ABSENT) for props in dicts]
            for name in dict.fromkeys(n for props in dicts for n in props)
        })
        for labels, dicts in runs
    ]


def run_script(
    script, bulk: bool, graph: PropertyGraph | None = None
) -> PropertyGraph:
    """Apply ``script`` to ``graph`` (a new one by default)."""
    if graph is None:
        graph = PropertyGraph("scripted")
    edge_batches = 0
    for step in script:
        kind = step[0]
        if kind == "v":
            graph.add_vertex(step[1], {"n": graph.num_vertices})
            continue
        if kind == "vs":
            for labels, count, columns in vertex_runs(step[1]):
                if bulk:
                    graph.add_vertices(labels, count, columns)
                    continue
                for row in range(count):
                    graph.add_vertex(labels, {
                        name: values[row]
                        for name, values in columns.items()
                        if values[row] is not ABSENT
                    })
            continue
        live = graph.vertex_ids()
        if kind == "e":
            if not live:
                continue
            srcs = [live[i % len(live)] for i, _j in step[2]]
            dsts = [live[j % len(live)] for _i, j in step[2]]
            if bulk:
                edge_batches += 1
                if edge_batches % 2:
                    srcs = np.array(srcs, dtype=np.int64)
                    dsts = np.array(dsts, dtype=np.int64)
                graph.add_edges(step[1], srcs, dsts)
            else:
                for src, dst in zip(srcs, dsts):
                    graph.add_edge(src, dst, step[1])
        elif kind == "p":
            if not live:
                continue
            values = {live[i % len(live)]: value for i, value in step[2]}
            if bulk:
                graph.set_properties(step[1], values)
            else:
                for vid, value in values.items():
                    graph.set_property(vid, step[1], value)
        elif kind == "rm_e":
            eids = [e.eid for e in graph.iter_edges()]
            if eids:
                graph.remove_edge(eids[step[1] % len(eids)])
        elif live:  # rm_v
            graph.remove_vertex(live[step[1] % len(live)])
    return graph


def adjacency_reads(graph: PropertyGraph) -> list:
    """Each live vertex's untyped out and in eids, in read order."""
    return [
        (vid, [e.eid for e in graph.out_edges(vid)],
         [e.eid for e in graph.in_edges(vid)])
        for vid in graph.vertex_ids()
    ]


def label_lists(graph: PropertyGraph) -> list:
    """Each label some live vertex carries, with its vertex list."""
    return [
        (label, graph.vertices_with_label(label)) for label in graph.labels()
    ]
