"""Property-based churn parity: column store vs a naive dict oracle.

Random interleavings of vertex/edge adds and removals and property
churn are applied simultaneously to a :class:`PropertyGraph` and to a
plain dict-of-dicts oracle.  After the churn, query results (label
scans, folded equality scans, typed expansion patterns) must be
multiset-identical to what the oracle computes by brute force - both
through the mutable adjacency path and again after ``freeze()``
through the CSR view.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession

LABELSETS = [("A",), ("B",), ("A", "B"), ("C",)]
EDGE_TYPES = ["T", "U"]

_op = st.one_of(
    st.tuples(
        st.just("add_v"),
        st.sampled_from(LABELSETS),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["s0", "s1", "s2", None]),
    ),
    st.tuples(
        st.just("add_e"),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.sampled_from(EDGE_TYPES),
    ),
    st.tuples(st.just("rm_v"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("rm_e"), st.integers(min_value=0, max_value=40)),
    st.tuples(
        st.just("set_p"),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(st.just("rm_p"), st.integers(min_value=0, max_value=40)),
)


class Oracle:
    """The naive model: plain dicts, brute-force queries."""

    def __init__(self):
        self.vertices: dict[int, tuple[frozenset, dict]] = {}
        self.edges: dict[int, tuple[int, int, str]] = {}

    def label_values(self, label: str, prop: str) -> Counter:
        return Counter(
            repr(props.get(prop))
            for labels, props in self.vertices.values()
            if label in labels
        )

    def eq_count(self, label: str, prop: str, value: object) -> int:
        return sum(
            1
            for labels, props in self.vertices.values()
            if label in labels and props.get(prop) == value
        )

    def expand_rows(self, label: str, edge_type: str) -> Counter:
        return Counter(
            (
                repr(self.vertices[src][1].get("p")),
                repr(self.vertices[dst][1].get("p")),
            )
            for src, dst, etype in self.edges.values()
            if etype == edge_type and label in self.vertices[src][0]
        )


def _apply(ops, graph: PropertyGraph, oracle: Oracle) -> None:
    for op in ops:
        kind = op[0]
        if kind == "add_v":
            _, labels, p, s = op
            props: dict = {"p": p}
            if s is not None:
                props["s"] = s
            vid = graph.add_vertex(labels, props)
            oracle.vertices[vid] = (frozenset(labels), dict(props))
        elif kind == "add_e":
            _, i, j, etype = op
            live = sorted(oracle.vertices)
            if not live:
                continue
            src = live[i % len(live)]
            dst = live[j % len(live)]
            eid = graph.add_edge(src, dst, etype)
            oracle.edges[eid] = (src, dst, etype)
        elif kind == "rm_v":
            live = sorted(oracle.vertices)
            if not live:
                continue
            vid = live[op[1] % len(live)]
            graph.remove_vertex(vid)
            del oracle.vertices[vid]
            oracle.edges = {
                eid: e for eid, e in oracle.edges.items()
                if vid not in (e[0], e[1])
            }
        elif kind == "rm_e":
            live = sorted(oracle.edges)
            if not live:
                continue
            eid = live[op[1] % len(live)]
            graph.remove_edge(eid)
            del oracle.edges[eid]
        elif kind == "set_p":
            live = sorted(oracle.vertices)
            if not live:
                continue
            vid = live[op[1] % len(live)]
            graph.set_property(vid, "p", op[2])
            oracle.vertices[vid][1]["p"] = op[2]
        elif kind == "rm_p":
            live = sorted(oracle.vertices)
            if not live:
                continue
            vid = live[op[1] % len(live)]
            graph.remove_property(vid, "p")
            oracle.vertices[vid][1].pop("p", None)


def _check(graph: PropertyGraph, oracle: Oracle) -> None:
    executor = Executor(GraphSession(graph, NEO4J_LIKE))
    for label in ("A", "B", "C"):
        rows = executor.run(f"MATCH (x:{label}) RETURN x.p").rows
        assert Counter(repr(r[0]) for r in rows) == oracle.label_values(
            label, "p"
        ), label
        for value in (0, 2):
            got = executor.run(
                f"MATCH (x:{label}) WHERE x.p = {value} RETURN count(*)"
            ).single_value()
            assert got == oracle.eq_count(label, "p", value)
        got = executor.run(
            f"MATCH (x:{label}) WHERE x.s = 's1' RETURN count(*)"
        ).single_value()
        assert got == oracle.eq_count(label, "s", "s1")
    for edge_type in EDGE_TYPES:
        rows = executor.run(
            f"MATCH (a:A)-[:{edge_type}]->(b) RETURN a.p, b.p"
        ).rows
        got = Counter((repr(r[0]), repr(r[1])) for r in rows)
        assert got == oracle.expand_rows("A", edge_type), edge_type
    # Direct API parity.
    for label in ("A", "B", "C"):
        expected = sorted(
            vid for vid, (labels, _) in oracle.vertices.items()
            if label in labels
        )
        assert sorted(graph.vertices_with_label(label)) == expected
    assert graph.num_vertices == len(oracle.vertices)
    assert graph.num_edges == len(oracle.edges)


@settings(max_examples=40, deadline=None)
@given(st.lists(_op, min_size=1, max_size=40))
def test_churn_matches_oracle(ops):
    graph = PropertyGraph("churn")
    oracle = Oracle()
    _apply(ops, graph, oracle)
    # Mutable-adjacency path first, then the frozen CSR path: results
    # must agree with the oracle (and therefore with each other).
    _check(graph, oracle)
    graph.freeze()
    assert graph.arrays().type_rank is not None
    _check(graph, oracle)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(_op, min_size=1, max_size=25),
    st.lists(_op, min_size=1, max_size=25),
)
def test_churn_across_freeze_boundary(before, after):
    # Mutations after a freeze invalidate the view; queries must keep
    # agreeing with the oracle through the fallback dict path.
    graph = PropertyGraph("churn")
    oracle = Oracle()
    _apply(before, graph, oracle)
    arrays = graph.freeze()
    epoch = graph.mutation_epoch
    _apply(after, graph, oracle)
    if graph.mutation_epoch != epoch:  # some ops are no-ops
        assert graph.arrays() is not arrays
    _check(graph, oracle)
