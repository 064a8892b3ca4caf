"""EXPLAIN = run: one gate decides the execution path, two surfaces
show it.

``Executor.explain`` takes its ``mode=... [reason=...]`` line from the
compile a run makes (``Executor._batch_pipeline``) and drops the
pipeline, so the line cannot drift from what runs.  This module holds
that *by generator*: the differential corpus of
``tests/graphdb/test_differential.py`` (same seed, ``REPRO_DIFF_SEED``
overrides it; CI adds one randomized, logged seed per build) on the
frozen and the unfrozen graph - and pins the two places where the
surfaces legitimately differ in what they know: parameters EXPLAIN
was not given, and what may be remembered with a cached plan.
"""

import random

import pytest

from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query import vectorized
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from tests.graphdb.diffquery import (
    QueryGen,
    build_differential_graph,
    mode_line,
    run_path,
)
from tests.graphdb.test_differential import CORPUS_SIZE, SEED

pytestmark = pytest.mark.diff_seed


def run_line(graph, text, params=()):
    """Run to the last row; the mode line that execution reports."""
    return mode_line(run_path(graph, text, params, vectorize=True)[3])


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
def test_explain_reports_the_mode_the_run_takes(diff_graph, frozen):
    graph = diff_graph if frozen else build_differential_graph(freeze=False)
    gen = QueryGen(random.Random(SEED))
    seen = set()
    for i in range(CORPUS_SIZE):
        text, params = gen.query()
        context = f"seed={SEED} query #{i}: {text!r} {params!r}"
        session = GraphSession(graph, NEO4J_LIKE)
        explained = Executor(session).explain(text, parameters=params)
        # Compiling charged nothing: EXPLAIN is free on every counter.
        assert not any(session.metrics.as_dict().values()), context
        line = run_line(graph, text, params)
        assert explained.splitlines()[-1] == line, context
        seen.add(line)
    # Both verdicts and several reasons, or the loop compared little.
    assert "mode=vectorized" in seen, seen
    assert len(seen) >= 4, seen
    assert ("mode=tuple reason=no-frozen-view" in seen) is not frozen


@pytest.fixture()
def strings():
    graph = PropertyGraph("strings")
    for value in "abca":
        graph.add_vertex("L", {"s": value, "t": [value]})
    return graph


@pytest.mark.parametrize(
    "pattern, refused, reason",
    [
        ("(n:L {t: $n})", ("a",), "unhashable-value"),
        ("(n:L) WHERE n.s < $n", "a", "object-column"),
    ],
    ids=["node-map code (_eq_code)", "kernel guard (_rank_codes)"],
)
def test_a_parameter_explain_was_not_given_refuses_nothing(
    strings, pattern, refused, reason
):
    """Unknown value, optimistic line: what a run with an acceptable
    value reports.  Given the value, EXPLAIN is exact.  A tuple
    against a list column has no code of its own, and strings are
    ordered on the tuple path only."""
    text = f"MATCH {pattern} RETURN count(*) AS c"
    executor = Executor(GraphSession(strings, NEO4J_LIKE))
    assert executor.explain(text).endswith("mode=vectorized")
    for params, line in (
        ({"n": refused}, f"mode=tuple reason={reason}"),
        ({"n": None}, "mode=vectorized"),  # null matches nothing
    ):
        assert executor.explain(text, parameters=params).endswith(line)
        assert run_line(strings, text, params) == line, params


def test_only_a_refusal_of_the_query_and_plan_is_remembered(monkeypatch):
    graph = PropertyGraph("memo")
    a = graph.add_vertex("P", {"x": 1})
    graph.add_edge(a, graph.add_vertex("Q", {"y": 2}), "r")
    executor = Executor(GraphSession(graph, NEO4J_LIKE))
    hop = "MATCH (a:P)-[:r]->(b:Q) RETURN b.y"
    limited = "MATCH (a:P) RETURN a.x LIMIT 1"

    # The view's absence is a fact about the graph, not the plan: the
    # same cached plan runs tuple now and vectorized once frozen.
    entry = executor._prepare(hop)
    assert run_line(graph, hop) == "mode=tuple reason=no-frozen-view"
    assert entry.refusal is None
    graph.freeze()
    assert executor._prepare(hop) is entry
    assert run_line(graph, hop) == "mode=vectorized"

    # LIMIT is a fact about the query: found out once, then kept with
    # the plan - later executions (and EXPLAIN) do not compile at all.
    entry = executor._prepare(limited)
    assert run_line(graph, limited) == "mode=tuple reason=limit"
    assert entry.refusal == "limit"
    monkeypatch.delattr(vectorized, "build_pipeline")
    assert run_line(graph, limited) == "mode=tuple reason=limit"
    assert executor.explain(limited).endswith("mode=tuple reason=limit")
