"""A compiled batch pipeline is kept with its plan-cache entry and run
again: reuse must be invisible.

``Executor._batch_pipeline`` keeps the last compiled
:class:`~repro.graphdb.query.vectorized.Pipeline` on the cached
``_Prepared``, keyed by the graph's ``GraphArrays`` and the values of
the parameters the query uses.  The reference for every check here is
a *fresh* compile - the memo emptied before the run - over the
differential corpus: rows and all six work counters must match it
whether the pipeline is run twice in one session, from two sessions
whose cursors interleave, or rebound to other parameter values
(including one the batch path refuses).  The invalidation tests pin
that a new epoch, a statistics rebuild and a plan-cache eviction each
compile again instead of running stale arrays.
"""

import random

import pytest

from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.query import vectorized
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from tests.graphdb.diffquery import (
    WORK_COUNTERS,
    QueryGen,
    build_differential_graph,
    norm_rows,
)
from tests.graphdb.test_differential import CORPUS_SIZE, SEED

pytestmark = pytest.mark.diff_seed


def corpus():
    gen = QueryGen(random.Random(SEED))
    return [gen.query() for _ in range(CORPUS_SIZE)]


def open_cursor(executor, text, params):
    """Start one execution; ``(report, row-or-chunk iterator)``."""
    report = vectorized.ExecutionReport()
    _, _, _, rows = executor.stream(
        text, dict(params), report=report, chunks=True
    )
    return report, rows


def drain(executor, report, items):
    """Rows (chunks flattened) and the work counters they charged."""
    rows = []
    for item in items:
        if report.chunked:
            rows.extend(zip(*item[1]))
        else:
            rows.append(tuple(item))
    metrics = executor.session.reset_metrics().as_dict()
    return (
        norm_rows(rows),
        {k: metrics[k] for k in WORK_COUNTERS},
        report.mode,
        report.fallback_reason,
    )


def run(executor, text, params, fresh=False):
    """One execution; ``fresh`` empties the memo first, so it compiles."""
    if fresh:
        executor._prepare(text).compiled = None
    report, items = open_cursor(executor, text, params)
    return drain(executor, report, items)


def new_executor(graph):
    return Executor(GraphSession(graph, NEO4J_LIKE))


class TestReuseEquivalence:
    def test_two_runs_in_one_session(self, diff_graph):
        vectorized_runs = reused = 0
        for text, params in corpus():
            memo, ref = new_executor(diff_graph), new_executor(diff_graph)
            first = run(memo, text, params)
            compiled = memo._prepare(text).compiled
            second = run(memo, text, params)
            if first[2] == "vectorized":
                vectorized_runs += 1
                reused += compiled is not None and (
                    memo._prepare(text).compiled is compiled
                )
            assert [first, second] == [
                run(ref, text, params, fresh=True),
                run(ref, text, params, fresh=True),
            ], text
        assert vectorized_runs >= 100
        # Every vectorized query is keyed: only list/map parameters
        # (the corpus has none) are compiled without being kept.
        assert reused == vectorized_runs

    def test_two_sessions_interleaved_batch_by_batch(self, diff_graph):
        for text, params in corpus():
            x, y = new_executor(diff_graph), new_executor(diff_graph)
            x_report, x_items = open_cursor(x, text, params)
            y_report, y_items = open_cursor(y, text, params)
            x_out, y_out = [], []
            pending = [(x_items, x_out), (y_items, y_out)]
            while pending:
                for cursor in list(pending):
                    item = next(cursor[0], None)
                    if item is None:
                        pending.remove(cursor)
                    else:
                        cursor[1].append(item)
            want = run(new_executor(diff_graph), text, params, fresh=True)
            assert drain(x, x_report, x_out) == want, text
            assert drain(y, y_report, y_out) == want, text

    def test_rebinding_parameters(self, diff_graph):
        """An accepted value, a cached hit on it, another accepted
        value, one the batch path refuses (``unhashable-value``: a list
        has no value code, so an equality on it is left to the tuple
        path), and the first again: each equals a fresh compile."""
        refused = rebound = 0
        for text, params in corpus():
            ints = [k for k, v in params.items() if type(v) is int]
            if not ints:
                continue
            bindings = [
                params,
                params,
                {**params, **{k: params[k] + 1 for k in ints}},
                {**params, **{k: [params[k]] for k in ints}},
                params,
            ]
            memo, ref = new_executor(diff_graph), new_executor(diff_graph)
            for i, binding in enumerate(bindings):
                got = run(memo, text, binding)
                assert got == run(ref, text, binding, fresh=True), (
                    text, binding
                )
                if got[3] == "unhashable-value":
                    refused += 1
                    assert i == 3
                    assert memo._prepare(text).compiled is None
                elif i == 2 and got[2] == "vectorized":
                    rebound += 1
        assert refused >= 3 and rebound >= 3, (refused, rebound)


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
SCAN = "MATCH (p:Patient) WHERE p.age > 40 RETURN p.pid, p.age"
HOP = (
    "MATCH (p:Patient)-[:takes]->(d:Drug) WHERE d.dose >= 10 "
    "RETURN p.pid, d.dose"
)
GROUPED = "MATCH (p:Patient)-[:takes]->(d:Drug) RETURN d.name, count(*) AS n"
QUERIES = (SCAN, HOP, GROUPED)


def add_patients(graph, count):
    """``count`` new patients, each taking drug vertex 90."""
    for i in range(count):
        vid = graph.add_vertex("Patient", {"pid": 1000 + i, "age": 50 + i})
        graph.add_edge(vid, 90, "takes", {"since": 2020})


def reloaded(mutate):
    """Results on a graph built from scratch with ``mutate`` applied."""
    graph = build_differential_graph()
    mutate(graph)
    graph.freeze()
    return {q: run(new_executor(graph), q, {}) for q in QUERIES}


def memo_of(graph, query):
    compiled = new_executor(graph)._prepare(query).compiled
    assert compiled is not None, query
    return compiled


class TestInvalidation:
    @pytest.fixture()
    def graph(self):
        return build_differential_graph()

    def test_mutation_then_freeze_recompiles(self, graph):
        before = {q: (run(new_executor(graph), q, {}), memo_of(graph, q))
                  for q in QUERIES}
        stats = graph.statistics()
        add_patients(graph, 3)
        graph.freeze()
        assert graph.statistics() is stats  # same plan-cache entries
        want = reloaded(lambda g: add_patients(g, 3))
        arrays = graph.arrays()
        for q in QUERIES:
            got = run(new_executor(graph), q, {})
            old_arrays, _, old_pipeline = before[q][1]
            new_arrays, _, new_pipeline = memo_of(graph, q)
            assert new_arrays is arrays and old_arrays is not arrays
            assert new_pipeline is not old_pipeline
            assert got == want[q] != before[q][0], q

    def test_statistics_rebuild_recompiles(self, graph):
        executor = new_executor(graph)
        old = {q: executor._prepare(q) for q in QUERIES}
        for q in QUERIES:
            run(new_executor(graph), q, {})
        stats = graph.statistics()
        add_patients(graph, 70)  # ages the statistics past a rebuild
        graph.freeze()
        assert graph.statistics() is not stats
        want = reloaded(lambda g: add_patients(g, 70))
        for q in QUERIES:
            got = run(new_executor(graph), q, {})
            prepared = executor._prepare(q)
            assert prepared is not old[q]
            assert prepared.compiled[0] is graph.arrays()
            assert prepared.compiled[2] is not old[q].compiled[2]
            assert got == want[q], q

    def test_plan_cache_eviction_recompiles(self, graph):
        executor = new_executor(graph)
        graph.freeze()
        want = run(new_executor(graph), SCAN, {})
        evicted = executor._prepare(SCAN)
        pipeline = evicted.compiled[2]
        graph.statistics().plan_cache.capacity = 2
        for q in (HOP, GROUPED):
            run(new_executor(graph), q, {})
        got = run(new_executor(graph), SCAN, {})
        prepared = executor._prepare(SCAN)
        assert prepared is not evicted
        assert prepared.compiled[2] is not pipeline
        assert got == want

    def test_explain_without_parameters_keeps_no_pipeline(self, graph):
        executor = new_executor(graph)
        text = "MATCH (p:Patient) WHERE p.age > $a RETURN p.pid"
        assert executor.explain(text).endswith("mode=vectorized")
        assert executor._prepare(text).compiled is None
        run(new_executor(graph), text, {"a": 40})
        assert executor._prepare(text).compiled is not None
