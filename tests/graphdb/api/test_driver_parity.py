"""The driver reports what the executor did, however the caller reads.

``Session.run`` + a read + ``consume`` is a thin seam over
``Executor.run``: it must hand out the same rows and settle the same
summary - row count, the six work counters, the simulated latency and
the execution path - whether the caller iterates, takes column
chunks, takes plain values, asks for the single record, reads nothing
and consumes, or leaves the cursor to be detached by the next run.

The reference is ``Executor.run``'s own body on a twin session over
the same graph, fed the same queries in the same order, so the page
cache both charge against evolves alike.  Inputs: the differential
corpus (``QueryGen`` at tier-1 size, ``REPRO_DIFF_SEED``) on the
frozen and on the unfrozen graph; query ``i`` is read in style
``i mod 6``.
"""

import pytest

from repro.exceptions import QueryError
from repro.graphdb import connect
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.query import vectorized
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from tests.graphdb.diffquery import (
    WORK_COUNTERS,
    build_differential_graph,
    norm_rows,
)
from tests.graphdb.query.test_pipeline_reuse import corpus
from tests.graphdb.test_differential import SEED

pytestmark = pytest.mark.diff_seed


def iterate(session, text, params):
    result = session.run(text, params)
    return [tuple(record) for record in result], result.consume()


def batches(session, text, params):
    result = session.run(text, params)
    rows = [row for _, cols in result.batches() for row in zip(*cols)]
    return rows, result.consume()


def values(session, text, params):
    result = session.run(text, params)
    return [tuple(row) for row in result.values()], result.consume()


def single(session, text, params):
    """``single()`` on a one-row result; on any other, the error and
    the records it put back, read after it."""
    result = session.run(text, params)
    try:
        rows = [tuple(result.single())]
    except QueryError:
        rows = [tuple(row) for row in result.values()]
    return rows, result.consume()


def consume_unread(session, text, params):
    return None, session.run(text, params).consume()


def detached(session, text, params):
    """Read one record, then let a new ``run`` detach the cursor: the
    rest is buffered and read after the summary has settled."""
    result = session.run(text, params)
    head = [tuple(record) for _, record in zip(range(1), result)]
    session.run("MATCH (p:Patient) RETURN count(*)").consume()
    summary = result._summary
    assert summary is not None, "a detached cursor is settled"
    rows = head + [tuple(record) for record in result]
    assert result.consume() is summary
    return rows, summary


STYLES = (iterate, batches, values, single, consume_unread, detached)


def reference(executor, text, params):
    """``Executor.run`` with its report kept: ``(result, report)``."""
    report = vectorized.ExecutionReport()
    result = executor._execute(executor._prepare(text), params, report=report)
    return result, report


def twin_settle(executor):
    """What a detaching ``run`` executes on the driver's side."""
    executor.run("MATCH (p:Patient) RETURN count(*)")


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
def test_every_read_style_settles_what_the_executor_did(diff_graph, frozen):
    graph = diff_graph if frozen else build_differential_graph(freeze=False)
    twin = Executor(GraphSession(graph, NEO4J_LIKE))
    seen = dict.fromkeys([s.__name__ for s in STYLES] + ["single of one"], 0)
    with connect(graph, NEO4J_LIKE) as db, db.session() as session:
        for i, (text, params) in enumerate(corpus()):
            style = STYLES[i % len(STYLES)]
            want, report = reference(twin, text, dict(params))
            if style is detached:
                twin_settle(twin)
            rows, summary = style(session, text, dict(params))
            context = f"seed={SEED} query #{i} ({style.__name__}): {text!r}"
            if rows is not None:
                assert norm_rows(rows) == norm_rows(want.rows), context
            metrics = summary.metrics.as_dict()
            assert summary.rows == len(want.rows), context
            assert {k: metrics[k] for k in WORK_COUNTERS} == {
                k: getattr(want.metrics, k) for k in WORK_COUNTERS
            }, context
            assert summary.latency_ms == want.latency_ms, context
            assert (summary.mode, summary.fallback_reason) == (
                report.mode, report.fallback_reason,
            ), context
            assert summary.columns == want.columns, context
            seen[style.__name__] += 1
            seen["single of one"] += style is single and len(want.rows) == 1
    assert min(seen.values()) > 0, seen
