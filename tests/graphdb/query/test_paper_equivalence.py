"""The paper's 24 ops on the batch path, at the paper's scale.

The differential graph (``tests/graphdb/diffquery.py``) is 190
vertices - six vertex pages - so its ``page_hits``/``page_misses``
equality says little about the 96-page ``neo4j-like`` cache.  Here MED
and FIN are built at scale 1 (MED DIR spans about 180 vertex pages,
FIN DIR about 420) and every (graph, query) op of Fig. 11 runs through
both pipelines: the default executor must take the batch path for all
24 - the regression guard for ``paper_local``'s ``vectorized_share`` -
and agree with ``Executor(vectorize=False)`` on columns, rows in
order, and all six work counters, on a cold cache and with the
previous run's pages still resident.

What that does *not* show: one op touches at most ~22 distinct pages
at this scale (same-label vertices cluster), so nothing is evicted
*within* an op.  The batch path touches pages operator by operator
where the tuple path goes binding by binding; once a session's LRU
evicts between those touches (six scale-2 ops sharing one 96-page
cache do it) hit/miss counts can differ by a few percent.  That has
held for every vectorized expand since the batch path exists and is
recorded in docs/ARCHITECTURE.md; the other four counters never
depend on it.

What *is* pinned under eviction is the batch path against itself:
``LruPageCache.touch_many`` settles an operator's touches in two
passes over its distinct pages, and a compiled pipeline's repeat runs
settle the traces its first run recorded, consecutive calls merged
while their pages fit the cache.  On caches of 0, 1, 4, 22 and 96
pages - none, thrashing, smaller than one op's working set, about
equal to it, the shipped size - the six ops of a session, cold and
warm, leave the same six counters and the same recency order as a
session that touches page by page for every row the kernels produce
(``PerRowSession``, ``tests/graphdb/lru_oracle.py``).
"""

import pytest

from repro.bench.harness import build_pipeline
from repro.datasets import build_fin, build_med
from repro.graphdb.backends import JANUSGRAPH_LIKE, NEO4J_LIKE
from repro.graphdb.metrics import LruPageCache
from repro.graphdb.query.executor import Executor
from repro.graphdb.query.vectorized import ExecutionReport
from repro.graphdb.session import GraphSession
from tests.graphdb.diffquery import WORK_COUNTERS
from tests.graphdb.lru_oracle import PerRowSession


@pytest.fixture(scope="module", params=[build_med, build_fin])
def paper_ops(request):
    """``[(label, graph, query)]``: DIR runs the query text, OPT the
    rewriter's ``Query`` object."""
    dataset = request.param()
    pipeline = build_pipeline(dataset, scale=1.0)
    ops = []
    for side, graph, queries in (
        ("dir", pipeline.dir_graph, dataset.queries),
        ("opt", pipeline.opt_graph, pipeline.rewritten),
    ):
        ops += [
            (f"{dataset.name}.{side}.{qid}", graph, query)
            for qid, query in queries.items()
        ]
    assert len(ops) == 12
    return ops


def run_once(session, query, vectorize):
    executor = Executor(session, vectorize=vectorize)
    report = ExecutionReport()
    _, _, columns, rows = executor.stream(query, {}, report=report)
    rows = [tuple(row) for row in rows]
    metrics = session.reset_metrics().as_dict()
    return columns, rows, {k: metrics[k] for k in WORK_COUNTERS}, report


@pytest.mark.parametrize(
    "profile", [NEO4J_LIKE, JANUSGRAPH_LIKE], ids=lambda p: p.name
)
def test_batch_path_equals_tuple_path(paper_ops, profile):
    for label, graph, query in paper_ops:
        tuple_session = GraphSession(graph, profile)
        batch_session = GraphSession(graph, profile)
        # Second pass: same sessions, so the LRU starts out holding
        # whatever the first pass left in it.
        for cache in ("cold", "warm"):
            expected = run_once(tuple_session, query, vectorize=False)
            got = run_once(batch_session, query, vectorize=True)
            assert got[3].mode == "vectorized", (label, got[3].reason)
            assert got[:3] == expected[:3], (label, profile.name, cache)


@pytest.mark.parametrize("capacity", [0, 1, 4, 22, 96])
def test_bulk_charging_equals_per_touch_charging(paper_ops, capacity):
    for ops in (paper_ops[:6], paper_ops[6:]):  # one session per graph
        graph = ops[0][1]
        bulk = GraphSession(graph, NEO4J_LIKE, LruPageCache(capacity))
        loop = PerRowSession(graph, NEO4J_LIKE, LruPageCache(capacity))
        assert bulk.cache.capacity == loop.cache.capacity == capacity
        # The first pass records each op's traces and warms the cache:
        # the second replays them into a cache full of the other five
        # ops' pages - and the reference still touches every row.
        for cache in ("cold", "warm"):
            for label, _, query in ops:
                got = run_once(bulk, query, vectorize=True)
                expected = run_once(loop, query, vectorize=True)
                assert got[3].mode == expected[3].mode == "vectorized"
                assert got[2] == expected[2], (label, capacity, cache)
                assert list(bulk.cache._pages) == list(loop.cache._pages), (
                    label, capacity, cache,
                )
        assert len(bulk.cache) <= capacity
