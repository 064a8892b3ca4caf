"""Equality estimates read the epoch's value codes: against the histograms.

``GraphStatistics.eq_estimate`` / ``avg_eq_estimate`` count the codes
of a property's column (``view._Column.coding``) at a label's live
vertices, as the graph stood at the first ask of that (label,
property) after the build.  ``stats_oracle.py`` keeps the eager
histograms they replaced; every answer and every plan priced on them
must be the same:

* on random scripts (``randgraph.py``), unfrozen and frozen, after
  more mutations inside a transaction - a build asked before them
  keeps its answers, a build asked first after them reads the mutated
  graph - and after its rollback, where both give the answers from
  before the transaction;
* on the NaN shapes no script draws (a float64 column's NaNs, a mixed
  column's, one NaN object stored twice) and ``True`` against 1;
* on the paper's MED and FIN graphs at scale 0.05, where the 24 paper
  ops also plan the same on both: fingerprint and estimated rows.

``REPRO_DIFF_SEED`` seeds the draw, as for the differential fuzzer.
"""

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.bench.harness import build_pipeline
from repro.datasets import build_fin, build_med
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.parser import parse_query
from repro.graphdb.query.planner import build_plan
from repro.graphdb.statistics import GraphStatistics
from tests.graphdb.randgraph import SCRIPTS, run_script
from tests.graphdb.stats_oracle import (
    OracleStatistics,
    assert_estimates_match,
    estimates,
    questions,
)

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))


@seed(SEED)
@settings(max_examples=15, deadline=None, database=None)
@given(script=SCRIPTS, more=SCRIPTS, bulk=st.booleans())
def test_estimates_equal_the_histograms_of_the_graph_as_it_stands(
    script, more, bulk
):
    graph = run_script(script, bulk)
    stats = graph.statistics()
    before = assert_estimates_match(stats, graph)
    graph.freeze()
    frozen = GraphStatistics.build(graph)
    assert assert_estimates_match(frozen, graph) == before
    asked = questions(graph)
    graph.begin_transaction()
    run_script(more, bulk, graph)
    assert estimates(stats, asked) == before  # as first asked
    assert_estimates_match(GraphStatistics.build(graph), graph)  # mutated
    graph.rollback_transaction()
    assert estimates(stats, asked) == before
    rolled_back = GraphStatistics.build(graph)
    assert assert_estimates_match(rolled_back, graph) == before
    assert assert_estimates_match(graph.statistics(), graph) == before


def test_nan_shapes_and_bools():
    nan = float("nan")
    graph = PropertyGraph()
    for value in (1.5, nan, nan, 2.0):
        graph.add_vertex("F", {"x": value})  # float64: each read new
    for value in ("s", nan, nan, 1):
        graph.add_vertex("M", {"x": value})  # object: one NaN, twice
    graph.add_vertex(("F", "M"), {"x": 1.0})
    for value in (1, 0, 1, 2):
        graph.add_vertex("I", {"b": value})
    stats = graph.statistics()
    answers = assert_estimates_match(stats, graph)
    assert answers["F", "x", "nan"] == 0.0  # a read NaN is a new float
    assert stats.eq_estimate("M", "x", nan) == 2.0  # the stored object
    assert stats.eq_estimate("M", "x", 1) == 2.0  # 1 and 1.0: one key
    assert stats.eq_estimate("I", "b", True) == 2.0
    # F: 1.5, 2.0, 1.0 and each fresh NaN distinct: 5 values, 5 keys.
    assert stats.avg_eq_estimate("F", "x") == 1.0
    assert stats.avg_eq_estimate("M", "x") == 5 / 3


@pytest.mark.parametrize("dataset", [build_med, build_fin])
def test_paper_graphs_estimate_and_plan_as_the_histograms(dataset):
    pipeline = build_pipeline(dataset(), scale=0.05)
    for graph, queries in (
        (pipeline.dir_graph, pipeline.dataset.queries),
        (pipeline.opt_graph, pipeline.rewritten),
    ):
        stats = graph.statistics()
        assert_estimates_match(stats, graph)
        oracle = OracleStatistics.build(graph)
        for qid, query in queries.items():
            if isinstance(query, str):
                query = parse_query(query)
            plan = build_plan(query, graph, statistics=stats)
            want = build_plan(query, graph, statistics=oracle)
            assert plan.fingerprint == want.fingerprint, qid
            assert [step.est_rows for step in plan.steps] == [
                step.est_rows for step in want.steps
            ], qid
