"""Scale sensitivity: how DIR/OPT speedups grow with data size.

EXPERIMENTS.md attributes the gap between the paper's large speedup
factors and ours to data scale: the DIR schema's extra traversals and
page misses grow with the instance count while OPT's local reads do
not.  This study measures Q1 (pattern) and Q11 (aggregation) at three
scales and checks the speedups are non-shrinking.
"""

from conftest import report

from repro.bench.harness import build_pipeline
from repro.bench.reporting import ExperimentTable, speedup
from repro.graphdb.backends import NEO4J_LIKE
from repro.workload.runner import run_queries


def test_scale_sensitivity(med, fin):
    def run():
        table = ExperimentTable(
            "Speedup vs data scale (neo4j-like, ms simulated)",
            ["query", "scale", "DIR ms", "OPT ms", "speedup"],
        )
        for dataset, qid in ((med, "Q1"), (fin, "Q11")):
            for scale in (0.25, 0.5, 1.0):
                pipeline = build_pipeline(dataset, scale=scale)
                dir_run = run_queries(
                    pipeline.dir_graph, NEO4J_LIKE,
                    [(qid, dataset.queries[qid])],
                ).runs[0]
                opt_run = run_queries(
                    pipeline.opt_graph, NEO4J_LIKE,
                    [(qid, pipeline.rewritten[qid])],
                ).runs[0]
                table.add_row(
                    f"{qid}({dataset.name})", scale,
                    round(dir_run.latency_ms, 2),
                    round(opt_run.latency_ms, 2),
                    round(speedup(dir_run.latency_ms,
                                  opt_run.latency_ms), 2),
                )
        return table

    table = run()
    report(table, "scale_sensitivity.txt")
    by_query: dict[str, list[float]] = {}
    for row in table.rows:
        by_query.setdefault(row[0], []).append(row[4])
    for qid, series in by_query.items():
        # Speedups must not collapse as data grows (tolerate noise).
        assert series[-1] >= series[0] * 0.8, (qid, series)
