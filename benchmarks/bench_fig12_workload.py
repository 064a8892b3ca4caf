"""Figure 12: total latency of a 15-query Zipf workload.

DIRECT vs OPT on both backends for MED and FIN.  The paper reports
~7x / ~22x gains on JanusGraph and ~2 orders of magnitude on Neo4j;
we check OPT wins everywhere and the neo4j-like profile gains at
least as much as janusgraph-like (disk-based systems benefit more,
Section 5.3).
"""

from conftest import report

from repro.bench.harness import run_workload_experiment


def test_fig12_workload(med, fin):
    table = run_workload_experiment([med, fin])
    report(table, "fig12_workload.txt")
    speedups = {}
    for dataset, backend, direct_ms, opt_ms, ratio in table.rows:
        assert opt_ms < direct_ms, (dataset, backend)
        speedups[(dataset, backend)] = ratio
    for dataset in ("MED", "FIN"):
        assert (
            speedups[(dataset, "neo4j-like")]
            >= speedups[(dataset, "janusgraph-like")] * 0.9
        )
