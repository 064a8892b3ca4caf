#!/usr/bin/env python
"""Graph-core benchmarks -> BENCH_core.json.

Measures the hot paths the columnar core refactor targets, on the MED
dataset (full scale, DIR graph):

* **full_label_scan** - an unindexed equality scan over every vertex
  of a label (``MATCH (d:Drug) WHERE d.name = ... RETURN count(*)``):
  the executor's scan operator must check the property on every
  candidate, so the per-row property access path dominates;
* **label_project_scan** - project one property for every vertex of a
  large label (aggregated so projection cost, not row materialization,
  dominates).  Timed on *both* pipelines: the headline stats are the
  default (vectorized) executor, and ``extra`` records the tuple-path
  median plus the speedup (target >=5x);
* **filtered_sum_aggregate** - a filtered numeric aggregation
  (``WHERE s.cohortSize > 0 RETURN sum(...)``): mask kernel plus
  batch fold, also timed on both pipelines (target >=5x);
* **string_project_scan** / **grouped_count** / **expand_collect_size**
  - the shapes of the paper's own queries, on both pipelines: return a
  string property of every vertex of the largest label; group that
  label on the string and count; one hop folded into
  ``size(collect())`` (FIN Q11's shape).  The group fold is a Python
  fold on either path, so ``grouped_count`` gains less than the
  numeric kernels do;
* **two_hop_expand** - a 2-hop typed pattern
  (``(p:Patient)-[:takes]->(d:Drug)-[:treat]->(i:Indication)``):
  adjacency iteration dominates; both pipelines recorded;
* **stats_build** - a cold :class:`GraphStatistics` batch build (the
  pass every fresh graph pays on its first cost-based plan);
* **snapshot_load** - decoding a binary snapshot into a live graph;
* **pagerank_kernel** - the power-iteration PageRank kernel over the
  MED graph's adjacency (the same kernel Algorithm 6 runs on
  ontologies, here fed a graph-sized input);
* **load_direct** / **load_optimized** / **freeze** - the cold build
  of the paper pipeline on FIN (the larger dataset, where the build
  is three quarters of a cold round): bulk ingest of both graphs and
  the CSR freeze of FIN-DIR;
* **segments_build** - the first untyped tuple-path expand on the
  frozen FIN-DIR: cutting every edge type's (eid, neighbor) segments,
  both directions, out of the CSR arrays - the part of the old freeze
  that only the tuple executor reads, paid by the first such reader;
* **adjacency_build** - the first ``out_edges`` on a bulk-loaded
  FIN-DIR: the dict adjacency the loaders no longer build, paid only
  by a graph that is read unfrozen or mutated per element.

Run directly::

    PYTHONPATH=src python benchmarks/bench_core.py [--out PATH]

``--smoke`` runs one small-scale iteration of everything (used by CI
to catch accidental complexity regressions without timing noise).
``benchmarks/run_bench.sh`` invokes the full version after the
storage benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.bench.harness import build_pipeline
from repro.data.loader import load_direct, load_optimized
from repro.datasets import build_fin, build_med
from repro.graphdb.backends import NEO4J_LIKE
from repro.graphdb.query.executor import Executor
from repro.graphdb.session import GraphSession
from repro.graphdb.statistics import GraphStatistics
from repro.graphdb.storage import read_snapshot, write_snapshot
from repro.graphdb.view import GraphView
from repro.optimizer.pagerank import pagerank

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Acceptance targets for the columnar-core refactor (vs. the
#: object-per-vertex baseline recorded in EXPERIMENTS.md).
TARGET_SCAN_SPEEDUP = 1.3
TARGET_STATS_SPEEDUP = 1.3
#: Acceptance target for the vectorized batch path vs. the tuple
#: pipeline on the same columnar core (scan-heavy shapes).
TARGET_VECTOR_SPEEDUP = 5.0


def timed(fn, repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1000.0)
    return samples


def stats(samples: list[float]) -> dict:
    return {
        "repeats": len(samples),
        "median_ms": round(statistics.median(samples), 3),
        "mean_ms": round(statistics.fmean(samples), 3),
        "min_ms": round(min(samples), 3),
        "max_ms": round(max(samples), 3),
        "stdev_ms": round(
            statistics.stdev(samples) if len(samples) > 1 else 0.0, 3
        ),
    }


def bench(name: str, fn, repeats: int, extra: dict | None = None) -> dict:
    fn()  # warmup (builds statistics / plan-cache entries once)
    entry = {"name": name, "stats": stats(timed(fn, repeats))}
    if extra:
        entry["extra"] = extra
    print(f"  {name}: median {entry['stats']['median_ms']:.2f} ms")
    return entry


def graph_adjacency(graph) -> dict[int, list[int]]:
    """Undirected adjacency mapping for the PageRank kernel."""
    adjacency: dict[int, list[int]] = {
        v.vid: [] for v in graph.iter_vertices()
    }
    for edge in graph.iter_edges():
        adjacency[edge.src].append(edge.dst)
        adjacency[edge.dst].append(edge.src)
    return adjacency


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one small-scale pass of every benchmark (CI regression "
             "canary; no timing claims)",
    )
    parser.add_argument(
        "--scale", type=float, default=None, metavar="FACTOR",
        help="dataset scale factor (10-100x supported; default 1.0, "
             "0.25 under --smoke); generated graphs are memoized per "
             "scale in $REPRO_SNAPSHOT_CACHE",
    )
    args = parser.parse_args(argv)
    scale = (
        args.scale if args.scale is not None
        else (0.25 if args.smoke else 1.0)
    )
    repeats = 1 if args.smoke else max(3, args.repeats)

    print(f"graph-core benchmarks (MED, scale {scale:g})")
    pipeline = build_pipeline(build_med(), scale=scale)
    graph = pipeline.dir_graph
    print(f"  {graph.summary()}")
    executor = Executor(GraphSession(graph, NEO4J_LIKE))
    tuple_executor = Executor(
        GraphSession(graph, NEO4J_LIKE), vectorize=False
    )

    # Scan the *largest* label on its most common property: the scan
    # operator must examine every row of the label.  Queries are tiny
    # (sub-ms), so each sample runs an inner batch of executions.
    scan_label = max(graph.labels(), key=graph.label_count)
    sample = graph.vertex(graph.vertices_with_label(scan_label)[0])
    scan_prop = next(iter(sample.properties))
    scan_value = sample.properties[scan_prop]
    scan_query = (
        f"MATCH (x:{scan_label}) WHERE x.{scan_prop} = {scan_value!r} "
        "RETURN count(*)"
    )
    project_query = (
        f"MATCH (x:{scan_label}) RETURN count(x.{scan_prop})"
    )
    string_prop = next(
        name for name, value in sample.properties.items()
        if isinstance(value, str)
    )
    string_query = f"MATCH (x:{scan_label}) RETURN x.{string_prop}"
    grouped_query = (
        f"MATCH (x:{scan_label}) RETURN x.{string_prop}, count(*)"
    )
    collect_query = (
        "MATCH (p:Patient)-[:takes]->(d:Drug) "
        "RETURN size(collect(d.name))"
    )
    expand_query = (
        "MATCH (p:Patient)-[:takes]->(d:Drug)-[:treat]->(i:Indication) "
        "RETURN count(*)"
    )
    # The batch path needs the frozen CSR view for expansions; tuple
    # execution freezes on demand, so do it up front for fairness.
    graph.freeze()
    aggregate_query = (
        "MATCH (s:Study) WHERE s.cohortSize > 0 "
        "RETURN sum(s.cohortSize)"
    )
    batch = 1 if args.smoke else 40

    def batched(query: str, ex=None):
        ex = ex or executor

        def run():
            for _ in range(batch):
                ex.run(query)
        return run

    def executed_mode(query: str) -> str:
        from repro.graphdb.query.vectorized import ExecutionReport

        report = ExecutionReport()
        _, _, _, rows = executor.stream(query, {}, report=report)
        list(rows)
        return report.mode

    def paired(name: str, query: str, extra: dict) -> dict:
        """The default (vectorized) pipeline as headline stats, the
        tuple pipeline alongside, and the speedup in ``extra``."""
        entry = bench(name, batched(query), repeats, extra)
        tuple_fn = batched(query, tuple_executor)
        tuple_fn()  # warm the tuple executor's plan cache too
        tuple_stats = stats(timed(tuple_fn, repeats))
        vec_ms = entry["stats"]["median_ms"]
        tup_ms = tuple_stats["median_ms"]
        entry["extra"].update({
            "mode": executed_mode(query),
            "tuple_median_ms": tup_ms,
            "vectorized_median_ms": vec_ms,
            "speedup": round(tup_ms / vec_ms, 2) if vec_ms else None,
        })
        print(
            f"    tuple {tup_ms:.2f} ms -> "
            f"{entry['extra']['speedup']}x"
        )
        return entry

    benchmarks = [
        bench(
            "full_label_scan", batched(scan_query), repeats,
            {"label": scan_label, "prop": scan_prop,
             "rows_scanned": graph.label_count(scan_label),
             "runs_per_sample": batch,
             "target_speedup": TARGET_SCAN_SPEEDUP},
        ),
        paired(
            "label_project_scan", project_query,
            {"label": scan_label,
             "rows_scanned": graph.label_count(scan_label),
             "runs_per_sample": batch,
             "target_speedup": TARGET_VECTOR_SPEEDUP},
        ),
        paired(
            "filtered_sum_aggregate", aggregate_query,
            {"label": "Study", "prop": "cohortSize",
             "rows_scanned": graph.label_count("Study"),
             "runs_per_sample": batch,
             "target_speedup": TARGET_VECTOR_SPEEDUP},
        ),
        paired(
            "string_project_scan", string_query,
            {"label": scan_label, "prop": string_prop,
             "rows": len(executor.run(string_query).rows),
             "runs_per_sample": batch},
        ),
        paired(
            "grouped_count", grouped_query,
            {"label": scan_label, "key": string_prop,
             "groups": len(executor.run(grouped_query).rows),
             "runs_per_sample": batch},
        ),
        paired(
            "expand_collect_size", collect_query,
            {"result": executor.run(collect_query).single_value(),
             "runs_per_sample": batch},
        ),
        paired(
            "two_hop_expand", expand_query,
            {"result": executor.run(expand_query).single_value(),
             "runs_per_sample": batch},
        ),
        bench(
            "stats_build", lambda: GraphStatistics.build(graph), repeats,
            {"vertices": graph.num_vertices, "edges": graph.num_edges,
             "target_speedup": TARGET_STATS_SPEEDUP},
        ),
    ]

    with tempfile.TemporaryDirectory() as tmpname:
        snap = Path(tmpname) / "med-dir.rpgs"
        nbytes = write_snapshot(graph, snap)
        benchmarks.append(bench(
            "snapshot_load", lambda: read_snapshot(snap), repeats,
            {"bytes": nbytes},
        ))

    adjacency = graph_adjacency(graph)
    scores_holder: dict = {}

    def run_pagerank():
        scores, iterations = pagerank(adjacency, tol=1e-8)
        scores_holder["iterations"] = iterations
        scores_holder["checksum"] = round(sum(scores.values()), 6)

    benchmarks.append(bench(
        "pagerank_kernel", run_pagerank, max(3, repeats // 2) if not args.smoke else 1,
        None,
    ))
    benchmarks[-1]["extra"] = dict(scores_holder)

    fin = build_pipeline(build_fin(), scale=scale, cache_dir=None)
    fin_size = {
        "dataset": "fin",
        "vertices": fin.dir_graph.num_vertices,
        "edges": fin.dir_graph.num_edges,
    }
    benchmarks.append(bench(
        "load_direct", lambda: load_direct(fin.logical), repeats, fin_size,
    ))
    benchmarks.append(bench(
        "load_optimized",
        lambda: load_optimized(fin.logical, fin.result.mapping), repeats,
        {"dataset": "fin", "vertices": fin.opt_graph.num_vertices,
         "edges": fin.opt_graph.num_edges},
    ))
    benchmarks.append(bench(
        "freeze", lambda: GraphView(fin.dir_graph), repeats, fin_size,
    ))

    view = fin.dir_graph.freeze()
    session = GraphSession(fin.dir_graph)

    def first_untyped_expand():
        view._out_segments.clear()  # as freeze leaves them
        view._in_segments.clear()
        session.expand_pairs(0, (), "any")

    benchmarks.append(bench(
        "segments_build", first_untyped_expand, repeats,
        {**fin_size, "edge_types": len(view.edge_types())},
    ))

    def first_out_edges():
        fin.dir_graph._adjacency = None  # as a bulk load leaves it
        fin.dir_graph.out_edges(0)

    benchmarks.append(bench(
        "adjacency_build", first_out_edges, repeats, fin_size,
    ))

    report = {
        "suite": "core",
        "dataset": "med",
        "scale": scale,
        "cpus": os.cpu_count(),
        "benchmarks": benchmarks,
    }
    if args.smoke:
        print("smoke pass complete")
        return 0
    out = Path(args.out) if args.out else REPO_ROOT / "BENCH_core.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
