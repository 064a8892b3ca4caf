#!/usr/bin/env python3
"""Micro-benchmarks for what ``benchmarks/e2e`` cannot see -> BENCH_micro.json.

``BENCHMARK.json``'s per-layer metrics already time parse, plan, both
executors, the loaders, freeze, statistics, snapshots, the WAL,
recovery and the wire on every PR; tier-1 tests already state what is
deterministic (planner never loses, zero re-plans).  What is left has
no e2e workload that would notice it, and lives here, in five sections:

* ``paths`` - the tuple and the batch executor on one query each of
  seven shapes (MED-DIR, frozen): per-query medians of both, their
  ratio, and the mode the batch leg really ran in;
* ``derived`` - first-use cost of derived state: the adjacency base
  of an unfrozen bulk-loaded graph (what its first per-element read
  pays; a freeze makes its CSR the base instead), the freeze with the
  bytes of the CSR it builds (e2e times the freeze but never sizes it),
  the page traces a session builds the first time it charges a vid
  array (every warm e2e charge finds its trace kept), the planner
  statistics build on FIN-OPT (FIN-DIR in ``extra``; e2e's
  ``graph.stats_build`` sums four graphs inside a noisy cold round)
  with what an epoch's first equality estimate costs (the column and
  its codes; FIN-OPT's largest string column), a FIN-OPT snapshot
  written and read back (its bytes, write and read ms), and the
  ontology PageRank and one ``optimize()`` (split into its five
  stages) on the MED and FIN ontologies (the only inputs they ever
  get);
* ``group_commit`` - fsyncs per commit at 1 / 8 / 32 remote writers;
* ``budgets`` - what switched-off instrumentation may cost: the
  observe registry disabled against no-op handles (< 2 %), a traced
  query against an untraced one (< 10 %), disarmed failpoints against
  pass-throughs (< 2 %), and metrics on against off as information;
* ``driver`` - the driver's fixed cost per query: a warm one-row query
  through ``Session.run`` + iterate + ``consume`` minus the same query
  through ``Executor.run``.

Everything is timed by one loop on the e2e benchmark's clock (wall
time divided by the host's slowdown at that moment,
``e2e/hostspeed.py``), summarized by one estimator (median and
inter-quartile range) and written as ``{name, unit, median, iqr, n,
extra}`` rows under one environment header.  Legs that are compared
run as alternating pairs inside this process and the *ratio's* median
and IQR are reported; a budget whose IQR straddles it reads
``resolved: false`` - not a pass the host cannot support.  Comparing
two commits is ``tools/ab_pairs.py``'s job, so there is no
``--compare``.

    python3 benchmarks/micro.py [--out PATH] [--only SECTION] [--smoke]

``--smoke`` runs every row once at scale 0.25 (CI's complexity canary:
no timing gate, nothing written unless ``--out`` is given).  ``--only``
runs one section and, like ``--smoke``, writes nothing unless ``--out``
is given: ``BENCH_micro.json`` is only ever rewritten whole.  Exit 0
means every row was produced and no gate failed: the batch leg of a
``paths`` row ran vectorized, 32 writers share under 0.25 fsync per
commit, no resolved budget is exceeded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "benchmarks" / "e2e"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from hostspeed import HostSpeed  # noqa: E402
from run import git_commit  # noqa: E402
from workloads import ServerThread  # noqa: E402

from repro.bench.harness import (  # noqa: E402
    MICROBENCH_BUDGET_FRACTION,
    MICROBENCH_THRESHOLDS,
    build_pipeline,
)
from repro.data import load_direct, load_optimized  # noqa: E402
from repro.data import loader  # noqa: E402
from repro.datasets import build_fin, build_med  # noqa: E402
from repro.graphdb import connect, faults, observe  # noqa: E402
from repro.graphdb.api import result as result_mod  # noqa: E402
from repro.graphdb.backends import NEO4J_LIKE  # noqa: E402
from repro.graphdb.graph import PropertyGraph  # noqa: E402
from repro.graphdb.query.executor import Executor  # noqa: E402
from repro.graphdb.query.vectorized import ExecutionReport  # noqa: E402
from repro.graphdb.server import GraphServer, ServerConfig  # noqa: E402
from repro.graphdb.session import GraphSession, PageTraces  # noqa: E402
from repro.graphdb.statistics import GraphStatistics  # noqa: E402
from repro.graphdb.storage import (  # noqa: E402
    GraphStore,
    read_snapshot,
    write_snapshot,
)
from repro.graphdb.storage.wal import WriteAheadLog  # noqa: E402
from repro.optimizer import pgsg  # noqa: E402
from repro.optimizer import result as optimizer_result  # noqa: E402
from repro.optimizer.costmodel import CostBenefitModel  # noqa: E402
from repro.optimizer.pagerank import ontology_pagerank  # noqa: E402

SMOKE_SCALE = 0.25
#: Executions per timed sample of a ``paths`` query: one is too short
#: for the host-speed readings (25 ms apart) to land near it.
RUNS_PER_SAMPLE = 40
#: ``ontology_pagerank`` calls per timed sample (one is ~0.1-1 ms).
PAGERANK_RUNS = 20
#: Passes over the FIN-DIR ops' page charges per ``page_traces`` sample.
TRACE_RUNS = 20
#: Warm driver and executor runs per timed ``driver`` sample.
DRIVER_RUNS = 200
WRITERS = (1, 8, 32)
COMMITS_EACH = 8
#: How long the group committer lingers for more commits.  At the
#: server's default of 0 this host's fsync ends before the next
#: writer's transaction arrives, and every count reads 1.0.
GROUP_WINDOW_S = 0.005
MAX_FSYNC_PER_COMMIT = 0.25
#: The ``paths`` shapes the batch path refuses today, and why: the row
#: then shows what the refused attempt costs the default executor.
#: Every other shape must run vectorized.
REFUSED: dict[str, str] = {}


class Bench:
    """The timing loop, the estimator and the row shape - one each."""

    def __init__(self, host: HostSpeed, smoke: bool):
        self.host = host
        self.smoke = smoke
        self.scale = SMOKE_SCALE if smoke else 1.0
        self.rows: list[dict] = []
        self.failures: list[str] = []

    def time(self, legs, rounds: int) -> list:
        """Run every leg once untimed (plan caches, statistics, lazy
        state), then once per round in an order that alternates from
        round to round; corrected seconds, one array per leg."""
        for leg in legs:
            leg()
        marks: list[list] = [[] for _ in legs]
        order = range(len(legs))
        for turn in range(1 if self.smoke else rounds):
            for i in order if turn % 2 == 0 else reversed(order):
                start = perf_counter()
                legs[i]()
                marks[i].append((start, perf_counter()))
        return [self.host.correct(*zip(*pairs)) for pairs in marks]

    @staticmethod
    def quartiles(samples) -> tuple[float, float, float]:
        q1, median, q3 = np.percentile(samples, (25, 50, 75))
        return float(q1), float(median), float(q3)

    def row(self, name: str, unit: str, samples, **extra) -> dict:
        q1, median, q3 = self.quartiles(samples)
        entry = {
            "name": name, "unit": unit, "median": round(median, 4),
            "iqr": round(q3 - q1, 4), "n": len(samples), "extra": extra,
        }
        self.rows.append(entry)
        notes = " ".join(f"{key}={value}" for key, value in extra.items())
        print(f"{name:42s} {median:10.4f} {unit:13s} iqr {q3 - q1:.4f} "
              f"n={len(samples)} {notes}")
        return entry

    def ratio_row(self, name: str, legs, rounds: int, budget=None,
                  **extra) -> None:
        """``legs[0] / legs[1]`` over alternating pairs, against a
        budget where there is one."""
        variant, base = self.time(legs, rounds)
        ratios = variant / base
        q1, median, q3 = self.quartiles(ratios)
        self.row(
            name, "ratio", ratios, budget=budget,
            resolved=budget is None or not q1 <= budget <= q3,
            q1=round(q1, 4), q3=round(q3, 4), **extra,
        )
        if budget is not None and q1 > budget and not self.smoke:
            self.failures.append(
                f"{name}: {median:.4f} (quartiles {q1:.4f}-{q3:.4f}) "
                f"against a budget of {budget}"
            )


# ----------------------------------------------------------------------
# paths: tuple against batch, shape by shape
# ----------------------------------------------------------------------
def paths(bench: Bench) -> None:
    graph = build_pipeline(build_med(), scale=bench.scale).dir_graph
    # The largest label, so a scan examines the most rows there are.
    label = max(graph.labels(), key=graph.label_count)
    sample = graph.vertex(graph.vertices_with_label(label)[0]).properties
    prop, value = next(iter(sample.items()))
    text = next(k for k, v in sample.items() if isinstance(v, str))
    shapes = {
        "full_label_scan":
            f"MATCH (x:{label}) WHERE x.{prop} = {value!r} RETURN count(*)",
        "label_project_scan": f"MATCH (x:{label}) RETURN count(x.{prop})",
        "filtered_sum_aggregate":
            "MATCH (s:Study) WHERE s.cohortSize > 0 RETURN sum(s.cohortSize)",
        "string_project_scan": f"MATCH (x:{label}) RETURN x.{text}",
        "grouped_count": f"MATCH (x:{label}) RETURN x.{text}, count(*)",
        "expand_collect_size":
            "MATCH (p:Patient)-[:takes]->(d:Drug) "
            "RETURN size(collect(d.name))",
        "two_hop_expand":
            "MATCH (p:Patient)-[:takes]->(d:Drug)-[:treat]->(i:Indication) "
            "RETURN count(*)",
    }
    batch = Executor(GraphSession(graph, NEO4J_LIKE))
    tuples = Executor(GraphSession(graph, NEO4J_LIKE), vectorize=False)
    runs = 1 if bench.smoke else RUNS_PER_SAMPLE

    def leg(executor, query):
        def run():
            for _ in range(runs):
                executor.run(query)
        return run

    for name, query in shapes.items():
        report = ExecutionReport()
        rows = len(list(batch.stream(query, {}, report=report)[3]))
        fast, slow = bench.time([leg(batch, query), leg(tuples, query)], 15)
        _, tuple_us, _ = bench.quartiles(slow / runs * 1e6)
        q1, ratio, q3 = bench.quartiles(slow / fast)
        bench.row(
            f"paths.{name}", "us", fast / runs * 1e6, mode=report.mode,
            reason=report.fallback_reason, tuple_us=round(tuple_us, 1),
            ratio=round(ratio, 2), ratio_iqr=round(q3 - q1, 2), rows=rows,
        )
        if report.fallback_reason != REFUSED.get(name):
            bench.failures.append(
                f"paths.{name}: the batch leg ran {report.mode} "
                f"({report.fallback_reason}), not as recorded in REFUSED"
            )


# ----------------------------------------------------------------------
# derived: state the first reader builds
# ----------------------------------------------------------------------
#: FIN-OPT's largest string column: of the vertex properties holding
#: only strings, the one with the most values, at the label carrying
#: the most of them (2,933 vertices at scale 1).
FIRST_ASK_COLUMN = ("AutonomousAgent", "agentId")


def derived(bench: Bench) -> None:
    fin = build_fin()
    pipeline = build_pipeline(fin, scale=bench.scale)
    graph = pipeline.dir_graph

    def adjacency_fold():
        graph._arrays = None            # unfrozen ...
        graph._base = None              # ... and as a bulk load leaves it
        graph.out_edges(0)

    (samples,) = bench.time([adjacency_fold], 7)
    bench.row(
        "derived.adjacency_fold", "ms", samples * 1e3, dataset="fin-dir",
        vertices=graph.num_vertices, edges=graph.num_edges,
    )

    def freeze():
        graph._arrays = None            # a new epoch, not yet frozen
        graph.freeze()

    (samples,) = bench.time([freeze], 7)
    csr_bytes, payload_bytes = graph.freeze().csr_nbytes()
    bench.row(
        "derived.freeze", "ms", samples * 1e3, dataset="fin-dir",
        csr_bytes=csr_bytes, payload_bytes=payload_bytes,
    )
    page_traces(bench, graph, fin.queries)
    opt_graph = pipeline.opt_graph
    label, prop = FIRST_ASK_COLUMN
    rows = opt_graph.arrays().label_vids(label)
    vid = int(rows[0])
    value = opt_graph.vertex(vid).properties[prop]
    rounds = 15
    # One build per call (the untimed one too) whose estimates are
    # unasked: a build keeps what its first ask counts.
    builds = [GraphStatistics.build(opt_graph)
              for _ in range(2 if bench.smoke else rounds + 1)]

    def first_ask():
        opt_graph.set_property(vid, prop, value)  # a new epoch, no codes
        builds.pop().avg_eq_estimate(label, prop)

    opt, dir_, ask = bench.time([
        lambda: GraphStatistics.build(opt_graph),
        lambda: GraphStatistics.build(graph),
        first_ask,
    ], rounds)
    opt_graph.freeze()                  # frozen again, as built
    bench.row(
        "derived.stats_build", "ms", opt * 1e3, dataset="fin-opt",
        dir_ms=round(bench.quartiles(dir_ * 1e3)[1], 2),
        vertices=opt_graph.num_vertices, edges=opt_graph.num_edges,
        first_ask_ms=round(bench.quartiles(ask * 1e3)[1], 3),
        first_ask_column=f"{label}.{prop}",
        first_ask_rows=len(rows),
    )
    snapshot(bench, opt_graph)
    load(bench, fin, pipeline.result.mapping)
    # The paper's PageRank runs over an ontology's concepts (tens of
    # them), once per optimization, never over an instance graph.
    runs = 1 if bench.smoke else PAGERANK_RUNS
    paper = (build_med(), build_fin())
    for dataset in paper:
        ontology = dataset.ontology

        def ranks():
            for _ in range(runs):
                ontology_pagerank(ontology)

        (samples,) = bench.time([ranks], 15)
        bench.row(
            f"derived.ontology_pagerank.{dataset.name.lower()}", "us",
            samples / runs * 1e6, concepts=len(ontology.concepts),
            iterations=ontology_pagerank(ontology).iterations,
        )
    for dataset in paper:
        optimizer_stages(bench, dataset)


def snapshot(bench: Bench, graph) -> None:
    """FIN-OPT written to a snapshot (fsync included) and read back:
    the bytes and ms of the column codec the snapshot shares with the
    wire (e2e's ``storage.*`` rows time MED-DIR only)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fin-opt.rpgs"
        written = []
        write, read = bench.time([
            lambda: written.append(write_snapshot(graph, path)),
            lambda: read_snapshot(path),
        ], 7)
    bench.row(
        "derived.snapshot", "ms", (write + read) * 1e3, dataset="fin-opt",
        bytes=written[-1],
        write_ms=round(bench.quartiles(write * 1e3)[1], 2),
        read_ms=round(bench.quartiles(read * 1e3)[1], 2),
    )


def optimizer_stages(bench: Bench, dataset) -> None:
    """One ``optimize()`` on a paper dataset at the microbenchmark's
    budget and thresholds, and the ms of its five stages (corrected as
    the total is): pricing the rules (``model_ms``), RC's and CC's
    selection (``rc_ms``, ``cc_ms``), and the winner's rule fixpoint
    (``transform_ms``) and schema generation (``schema_ms``).  The
    loser is not realized.  e2e times the optimizer whole, inside a
    round that also generates and loads data."""
    workload = dataset.query_workload()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    budget = model.budget_for_fraction(MICROBENCH_BUDGET_FRACTION)
    stages = {
        "model": (pgsg, "CostBenefitModel"),
        "rc": (pgsg, "select_relation_centric"),
        "cc": (pgsg, "select_concept_centric"),
        "transform": (optimizer_result, "transform"),
        "schema": (optimizer_result, "generate_schema"),
    }
    spent = dict.fromkeys(stages, 0.0)

    def timed(stage, call):
        def run(*args, **kwargs):
            start = perf_counter()
            value = call(*args, **kwargs)
            spent[stage] += perf_counter() - start
            return value
        return run

    runs: list[tuple[float, list[float]]] = []

    def optimize():
        spent.update(dict.fromkeys(spent, 0.0))
        start = perf_counter()
        pgsg.optimize(
            dataset.ontology, dataset.stats, budget, workload,
            MICROBENCH_THRESHOLDS,
        )
        runs.append((perf_counter() - start, list(spent.values())))

    with patched({
        key: timed(stage, getattr(*key)) for stage, key in stages.items()
    }):
        (samples,) = bench.time([optimize], 15)
    totals, parts = map(np.array, zip(*runs[1:]))    # [0] is untimed
    stage_ms = np.median(parts * (samples / totals)[:, None] * 1e3, axis=0)
    bench.row(
        f"derived.optimize.{dataset.name.lower()}", "ms", samples * 1e3,
        budget=budget, **{
            f"{stage}_ms": round(float(ms), 2)
            for stage, ms in zip(stages, stage_ms)
        },
    )


def load(bench: Bench, dataset, mapping) -> None:
    """The cold build of one dataset's two graphs: generate, then
    ``load_direct`` and ``load_optimized``, each part's ms (corrected
    as the total is) and the collector's passes by generation a
    round.  Two phases of ``load_optimized`` are attributed too: the
    replicated lists' build (``lists_ms``, the time inside the
    ``_replicated_lists`` generator) and their writes
    (``set_properties_ms``)."""
    parts: list[tuple[float, ...]] = []
    passes: list[list[int]] = []
    phases: list[list[float]] = []
    spent = [0.0, 0.0]              # lists, set_properties
    lists = loader._replicated_lists
    write = PropertyGraph.set_properties

    def timed_lists(*args, **kwargs):
        entries = lists(*args, **kwargs)
        while True:
            start = perf_counter()
            entry = next(entries, None)
            spent[0] += perf_counter() - start
            if entry is None:
                return
            yield entry

    def timed_write(graph, name, values):
        start = perf_counter()
        write(graph, name, values)
        spent[1] += perf_counter() - start

    def build():
        spent[:] = [0.0, 0.0]
        before = [stat["collections"] for stat in gc.get_stats()]
        start = perf_counter()
        logical = dataset.logical(scale=bench.scale)
        generated = perf_counter()
        load_direct(logical)
        loaded = perf_counter()
        load_optimized(logical, mapping)
        parts.append((start, generated, loaded, perf_counter()))
        phases.append(list(spent))
        passes.append([
            stat["collections"] - was
            for stat, was in zip(gc.get_stats(), before)
        ])

    loader._replicated_lists = timed_lists
    PropertyGraph.set_properties = timed_write
    try:
        (samples,) = bench.time([build], 9)
    finally:
        loader._replicated_lists = lists
        PropertyGraph.set_properties = write
    timed = np.array(parts[1:])     # the first run is the untimed one
    scale = samples / (timed[:, 3] - timed[:, 0])
    spans = np.diff(timed, axis=1) * scale[:, None] * 1e3
    generate_ms, dir_ms, opt_ms = np.median(spans, axis=0)
    lists_ms, set_properties_ms = np.median(
        np.array(phases[1:]) * scale[:, None] * 1e3, axis=0
    )
    bench.row(
        "derived.load", "ms", samples * 1e3, dataset="fin",
        generate_ms=round(float(generate_ms), 2),
        load_dir_ms=round(float(dir_ms), 2),
        load_opt_ms=round(float(opt_ms), 2),
        lists_ms=round(float(lists_ms), 2),
        set_properties_ms=round(float(set_properties_ms), 2),
        gc_collections=[
            float(np.median(column)) for column in zip(*passes[1:])
        ],
    )


class _LoggedRun:
    """A pipeline run's page charges, settled as usual and logged in
    order: ``(kind, vids, dedup)`` per call, ``None`` where rows left
    the run."""

    def __init__(self, run, log):
        self.run = run
        self.log = log

    @property
    def metrics(self):
        return self.run.metrics

    def charge_pages(self, kind, vids, dedup):
        self.log.append((kind, vids.copy(), dedup))
        self.run.charge_pages(kind, vids, dedup)

    def settled(self, chunks):
        for chunk in self.run.settled(chunks):
            self.log.append(None)
            yield chunk


class _LoggedSession(GraphSession):
    log: list

    def page_run(self, pages):
        return _LoggedRun(super().page_run(pages), self.log)


def _settle_log(session, pages: PageTraces, log) -> None:
    """One pipeline run's charges, as ``log`` has them, on ``session``:
    recorded when ``pages`` keeps nothing yet, else replayed."""
    run = session.page_run(pages)

    def chunks():
        for event in log:
            if event is None:
                yield None
            else:
                run.charge_pages(*event)

    for _ in run.settled(chunks()):
        pass


def page_traces(bench: Bench, graph, queries) -> None:
    """The page charges of one run of the paper ops on ``graph``,
    settled as a pipeline's first run settles them (each call traced
    from its vids and settled alone, the traces recorded) against a
    later run (the recording's calls by ordinal, merged while their
    pages fit the cache).  Both share one page cache, so the LRU
    settles the same touches; ``settles`` counts a replaying run's
    cache settles, one per merged unit."""
    logs = []
    logged = _LoggedSession(graph, NEO4J_LIKE)
    executor = Executor(logged)
    for query in queries.values():
        logged.log = []
        executor.run(query)
        logs.append(logged.log)
    kept = [PageTraces() for _ in logs]
    runs = 1 if bench.smoke else TRACE_RUNS

    def one_pass(session, traces):
        for pages, log in zip(traces, logs):
            _settle_log(session, pages, log)

    def counters(traces):
        session = GraphSession(graph, NEO4J_LIKE)
        one_pass(session, traces)
        metrics = session.metrics
        return [metrics.page_hits, metrics.page_misses], list(
            session.cache._pages
        )

    recorded = counters(kept)  # also keeps every op's traces
    replayed = counters(kept)
    session = GraphSession(graph, NEO4J_LIKE)

    def record():
        for _ in range(runs):
            one_pass(session, [PageTraces() for _ in logs])

    def replay():
        for _ in range(runs):
            one_pass(session, kept)

    fresh, warm = bench.time([record, replay], 15)
    _, record_us, _ = bench.quartiles(fresh / runs * 1e6)
    _, replay_us, _ = bench.quartiles(warm / runs * 1e6)
    q1, ratio, q3 = bench.quartiles(fresh / warm)
    capacity = session.cache.capacity
    bench.row(
        "derived.page_traces", "us", warm / runs * 1e6, dataset="fin-dir",
        record_us=round(record_us, 1), replay_us=round(replay_us, 1),
        ratio=round(ratio, 2), ratio_iqr=round(q3 - q1, 2),
        calls=sum(event is not None for log in logs for event in log),
        settles=sum(len(pages.kept.units(capacity)) for pages in kept),
        vids=sum(len(event[1]) for log in logs for event in log if event),
        record_pages=recorded[0], replay_pages=replayed[0],
        same_order=recorded[1] == replayed[1],
    )


# ----------------------------------------------------------------------
# group_commit: fsyncs per commit under concurrent remote writers
# ----------------------------------------------------------------------
def group_commit(bench: Bench) -> None:
    def histogram() -> np.ndarray:
        snap = observe.REGISTRY.snapshot()["histograms"][
            "repro_wal_group_commit_batch_size"
        ]
        return np.array([snap["count"], snap["sum"]])   # fsyncs, commits

    for writers in WRITERS[:2] if bench.smoke else WRITERS:
        errors: list[BaseException] = []
        counts: list[np.ndarray] = []
        with tempfile.TemporaryDirectory() as tmp:
            GraphStore.create(Path(tmp) / "data", PropertyGraph("gc")).close()
            database = connect(Path(tmp) / "data")
            server = ServerThread(database)     # builds a default config
            server.server = GraphServer(
                database, ServerConfig(port=0, group_window=GROUP_WINDOW_S)
            )
            url = server.start()

            def write(idx: int, barrier) -> None:
                try:
                    with connect(url) as db, db.session() as session:
                        barrier.wait()
                        for i in range(COMMITS_EACH):
                            with session.begin_tx() as tx:
                                tx.add_vertex("W", {"w": idx, "i": i})
                                tx.commit()
                except BaseException as exc:  # noqa: BLE001 - raised below
                    errors.append(exc)

            def burst() -> None:
                before = histogram()
                barrier = threading.Barrier(writers)
                threads = [
                    threading.Thread(target=write, args=(i, barrier))
                    for i in range(writers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                counts.append(histogram() - before)

            try:
                (seconds,) = bench.time([burst], 5)
            finally:
                stopped = server.stop()
                database.close()
        if errors:
            raise errors[0]
        fsyncs, commits = np.array(counts[1:]).T    # [0] is the warm-up
        if not stopped or (commits != writers * COMMITS_EACH).any():
            raise RuntimeError(
                f"{writers} writers committed {commits.tolist()} per burst; "
                f"server thread stopped: {stopped}"
            )
        entry = bench.row(
            f"group_commit.writers_{writers}", "fsync/commit",
            fsyncs / commits, commits=int(commits.sum()),
            fsyncs=int(fsyncs.sum()), group_window_s=GROUP_WINDOW_S,
            commits_per_s=round(bench.quartiles(commits / seconds)[1], 1),
        )
        if writers == WRITERS[-1] and entry["median"] >= MAX_FSYNC_PER_COMMIT:
            bench.failures.append(
                f"{entry['name']}: {entry['median']} fsync/commit, "
                f"the ceiling is {MAX_FSYNC_PER_COMMIT}"
            )


# ----------------------------------------------------------------------
# budgets: what instrumentation that is switched off may cost
# ----------------------------------------------------------------------
POINT_QUERY = "MATCH (d:Drug {id: $id}) RETURN d.name"
EXPAND_QUERY = (
    "MATCH (d:Drug {grp: $g})-[:treats]->(c:Condition) RETURN d.name, c.cid"
)


class _Noop:
    """Stands in for a Counter / Gauge / Histogram handle."""

    def inc(self, *args) -> None:
        pass

    observe = set = inc


@contextmanager
def patched(values: dict):
    """``{(owner, attribute): value}`` set for the length of one leg."""
    saved = {key: getattr(*key) for key in values}
    for key, value in values.items():
        setattr(*key, value)
    try:
        yield
    finally:
        for key, value in saved.items():
            setattr(*key, value)


def budgets(bench: Bench) -> None:
    graph = PropertyGraph("budgets")
    drugs = [
        graph.add_vertex("Drug", {"id": i, "name": f"d{i}", "grp": i % 20})
        for i in range(1000)
    ]
    conditions = [graph.add_vertex("Condition", {"cid": i}) for i in range(200)]
    for i, drug in enumerate(drugs):
        for step in (1, 7, 31):
            graph.add_edge(drug, conditions[i * step % 200], "treats")
    graph.create_property_index("Drug", "id")
    graph.create_property_index("Drug", "grp")

    registry = observe.REGISTRY
    enabled = {(registry, "enabled"): True}
    disabled = {(registry, "enabled"): False}
    noop = _Noop()
    # The handles the driver updates once per query, as raw no-ops.
    bare = {
        **disabled,
        (result_mod, "_QUERIES"): noop,
        (result_mod, "_QUERY_ROWS"): noop,
        (result_mod, "_QUERY_SECONDS"): noop,
    }
    passthrough = {
        (faults, "fire"): lambda point: None,
        (faults, "write"): lambda point, fh, data: fh.write(data),
        (faults, "retrying"): lambda op: op(),
    }
    # A leg is ~20 ms: on a shared host longer legs meet more of its
    # stalls and their ratios spread wider, not narrower.
    scale = 0.05 if bench.smoke else 1.0

    with connect(graph) as db, db.session() as session:
        def points(patches: dict):
            """Hot indexed point queries: ~40 us each, so a per-query
            counter update is as visible as it will ever be."""
            def run():
                with patched(patches):
                    for i in range(int(500 * scale)):
                        session.run(POINT_QUERY, id=i % 1000).consume()
            return run

        def expands(traced: bool):
            """A two-step expansion returning ~150 rows."""
            def run():
                for i in range(int(60 * scale)):
                    session.run(EXPAND_QUERY, g=i % 20, trace=traced).consume()
            return run

        bench.ratio_row(
            "budgets.observe_disabled_vs_noop",
            [points(disabled), points(bare)], 40, budget=1.02,
        )
        bench.ratio_row(
            "budgets.observe_traced_vs_untraced",
            [expands(True), expands(False)], 40, budget=1.10,
        )
        bench.ratio_row(
            "budgets.observe_enabled_vs_disabled",
            [points(enabled), points(disabled)], 40,
        )

    # On tmpfs where there is one: a disk's fsync is most of this leg
    # and all of its spread, and against the CPU-only path the hooks'
    # share is at its largest - a budget held here holds on a disk.
    shm = "/dev/shm" if Path("/dev/shm").is_dir() else None
    with tempfile.TemporaryDirectory(dir=shm) as tmp:
        def appends(patches: dict):
            """WAL appends in batch-sync mode: every flush passes four
            failpoint hooks."""
            def run():
                with patched(patches):
                    path = Path(tmp) / "budget.rpgw"
                    path.unlink(missing_ok=True)
                    wal = WriteAheadLog(path, generation=1, sync="batch")
                    for i in range(int(8000 * scale)):
                        wal.append("set_property", (i % 1000, "w", float(i)))
                    wal.close()
            return run

        faults.REGISTRY.reset()
        bench.ratio_row(
            "budgets.failpoints_disarmed_vs_passthrough",
            [appends({}), appends(passthrough)], 40, budget=1.02,
            failpoints=len(faults.registered_failpoints()),
        )


# ----------------------------------------------------------------------
# driver: what Session.run + iterate + consume adds to Executor.run
# ----------------------------------------------------------------------
DRIVER_QUERY = "MATCH (d:Drug) WHERE d.id = $id RETURN d.name"


def driver(bench: Bench) -> None:
    """The driver's fixed cost per query: a warm one-row point query
    (a label scan with a pushed equality, batch path) through
    ``Session.run`` + iterate + ``consume`` against the same query
    through ``Executor.run`` on a twin session, as alternating pairs.
    Their difference is the seam alone: every end-to-end workload
    times it together with the executor's work."""
    graph = PropertyGraph("driver")
    for i in range(200):
        graph.add_vertex("Drug", {"id": i, "name": f"d{i}"})
    graph.freeze()
    runs = 1 if bench.smoke else DRIVER_RUNS
    executor = Executor(GraphSession(graph, NEO4J_LIKE))
    report = ExecutionReport()
    rows = len(list(executor.stream(DRIVER_QUERY, {"id": 7}, report=report)[3]))
    executor.session.reset_metrics()

    with connect(graph) as db, db.session() as session:
        def through_driver():
            for _ in range(runs):
                result = session.run(DRIVER_QUERY, id=7)
                for _ in result:
                    pass
                result.consume()

        def through_executor():
            for _ in range(runs):
                executor.run(DRIVER_QUERY, {"id": 7})

        seam, bare = bench.time([through_driver, through_executor], 41)
    _, driver_us, _ = bench.quartiles(seam / runs * 1e6)
    _, executor_us, _ = bench.quartiles(bare / runs * 1e6)
    bench.row(
        "driver.fixed_us", "us", (seam - bare) / runs * 1e6,
        driver_us=round(driver_us, 2), executor_us=round(executor_us, 2),
        rows=rows, mode=report.mode,
    )


SECTIONS = {
    "paths": paths, "derived": derived,
    "group_commit": group_commit, "budgets": budgets, "driver": driver,
}


def tree_dirty() -> bool | None:
    """Whether tracked files, this report aside, differ from the commit
    the header names - the rows then time that commit plus those
    edits; None where git cannot tell."""
    try:
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return any(
        not line.endswith("BENCH_micro.json") for line in status.splitlines()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--only", choices=sorted(SECTIONS), metavar="SECTION")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = args.out or (
        None if args.smoke or args.only else ROOT / "BENCH_micro.json"
    )

    host = HostSpeed()
    bench = Bench(host, args.smoke)
    host.start()
    started = perf_counter()
    try:
        for name in [args.only] if args.only else SECTIONS:
            SECTIONS[name](bench)
    finally:
        host.stop()
    ended = perf_counter()
    header = {
        "suite": "micro",
        "commit": git_commit(),
        "dirty": tree_dirty(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "smoke": args.smoke,
        "scale": bench.scale,
        "seconds": round(ended - started, 1),
        "host.slowdown_p50": round(host.slowdown(started, ended), 3),
    }
    print("# " + " ".join(f"{key}={value}" for key, value in header.items()))
    if out is not None:
        out.write_text(
            json.dumps({"header": header, "rows": bench.rows}, indent=2) + "\n"
        )
        print(f"wrote {out}")
    for failure in bench.failures:
        sys.stderr.write(f"benchmarks/micro: {failure}\n")
    return 1 if bench.failures else 0


if __name__ == "__main__":
    # One CPU for every thread, as benchmarks/e2e/run.py pins itself:
    # hand-overs between two virtual CPUs are this host's noisiest cost.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    raise SystemExit(main())
