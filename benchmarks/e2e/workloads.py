"""The four workloads of the end-to-end benchmark.

Every workload is measured from outside the program: it calls public
functions of ``repro`` and reads the counters the program already
exports (``ResultSummary.metrics``, ``observe.REGISTRY.snapshot()``).
Nothing here patches or imports private names of ``src/``.

A workload object goes through ``setup`` (several times in an untraced
run, to time set-up), ``timed`` (once untraced; in a traced run a short
untraced slice and then a traced one), ``finish`` (checks that need the
whole run) and ``teardown``.  The timed phase is a closed loop of
*rounds* - the unit of repeated work - and every timed operation of a
round is kept as one sample: its kind, when it started and ended, and
how long it took.  All statistics are computed afterwards, on timings
corrected for the host's speed (``hostspeed``).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import math
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from repro.bench.harness import (
    MICROBENCH_BUDGET_FRACTION,
    MICROBENCH_THRESHOLDS,
    Pipeline,
    build_pipeline,
)
from repro.data.loader import load_direct, load_optimized
from repro.datasets import build_fin, build_med
from repro.graphdb import connect, observe
from repro.graphdb.query import (
    EdgeBinding,
    VertexBinding,
    build_plan,
    parse_query,
    query_text,
)
from repro.graphdb.server import GraphServer, ServerConfig
from repro.graphdb.server import protocol as wire
from repro.graphdb.storage import GraphStore
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.pgsg import optimize
from repro.workload.rewriter import QueryRewriter

from hostspeed import HostSpeed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Timings are medians over this many equal blocks of the timed phase.
BLOCKS = 7

#: A query nothing matches: its latency over ``repro://`` is one RUN
#: plus one PULL round trip and no rows (``remote.rtt_us``).
ZERO_ROW_QUERY = "MATCH (n:NoSuchLabelInAnyGraph) RETURN n"

WORK_COUNTERS = (
    "edge_traversals", "vertex_reads", "property_reads", "page_misses",
)


# ----------------------------------------------------------------------
# Run configuration and correctness bookkeeping
# ----------------------------------------------------------------------
@dataclass
class RunConfig:
    seed: int
    scale: float
    #: Upper bound on rounds in one timed phase (smoke mode only; the
    #: clock ends a full run).
    max_rounds: int | None
    #: Comparison values for the default seed (``expected.json``), or
    #: ``None`` when the seed has none.
    expected: dict | None


class Checks:
    """Operations attempted and failed, by category (SNIPPETS.md 1)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_kind: dict[str, int] = {}
        self.messages: list[str] = []

    def passed(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, kind: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {message}")

    def expect(self, ok: bool, kind: str, message: str) -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail(kind, message)


# ----------------------------------------------------------------------
# Samples and their statistics
# ----------------------------------------------------------------------
class Samples:
    """The timed operations of one phase, in the order they ran: the
    kind of each (a small integer the workload gives meaning to) and
    its times.  Kept in arrays allocated up front, so that the timed
    phase itself holds on to no new objects."""

    def __init__(self, capacity: int = 1 << 14):
        self.count = 0
        self._kind = np.zeros(capacity, dtype=np.int64)
        #: Columns: wall start, wall end, measured length (``end -
        #: start`` unless timed on the thread's CPU clock).
        self._times = np.zeros((capacity, 3))
        #: Number of samples when each round completed.
        self.round_ends: list[int] = []

    def add(self, kind: int, start: float, end: float, duration=None):
        index = self.count
        if index == len(self._kind):
            self._kind = np.concatenate((self._kind, self._kind))
            self._times = np.concatenate((self._times, self._times))
        self._kind[index] = kind
        self._times[index] = (
            start, end, end - start if duration is None else duration
        )
        self.count = index + 1

    def end_round(self) -> None:
        self.round_ends.append(self.count)

    @property
    def complete(self) -> int:
        """Number of samples in complete rounds."""
        return self.round_ends[-1] if self.round_ends else 0

    @property
    def kind(self) -> np.ndarray:
        return self._kind[:self.complete]

    def wall(self) -> np.ndarray:
        times = self._times[:self.complete]
        return times[:, 1] - times[:, 0]

    def latencies(self, host: HostSpeed | None) -> np.ndarray:
        """Seconds per sample (complete rounds only): corrected for the
        host's speed, or as measured when ``host`` is ``None``."""
        times = self._times[:self.complete]
        if host is None:
            return times[:, 2].copy()
        return host.correct(times[:, 0], times[:, 1], times[:, 2])

    def round_of(self) -> np.ndarray:
        """Round number of every sample of a complete round."""
        sizes = np.diff([0] + self.round_ends)
        return np.repeat(np.arange(len(sizes)), sizes)

    def per_round(self, lat: np.ndarray, mask=None) -> np.ndarray:
        """Per round, the summed latency of its (selected) samples."""
        weights = lat if mask is None else np.where(mask, lat, 0.0)
        return np.bincount(
            self.round_of(), weights=weights, minlength=len(self.round_ends)
        )

    def per_kind_p50(self, lat: np.ndarray) -> dict[int, float]:
        kind = self.kind
        return {
            int(k): float(np.median(lat[kind == k])) for k in np.unique(kind)
        }


def median(values) -> float:
    """0 for no values: a layer the workload leaves idle."""
    return float(np.median(values)) if len(values) else 0.0


def midmean(values) -> float:
    """Mean of the middle half of the values: as indifferent to the
    heavy kinds of a mix as the median, but resting on half of the
    kinds where the median rests on one or two."""
    values = np.sort(np.asarray(values, dtype=float))
    quarter = len(values) // 4
    return float(values[quarter:len(values) - quarter].mean())


def block_medians(values, stat=np.median) -> list[float]:
    """``stat`` of each of up to BLOCKS equal consecutive blocks."""
    values = np.asarray(values, dtype=float)
    blocks = min(BLOCKS, len(values))
    edges = [round(i * len(values) / blocks) for i in range(blocks + 1)]
    return [float(stat(values[lo:hi])) for lo, hi in zip(edges, edges[1:])]


def p95(block) -> float:
    return float(np.percentile(block, 95))


def exported() -> dict[str, float]:
    """The program's exported counters, flattened to name -> number."""
    snap = observe.REGISTRY.snapshot()
    flat: dict[str, float] = dict(snap["counters"])
    for name, labeled in snap["labeled_counters"].items():
        flat[name] = sum(labeled["values"].values())
    for name, hist in snap["histograms"].items():
        flat[name + "_sum"] = hist["sum"]
        flat[name + "_count"] = hist["count"]
    return flat


def delta(before: dict, after: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def elapsed(host: HostSpeed, start: float) -> float:
    """Corrected seconds from ``start`` to now."""
    return float(host.correct([start], [perf_counter()])[0])


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# ----------------------------------------------------------------------
# Rows: canonical forms for comparison
# ----------------------------------------------------------------------
def _plain(value):
    """Order-independent stand-in for list cells."""
    if isinstance(value, (list, tuple)):
        return tuple(sorted(repr(_plain(v)) for v in value))
    return value


def digest(rows) -> str:
    """Order-independent digest of a result."""
    lines = sorted(repr(tuple(_plain(v) for v in row)) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def flattened(rows) -> list:
    """The multiset the paper's equivalence claim is about: list cells
    (OPT's replicated properties) expand to one row per element, and
    entity cells compare by kind only - vertex ids necessarily differ
    between the DIR and the OPT graph."""
    out = []
    for row in rows:
        cells = [v if isinstance(v, list) else (v,) for v in row]
        for combo in itertools.product(*cells):
            out.append(tuple(
                "entity"
                if isinstance(v, (VertexBinding, EdgeBinding)) else v
                for v in combo
            ))
    return sorted(out, key=repr)


def same_rows(a, b) -> bool:
    def key(row):
        return repr(tuple(_plain(v) for v in row))

    return sorted(map(key, a)) == sorted(map(key, b))


# ----------------------------------------------------------------------
# Inputs: datasets, pipelines, query operations
# ----------------------------------------------------------------------
def datasets(seed: int) -> list:
    """MED and FIN with ``seed`` driving instance generation.  The
    ontology statistics keep their published defaults, so the
    optimizer's choice of rules does not depend on the seed."""
    out = []
    for build in (build_med, build_fin):
        dataset = build()
        dataset.seed = seed
        out.append(dataset)
    return out


def priced_optimize(dataset, tracer: Tracer | None = None):
    """The optimizer step alone (paper Table 2): price the rules, set
    the budget, select."""
    tracer = tracer or Tracer()
    with tracer.span("optimizer.model"):
        workload = dataset.query_workload()
        model = CostBenefitModel(
            dataset.ontology, dataset.stats, workload,
            MICROBENCH_THRESHOLDS,
        )
        budget = model.budget_for_fraction(MICROBENCH_BUDGET_FRACTION)
    with tracer.span("optimizer.optimize." + dataset.name.lower()):
        return optimize(
            dataset.ontology, dataset.stats, budget, workload,
            MICROBENCH_THRESHOLDS,
        )


def traced_pipeline(dataset, scale: float, tracer: Tracer) -> Pipeline:
    """``build_pipeline``'s steps as direct calls, one span per layer.

    Only the traced pass uses this; end-to-end numbers always come
    from ``build_pipeline`` itself, so a change to how the harness
    composes the steps shows there."""
    result = priced_optimize(dataset, tracer)
    with tracer.span("data.generate"):
        logical = dataset.logical(scale=scale)
    with tracer.span("data.load_dir"):
        dir_graph = load_direct(logical, name=f"{dataset.name}-DIR")
    with tracer.span("data.load_opt"):
        opt_graph = load_optimized(
            logical, result.mapping, name=f"{dataset.name}-OPT"
        )
    with tracer.span("graph.freeze"):
        dir_graph.freeze()
        opt_graph.freeze()
    with tracer.span("workload.rewrite"):
        rewriter = QueryRewriter(dataset.ontology, result.mapping)
        rewritten = {
            qid: rewriter.rewrite(text)
            for qid, text in dataset.queries.items()
        }
    return Pipeline(
        dataset=dataset, result=result, logical=logical,
        dir_graph=dir_graph, opt_graph=opt_graph,
        rewriter=rewriter, rewritten=rewritten,
    )


def make_pipeline(dataset, scale: float, tracer: Tracer | None) -> Pipeline:
    if tracer is not None:
        return traced_pipeline(dataset, scale, tracer)
    return build_pipeline(dataset, scale=scale, cache_dir=None)


def pipeline_graphs(pipelines) -> dict:
    return {
        (p.dataset.name, side): graph
        for p in pipelines
        for side, graph in (("dir", p.dir_graph), ("opt", p.opt_graph))
    }


def pipeline_facts(pipeline: Pipeline) -> dict:
    """What every build of the same inputs must reproduce."""
    name = pipeline.dataset.name
    rules = sorted(
        "|".join(map(str, item.key))
        for item in pipeline.result.selected_items
    )
    return {
        f"graph.{name}.dir": [
            pipeline.dir_graph.num_vertices, pipeline.dir_graph.num_edges
        ],
        f"graph.{name}.opt": [
            pipeline.opt_graph.num_vertices, pipeline.opt_graph.num_edges
        ],
        f"rules.{name}": [
            len(rules),
            hashlib.sha256("\n".join(rules).encode()).hexdigest()[:16],
            round(pipeline.result.benefit_ratio, 12),
        ],
    }


@dataclass
class Op:
    """One (graph, query) operation of the mix."""

    dataset: str
    side: str          # "dir" or "opt"
    qid: str
    query: object      # what ``session.run`` receives
    session: object
    rows: int = -1     # row count every execution must reproduce

    @property
    def key(self) -> str:
        return f"{self.dataset}.{self.side}.{self.qid}"


def opt_text(pipeline: Pipeline, qid: str) -> tuple[str, bool]:
    """The rewritten query as text, and whether the text still means
    the same: ``query_text`` cannot express the rewriter's flattened
    aggregates, so those parse back to a different query."""
    rewritten = pipeline.rewritten[qid]
    text = query_text(rewritten)
    return text, parse_query(text) == rewritten


def build_ops(pipelines, sessions, text_only: bool = False) -> list[Op]:
    """The 24 operations {MED,FIN} x {DIR,OPT} x 6 queries.

    OPT queries go in as text - the same parse / plan-cache path DIR
    takes - wherever the text is faithful, and as the rewriter's
    ``Query`` object otherwise.  ``text_only`` (the wire carries text
    and nothing else) sends the unfaithful text."""
    ops = []
    for pipeline in pipelines:
        name = pipeline.dataset.name
        for side in ("dir", "opt"):
            session = sessions[name, side]
            for qid, text in pipeline.dataset.queries.items():
                query: object = text
                if side == "opt":
                    query, faithful = opt_text(pipeline, qid)
                    if not faithful and not text_only:
                        query = pipeline.rewritten[qid]
                ops.append(Op(name, side, qid, query, session))
    return ops


def open_sessions(graphs: dict) -> tuple[dict, dict]:
    """An in-process database and one session per graph."""
    dbs = {key: connect(graph) for key, graph in graphs.items()}
    return dbs, {key: db.session() for key, db in dbs.items()}


def close_all(*groups) -> None:
    for group in groups:
        for item in group.values():
            item.close()
        group.clear()


def run_query(session, query, tracer: Tracer | None = None, **params):
    """One query operation: run, iterate to exhaustion, consume.
    Returns (start, end, rows, summary); with a tracer, one span per
    driver call under an ``op`` span."""
    if tracer is None:
        start = perf_counter()
        result = session.run(query, **params)
        rows = 0
        for _ in result:
            rows += 1
        summary = result.consume()
        return start, perf_counter(), rows, summary
    outer = tracer.span("op")
    with outer:
        with tracer.span("session.run"):
            result = session.run(query, **params)
        rows = 0
        with tracer.span("cursor.iterate"):
            for _ in result:
                rows += 1
        with tracer.span("result.consume"):
            summary = result.consume()
    return outer.start, outer.end, rows, summary


def fetch_rows(op: Op) -> list[tuple]:
    return [tuple(record) for record in op.session.run(op.query)]


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: Peak RSS is read after this many rounds of the timed phase - a
    #: fixed amount of work, so that a faster program, which does more
    #: rounds in the same seconds, does not read as a bigger one.
    rss_round = 0

    def __init__(self, cfg: RunConfig, checks: Checks, host: HostSpeed):
        self.cfg = cfg
        self.checks = checks
        self.host = host
        self.rng = random.Random(cfg.seed)
        #: Facts observed in set-up that ``expected.json`` pins for
        #: the default seed (also what ``--write-expected`` writes).
        self.observed: dict = {}
        #: Spans of the set-up of a traced run.
        self.setup_tracer: Tracer | None = None
        self.rss_mb = 0.0
        self.reset_samples()

    def reset_samples(self) -> None:
        self.samples = Samples()
        self.phase = (0.0, 0.0)
        #: Seconds of the phase that are deliberately not measured.
        self.untimed = 0.0
        self.tracer: Tracer | None = None
        self.counters: dict[str, float] = {}

    def is_query(self, kind: np.ndarray) -> np.ndarray:
        """Which kinds of sample are query operations (the ones
        ``query_ms_p50`` is about)."""
        return np.ones(len(kind), dtype=bool)

    # -- life cycle ------------------------------------------------------
    def setup(self, tracer: Tracer | None = None) -> None:
        raise NotImplementedError

    def timed(self, seconds: float, tracer: Tracer | None = None) -> None:
        """Rounds until ``seconds`` have passed."""
        self.tracer = tracer
        before = exported()
        done = 0
        start = perf_counter()
        deadline = start + seconds
        while self.more_rounds(done, deadline):
            if tracer is not None:
                tracer.op = done
            self.round(tracer)
            self.samples.end_round()
            done += 1
        self.phase = (start, perf_counter())
        self.counters = delta(before, exported())
        self.checks.expect(done > 0, "empty", "no round completed")

    def round(self, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def more_rounds(self, done: int, deadline: float) -> bool:
        if done == self.rss_round and not self.rss_mb:
            self.rss_mb = peak_rss_mb()
        limit = self.cfg.max_rounds
        if limit is not None and done >= limit:
            return False
        return perf_counter() < deadline

    def finish(self) -> None:
        """Checks that need the whole run (after the timed phase)."""

    def teardown(self) -> None:
        raise NotImplementedError

    # -- results ---------------------------------------------------------
    def end_to_end(self, corrected: bool = True) -> dict:
        """Metric -> (value in ms, the blocks' values in ms)."""
        samples = self.samples
        lat = samples.latencies(self.host if corrected else None)
        kind = samples.kind
        bounds = [0] + samples.round_ends
        rounds = len(samples.round_ends)
        sums = samples.per_round(lat)
        out: dict[str, list[float]] = {
            "query_ms_p50": [], "heavy_ms_p50": [], "round_ms_p50": [],
        }
        blocks = min(BLOCKS, rounds)
        for block in range(blocks):
            first = round(block * rounds / blocks)
            last = round((block + 1) * rounds / blocks)
            lo, hi = bounds[first], bounds[last]
            kinds = np.unique(kind[lo:hi])
            p50 = np.asarray([
                np.median(lat[lo:hi][kind[lo:hi] == k]) for k in kinds
            ])
            out["query_ms_p50"].append(
                midmean(p50[self.is_query(kinds)]) * 1e3
            )
            out["heavy_ms_p50"].append(float(p50.max()) * 1e3)
            out["round_ms_p50"].append(
                float(np.median(sums[first:last])) * 1e3
            )
        return {name: (median(v), v) for name, v in out.items()}

    def query_ms_p50(self) -> float:
        return self.end_to_end()["query_ms_p50"][0]

    def details(self) -> dict[str, float]:
        """Per-layer metrics that need no spans: breakdowns of the
        timed phase's own samples (printed by untraced runs too)."""
        return {}

    def per_layer(self) -> dict[str, float]:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------
    def compare_expected(self) -> None:
        """Default seed only: set-up facts against ``expected.json``."""
        expected = self.cfg.expected
        if expected is None:
            return
        for key, value in self.observed.items():
            want = expected.get(key)
            self.checks.expect(
                want == value, "expected",
                f"{key}: expected.json has {want}, observed {value}",
            )

    def span_ms(self, tracer: Tracer | None, scale: float = 1e3) -> dict:
        """Span name -> median corrected duration (ms by default)."""
        if tracer is None:
            return {}
        grouped = tracer.by_name(tracer.durations(self.host))
        return {
            name: median(values) * scale for name, values in grouped.items()
        }

    def trace_layers(self, layers: dict[str, float]) -> None:
        """What every traced pass reports about itself and the host."""
        tracer = self.tracer
        assert tracer is not None
        in_spans = sum(
            duration
            for duration, parent in zip(tracer.durations(), tracer.parents)
            if parent < 0
        )
        start, end = self.phase
        layers["trace.coverage"] = ratio(
            in_spans, end - start - self.untimed
        )
        layers["trace.spans"] = float(len(tracer))
        layers["host.slowdown_p50"] = self.host.slowdown(start, end)

    def executor_layers(self, layers: dict, modes: list[str]) -> None:
        """How the time of a query op divides between the driver calls,
        and between the execution paths (``modes``: one per query op
        of the traced phase, in order)."""
        tracer = self.tracer
        assert tracer is not None
        durations = tracer.durations(self.host)
        under_op = [
            (name, durations[i]) for i, name in enumerate(tracer.names)
            if tracer.parents[i] >= 0
            and tracer.names[tracer.parents[i]] == "op"
        ]
        op_total = sum(tracer.by_name(durations).get("op", []))
        for span, metric in (
            ("session.run", "run_share"),
            ("cursor.iterate", "iterate_share"),
            ("result.consume", "consume_share"),
        ):
            layers[f"query.executor.{metric}"] = ratio(
                sum(d for name, d in under_op if name == span), op_total
            )
        samples = self.samples
        query_lat = samples.latencies(self.host)[
            self.is_query(samples.kind)
        ]
        by_mode: dict[str, list[float]] = {"tuple": [], "vectorized": []}
        for mode, value in zip(modes, query_lat):
            by_mode.setdefault(mode, []).append(value * 1e6)
        layers["query.executor.tuple_us"] = median(by_mode["tuple"])
        layers["query.executor.vectorized_us"] = median(
            by_mode["vectorized"]
        )
        layers["query.executor.vectorized_share"] = ratio(
            len(by_mode["vectorized"]), len(modes)
        )
        hits = self.counters.get("repro_plan_cache_hits_total", 0)
        misses = self.counters.get("repro_plan_cache_misses_total", 0)
        layers["query.planner.cache_hit_ratio"] = ratio(hits, hits + misses)


def pipeline_layers(spans: dict, pipelines, layers: dict) -> None:
    """Per-layer numbers of the pipeline steps, from span medians (ms)
    of either a traced set-up or traced cold iterations."""
    for metric, span in (
        ("optimizer.model_ms", "optimizer.model"),
        ("optimizer.optimize_ms.med", "optimizer.optimize.med"),
        ("optimizer.optimize_ms.fin", "optimizer.optimize.fin"),
        ("data.generate_ms", "data.generate"),
        ("data.load_dir_ms", "data.load_dir"),
        ("data.load_opt_ms", "data.load_opt"),
        ("graph.freeze_ms", "graph.freeze"),
        ("graph.stats_build_ms", "graph.stats_build"),
        ("workload.rewrite_ms", "workload.rewrite"),
    ):
        layers[metric] = spans.get(span, 0.0)
    if pipelines:
        layers["optimizer.rules_selected"] = float(sum(
            len(p.result.selected_items) for p in pipelines
        ))
        layers["optimizer.benefit_ratio"] = float(np.mean(
            [p.result.benefit_ratio for p in pipelines]
        ))
        elements = sum(
            g.num_vertices + g.num_edges
            for g in pipeline_graphs(pipelines).values()
        ) / len(pipelines)
        load_ms = (
            layers["data.generate_ms"] + layers["data.load_dir_ms"]
            + layers["data.load_opt_ms"]
        )
        layers["data.elements_per_s"] = ratio(elements, load_ms / 1e3)


def parse_plan_probe(queries, host: HostSpeed, layers: dict) -> None:
    """Parser and planner cost per query, by direct calls.  ``queries``
    are (query, graph) pairs; a query that is not text skips the
    parser."""
    parse_us, plan_us = [], []
    for query, graph in queries:
        for _ in range(5):
            parsed = query
            if isinstance(query, str):
                start = perf_counter()
                parsed = parse_query(query)
                parse_us.append(elapsed(host, start) * 1e6)
            start = perf_counter()
            build_plan(parsed, graph, statistics=graph.statistics())
            plan_us.append(elapsed(host, start) * 1e6)
    layers["query.parser.parse_us"] = median(parse_us)
    layers["query.planner.plan_us"] = median(plan_us)


def wire_probe(captured, host: HostSpeed, layers: dict) -> None:
    """Codec cost per row and per frame, by direct calls over rows the
    workload's own queries returned."""
    encode, frame, decode = [], [], []
    for rows in captured:
        if not rows:
            continue
        per_row = 1e6 / len(rows)
        start = perf_counter()
        payloads = [wire.encode_record(row) for row in rows]
        encode.append(elapsed(host, start) * per_row)
        start = perf_counter()
        for packed in [wire.pack_frame(payload) for payload in payloads]:
            header = packed[: wire.FRAME_HEADER_BYTES]
            wire.frame_length(header)
            wire.check_frame(header, packed[wire.FRAME_HEADER_BYTES:])
        frame.append(elapsed(host, start) * per_row)
        start = perf_counter()
        for payload in payloads:
            wire.decode_message(payload)
        decode.append(elapsed(host, start) * per_row)
    layers["server.protocol.encode_us_per_row"] = median(encode)
    layers["server.protocol.frame_us"] = median(frame)
    layers["remote.decode_us_per_row"] = median(decode)


# ----------------------------------------------------------------------
# paper_local / paper_remote: the twelve queries, DIR vs OPT, warm
# ----------------------------------------------------------------------
class PaperLocal(Workload):
    """Fig. 11 in measured time: rounds of the 24 (graph, query) ops in
    seeded-shuffled order, in-process, warm plan cache."""

    name = "paper_local"
    rss_round = 60
    WARMUP_ROUNDS = 2

    # -- set-up ----------------------------------------------------------
    def setup(self, tracer: Tracer | None = None) -> None:
        cfg = self.cfg
        self.setup_tracer = tracer
        self.pipelines = [
            make_pipeline(dataset, cfg.scale, tracer)
            for dataset in datasets(cfg.seed)
        ]
        self.graphs = pipeline_graphs(self.pipelines)
        self.local_dbs, self.local_sessions = open_sessions(self.graphs)
        self.local_ops = build_ops(self.pipelines, self.local_sessions)
        self.captured = self.check_equivalence()
        for pipeline in self.pipelines:
            self.observed.update(pipeline_facts(pipeline))
        self.compare_expected()
        self.ops = self.local_ops
        self.connect_remote()
        for _ in range(self.WARMUP_ROUNDS):
            for op in self.ops:
                _, _, rows, _ = run_query(op.session, op.query)
                self.checks.expect(
                    rows == op.rows, "row_count",
                    f"warm-up {op.key}: {rows} rows, expected {op.rows}",
                )
        self.order = list(range(len(self.ops)))
        self.reset_samples()

    def connect_remote(self) -> None:
        """paper_remote swaps the ops for remote ones here."""

    def check_equivalence(self) -> list[list[tuple]]:
        """The paper's claim, per query: DIR rows and rewritten-OPT
        rows are the same multiset.  Fixes every op's row count."""
        rows_of = {}
        for op in self.local_ops:
            rows = fetch_rows(op)
            rows_of[op.key] = rows
            op.rows = len(rows)
            self.observed[f"query.{op.key}"] = [len(rows), digest(rows)]
        for op in self.local_ops:
            if op.side != "dir":
                continue
            opt_rows = rows_of[f"{op.dataset}.opt.{op.qid}"]
            self.checks.expect(
                flattened(rows_of[op.key]) == flattened(opt_rows),
                "equivalence",
                f"{op.dataset} {op.qid}: DIR and OPT answers differ",
            )
        return [rows_of[op.key] for op in self.local_ops]

    # -- timed phase -----------------------------------------------------
    def reset_samples(self) -> None:
        super().reset_samples()
        self.modes: list[str] = []

    def round(self, tracer: Tracer | None) -> None:
        ops, checks, samples = self.ops, self.checks, self.samples
        self.rng.shuffle(self.order)
        for index in self.order:
            op = ops[index]
            try:
                start, end, rows, summary = run_query(
                    op.session, op.query, tracer
                )
            except Exception as exc:  # an op that raises is a failed op
                checks.fail("raised", f"{op.key}: {exc!r}")
                continue
            samples.add(index, start, end)
            if rows == op.rows:
                checks.passed()
            else:
                checks.fail("row_count", f"{op.key}: {rows} != {op.rows}")
            if tracer is not None:
                self.modes.append(summary.mode)

    # -- results ---------------------------------------------------------
    def details(self) -> dict[str, float]:
        samples = self.samples
        lat = samples.latencies(self.host)
        side = np.asarray([op.side for op in self.ops])[samples.kind]
        layers = {}
        for name in ("dir", "opt"):
            sums = samples.per_round(lat, side == name)
            layers[f"paper.{name}_round_ms_p50"] = (
                median(block_medians(sums)) * 1e3
            )
        layers["paper.opt_speedup"] = self.speedup(
            samples.per_kind_p50(lat)
        )
        return layers

    def speedup(self, p50_of: dict[int, float]) -> float:
        """Geomean over the 12 queries of DIR p50 / OPT p50."""
        index_of = {op.key: i for i, op in enumerate(self.ops)}
        logs = []
        for index, op in enumerate(self.ops):
            opt = p50_of.get(index_of.get(f"{op.dataset}.opt.{op.qid}"))
            if op.side == "dir" and opt and p50_of.get(index):
                logs.append(math.log(p50_of[index] / opt))
        return math.exp(sum(logs) / len(logs)) if logs else 0.0

    def per_layer(self) -> dict[str, float]:
        layers = self.details()
        pipeline_layers(
            self.span_ms(self.setup_tracer), self.pipelines, layers
        )
        self.executor_layers(layers, self.modes)
        self.work_layers(layers)
        parse_plan_probe(
            [
                (op.query, self.graphs[op.dataset, op.side])
                for op in self.local_ops
            ],
            self.host, layers,
        )
        wire_probe(self.captured, self.host, layers)
        self.trace_layers(layers)
        return layers

    def work_round(self) -> dict[str, float]:
        """The executor's work counters and simulated latency, summed
        per side over the 24 ops run once each, in a fixed order, on
        fresh sessions (empty page cache): exact, so two passes must
        agree."""
        dbs, sessions = open_sessions(self.graphs)
        sums: dict[str, float] = {}
        try:
            for op in build_ops(self.pipelines, sessions):
                _, _, _, summary = run_query(op.session, op.query)
                work = {
                    **summary.metrics.as_dict(),
                    "sim_ms": summary.latency_ms,
                }
                for name, value in work.items():
                    key = f"{op.side}.{name}"
                    sums[key] = sums.get(key, 0) + value
        finally:
            close_all(sessions, dbs)
        return sums

    def work_layers(self, layers: dict) -> None:
        work = self.work_round()
        again = self.work_round()
        differing = sorted(k for k in work if work[k] != again.get(k))
        self.checks.expect(
            not differing, "work_counters",
            f"work counters differ between two passes: {differing}",
        )
        total_work = total_rows = 0.0
        for side in ("dir", "opt"):
            for name in WORK_COUNTERS:
                value = float(work.get(f"{side}.{name}", 0))
                layers[f"query.work.{side}.{name}"] = value
                if name != "page_misses":
                    total_work += value
            total_rows += work.get(f"{side}.rows", 0)
            layers[f"sim.{side}_ms"] = float(work.get(f"{side}.sim_ms", 0))
        layers["query.work.per_row"] = ratio(total_work, total_rows)

    # -- teardown --------------------------------------------------------
    def teardown(self) -> None:
        close_all(
            getattr(self, "local_sessions", {}),
            getattr(self, "local_dbs", {}),
        )
        self.pipelines = []
        self.graphs = {}
        self.local_ops = self.ops = []
        self.captured = []


class ServerThread:
    """A ``GraphServer`` on its own event-loop thread (the idiom of
    ``benchmarks/bench_server.py``)."""

    def __init__(self, database):
        self.server = GraphServer(database, ServerConfig(port=0))
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._run, name="e2e-server", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_forever()

        try:
            asyncio.run(main())
        finally:
            self._started.set()

    def start(self) -> str:
        self._thread.start()
        self._started.wait(10)
        if self.server.address is None:
            raise RuntimeError("benchmark server failed to start")
        host, port = self.server.address
        return f"repro://{host}:{port}"

    def stop(self) -> bool:
        """Stop and join; true when the thread has ended."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        if self._thread.ident is not None:
            self._thread.join(10)
        return not self._thread.is_alive()


class PaperRemote(PaperLocal):
    """The same graphs, queries and order through ``repro://``: one
    in-thread server per graph, one client connection active at a
    time, default fetch size."""

    name = "paper_remote"
    rss_round = 25
    #: Rounds of in-process and of zero-row ops run after the traced
    #: phase, for ``remote.overhead_us`` and ``remote.rtt_us``.
    PAIRED_ROUNDS = 10

    def connect_remote(self) -> None:
        self.servers = {}
        self.remote_dbs = {}
        self.remote_sessions = {}
        for key, graph in self.graphs.items():
            server = ServerThread(connect(graph))
            self.servers[key] = server
            self.remote_dbs[key] = connect(server.start())
            self.remote_sessions[key] = self.remote_dbs[key].session()
        self.ops = build_ops(
            self.pipelines, self.remote_sessions, text_only=True
        )
        self.lossy = 0
        for op, local, reference in zip(
            self.ops, self.local_ops, self.captured
        ):
            # The stack's claim: remote rows equal in-process rows of
            # the query as sent.
            if op.query != local.query:
                self.lossy += 1
                reference = fetch_rows(
                    Op(op.dataset, op.side, op.qid, op.query, local.session)
                )
            rows = fetch_rows(op)
            op.rows = len(reference)
            self.checks.expect(
                same_rows(rows, reference), "remote_rows",
                f"{op.key}: remote rows differ from in-process rows",
            )

    def per_layer(self) -> dict[str, float]:
        layers = super().per_layer()
        counters, samples = self.counters, self.samples
        queries = samples.complete
        layers["server.busy_us_per_query"] = ratio(
            counters.get("repro_server_request_seconds_sum", 0) * 1e6,
            queries,
        )
        layers["server.requests_per_query"] = ratio(
            counters.get("repro_server_requests_total", 0), queries
        )
        layers["server.bytes_per_row"] = ratio(
            counters.get("repro_server_bytes_written_total", 0),
            sum(self.ops[i].rows for i in samples.kind),
        )
        local, rtt_us = Samples(), []
        for _ in range(self.PAIRED_ROUNDS):
            for index, op in enumerate(self.local_ops):
                start, end, _, _ = run_query(op.session, op.query)
                local.add(index, start, end)
            for session in self.remote_sessions.values():
                start, _, rows, _ = run_query(session, ZERO_ROW_QUERY)
                rtt_us.append(elapsed(self.host, start) * 1e6)
                self.checks.expect(
                    rows == 0, "row_count", "the zero-row query has rows"
                )
        local.end_round()
        remote_p50 = samples.per_kind_p50(samples.latencies(self.host))
        local_p50 = local.per_kind_p50(local.latencies(self.host))
        layers["remote.overhead_us"] = median([
            (remote_p50[i] - local_p50[i]) * 1e6 for i in remote_p50
        ])
        layers["remote.rtt_us"] = median(rtt_us)
        layers["remote.lossy_opt_texts"] = float(self.lossy)
        return layers

    def teardown(self) -> None:
        # Clients first: stopping a server under a connected client
        # makes asyncio log cancelled callbacks on stderr.
        close_all(
            getattr(self, "remote_sessions", {}),
            getattr(self, "remote_dbs", {}),
        )
        for key, server in getattr(self, "servers", {}).items():
            self.checks.expect(
                server.stop(), "leak", f"server thread {key} still alive"
            )
        self.servers = {}
        super().teardown()


# ----------------------------------------------------------------------
# pipeline_cold: the whole pipeline from nothing, every iteration
# ----------------------------------------------------------------------
class PipelineCold(Workload):
    """Ontology -> rule selection -> generate -> load DIR and OPT ->
    freeze -> rewrite -> statistics -> first execution of each of the
    24 ops (empty plan cache: parse + plan + execute).  A round is one
    iteration; its timed operations are the pipeline steps and the 24
    cold queries.  There is nothing to set up: set-up is one small
    untimed iteration, and the checks that need the rows themselves
    ride, untimed, on the first full one."""

    name = "pipeline_cold"
    rss_round = 1
    STEPS = ["optimize", "build.MED", "build.FIN", "statistics", "connect"]
    #: Steps that are one call into one layer carry the layer's span
    #: name; the others are containers of layer spans.
    SPAN_OF = {"statistics": "graph.stats_build", "connect": "api.connect"}
    WARMUP_SCALE = 0.1

    def is_query(self, kind: np.ndarray) -> np.ndarray:
        return kind >= len(self.STEPS)

    def setup(self, tracer: Tracer | None = None) -> None:
        # Lazy imports and the allocator's first growth.
        self.signature: dict | None = None
        self.iteration(None, warmup=True)
        self.reset_samples()

    def reset_samples(self) -> None:
        super().reset_samples()
        self.modes: list[str] = []
        self.layer_pipelines: list = []

    def round(self, tracer: Tracer | None) -> None:
        self.iteration(tracer, warmup=False)
        # Leftover heaps of one iteration make the next one's
        # optimize() swing severalfold; collect between, untimed.
        start = perf_counter()
        gc.collect()
        self.untimed += perf_counter() - start

    def step(self, name: str, tracer: Tracer | None, call):
        """Run one pipeline step as a timed operation."""
        if tracer is None:
            start = perf_counter()
            value = call()
            end = perf_counter()
        else:
            span = tracer.span(self.SPAN_OF.get(name, name))
            with span:
                value = call()
            start, end = span.start, span.end
        self.samples.add(self.STEPS.index(name), start, end)
        return value

    def iteration(self, tracer: Tracer | None, warmup: bool) -> None:
        cfg, checks = self.cfg, self.checks
        scale = min(cfg.scale, self.WARMUP_SCALE) if warmup else cfg.scale
        inputs = datasets(cfg.seed)
        self.step("optimize", tracer, lambda: [
            priced_optimize(dataset, tracer) for dataset in inputs
        ])
        pipelines = [
            self.step(
                f"build.{dataset.name}", tracer,
                lambda: make_pipeline(dataset, scale, tracer),
            )
            for dataset in inputs
        ]
        graphs = pipeline_graphs(pipelines)
        self.step(
            "statistics", tracer,
            lambda: [graph.statistics() for graph in graphs.values()],
        )
        dbs, sessions = self.step(
            "connect", tracer, lambda: open_sessions(graphs)
        )
        ops = build_ops(pipelines, sessions)
        row_counts = {}
        # Always in the same order: the first query on a graph pays for
        # what the graph builds lazily, and must be the same query in
        # every iteration.  All 24 take about 50 ms, two ticks of the
        # host-speed timer: take a reading every sixth query as well.
        for index, op in enumerate(ops):
            if index % 6 == 0:
                self.host.read()
            try:
                start, end, rows, summary = run_query(
                    op.session, op.query, tracer
                )
            except Exception as exc:
                checks.fail("raised", f"{op.key}: {exc!r}")
                continue
            self.samples.add(len(self.STEPS) + index, start, end)
            row_counts[op.key] = rows
            if tracer is not None:
                self.modes.append(summary.mode)
        # Everything below is checking, outside the timed operations.
        facts: dict = {}
        for pipeline in pipelines:
            facts.update(pipeline_facts(pipeline))
        for op in ops:
            facts[f"rows.{op.key}"] = row_counts.get(op.key)
        if self.signature is not None:
            for key, value in facts.items():
                checks.expect(
                    self.signature.get(key) == value, "not_repeatable",
                    f"{key}: {value} != {self.signature.get(key)}",
                )
        elif not warmup:
            self.first_checks(ops, facts)
        if tracer is not None:
            self.layer_pipelines = pipelines
        close_all(sessions, dbs)

    def first_checks(self, ops: list[Op], facts: dict) -> None:
        """The first full iteration's extra, untimed work: it fixes what
        every later iteration must reproduce, and checks the paper's
        claim and the digests, which need the rows themselves."""
        checks = self.checks
        self.signature = facts
        rows_of = {}
        for op in ops:
            rows_of[op.key] = fetch_rows(op)
            self.observed[f"query.{op.key}"] = [
                len(rows_of[op.key]), digest(rows_of[op.key])
            ]
        for op in ops:
            if op.side == "dir":
                opt_rows = rows_of[f"{op.dataset}.opt.{op.qid}"]
                checks.expect(
                    flattened(rows_of[op.key]) == flattened(opt_rows),
                    "equivalence",
                    f"{op.dataset} {op.qid}: DIR and OPT answers differ",
                )
        for key, value in facts.items():
            if not key.startswith("rows."):
                self.observed[key] = value
        self.captured = list(rows_of.values())
        self.compare_expected()

    def details(self) -> dict[str, float]:
        p50_of = self.samples.per_kind_p50(
            self.samples.latencies(self.host)
        )
        return {
            "pipeline.optimize_ms_p50":
                p50_of.get(self.STEPS.index("optimize"), 0.0) * 1e3,
        }

    def per_layer(self) -> dict[str, float]:
        layers = self.details()
        pipeline_layers(
            self.span_ms(self.tracer), self.layer_pipelines, layers
        )
        self.executor_layers(layers, self.modes)
        graphs = pipeline_graphs(self.layer_pipelines)
        parse_plan_probe(
            [
                (op.query, graphs[op.dataset, op.side])
                for op in build_ops(
                    self.layer_pipelines, dict.fromkeys(graphs)
                )
            ],
            self.host, layers,
        )
        wire_probe(self.captured, self.host, layers)
        self.trace_layers(layers)
        return layers

    def teardown(self) -> None:
        self.layer_pipelines = []
        self.captured = []


# ----------------------------------------------------------------------
# durable_mixed: commits and point reads on a write-ahead-logged store
# ----------------------------------------------------------------------
class DurableMixed(Workload):
    """MED DIR in a data directory opened ``sync="batch"`` - exactly
    one fsync per commit.  A round is one commit (a ``Patient`` with
    three properties and two ``takes`` edges) and one point read of a
    patient's drugs, on the then unfrozen graph.  Afterwards: close
    without checkpoint, timed reopen (snapshot + WAL replay), checks,
    timed checkpoint, timed reopen from the snapshot alone.  A
    clean-close recovery measurement, not a crash test.

    The commit is timed twice: on the wall clock (``storage.*``) and
    on the thread's CPU clock, which leaves out the wait for the
    device.  That wait swings twofold between runs on the reference
    host's virtual disk, whatever the program does, so the gated
    metrics count the commit's CPU time (transaction apply, WAL
    encode, the kernel's share of write and fsync) and the wait is
    reported beside them."""

    name = "durable_mixed"
    rss_round = 5000
    COMMIT, READ = 0, 1
    READ_QUERY = (
        "MATCH (p:Patient {patientId: $id})-[:takes]->(d:Drug) "
        "RETURN d.name"
    )
    WARMUP_ROUNDS = 50
    SYNC = "batch"

    def is_query(self, kind: np.ndarray) -> np.ndarray:
        return kind == self.READ

    def setup(self, tracer: Tracer | None = None) -> None:
        cfg = self.cfg
        self.setup_tracer = tracer = tracer or Tracer()
        dataset = datasets(cfg.seed)[0]
        with tracer.span("data.generate"):
            logical = dataset.logical(scale=cfg.scale)
        with tracer.span("data.load_dir"):
            graph = load_direct(logical, name="MED-DIR")
        self.loaded_elements = graph.num_vertices + graph.num_edges
        # Point reads go through the index, so their cost does not
        # grow with the patients the run inserts.
        graph.create_property_index("Patient", "patientId")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR))
        self.data_dir = self.tmp / "data"
        with tracer.span("storage.create"):
            GraphStore.create(self.data_dir, graph, sync=self.SYNC).close()
        del graph, logical
        self.db = connect(self.data_dir, sync=self.SYNC)
        self.session = self.db.session()
        graph = self.db.graph
        self.drugs = sorted(graph.vertices_with_label("Drug"))
        self.base_patients = graph.label_count("Patient")
        self.observed["durable.base"] = [
            self.base_patients, len(self.drugs),
            graph.num_vertices, graph.num_edges,
        ]
        self.compare_expected()
        self.checks.expect(
            graph.has_property_index("Patient", "patientId"),
            "invariant", "patientId index did not survive the snapshot",
        )
        # Reads alternate at random between the loaded patients (varied
        # fan-out; expected row counts from the graph itself) and the
        # inserted ones (two drugs each), half and half however far
        # the run has got.
        fanout: dict[str, int] = {}
        for vid in graph.vertices_with_label("Patient"):
            pid = graph.get_property(vid, "patientId")
            fanout[pid] = fanout.get(pid, 0) + len(
                graph.out_edges(vid, "takes")
            )
        self.base_reads = sorted(fanout.items())
        self.inserted: list[tuple[str, int, int, int]] = []
        for _ in range(self.WARMUP_ROUNDS):
            self.round(None)
        self.reset_samples()

    def reset_samples(self) -> None:
        super().reset_samples()
        self.work: list[dict] = []
        self.sim_ms: list[float] = []
        #: Corrected seconds of the three steps after the timed phase.
        self.after: dict[str, float] = {}
        self.replayed = 0
        self.snapshot_bytes = 0.0
        self.elements = 0

    # -- one round -------------------------------------------------------
    def round(self, tracer: Tracer | None) -> None:
        checks, rng, samples = self.checks, self.rng, self.samples
        pid = f"bench_patient_{len(self.inserted)}"
        props = {
            "patientId": pid,
            "age": rng.randrange(18, 90),
            "gender": rng.choice(("F", "M")),
        }
        drug_a, drug_b = rng.choice(self.drugs), rng.choice(self.drugs)
        if self.inserted and rng.random() < 0.5:
            read_id, read_rows = rng.choice(self.inserted)[0], 2
        else:
            read_id, read_rows = rng.choice(self.base_reads)
        try:
            start, end, cpu, vid = self.commit(
                tracer, props, drug_a, drug_b
            )
        except Exception as exc:
            checks.fail("raised", f"commit {pid}: {exc!r}")
            return
        samples.add(self.COMMIT, start, end, cpu)
        checks.passed()
        self.inserted.append((pid, vid, drug_a, drug_b))
        try:
            start, end, rows, summary = run_query(
                self.session, self.READ_QUERY, tracer, id=read_id
            )
        except Exception as exc:
            checks.fail("raised", f"read {read_id}: {exc!r}")
            return
        samples.add(self.READ, start, end)
        checks.expect(
            rows == read_rows, "row_count",
            f"read {read_id}: {rows} rows, expected {read_rows}",
        )
        if tracer is not None:
            self.work.append(summary.metrics.as_dict())
            self.sim_ms.append(summary.latency_ms)

    def commit(self, tracer: Tracer | None, props, drug_a, drug_b):
        """One transaction; returns (wall start, wall end, CPU seconds,
        the new vertex)."""
        session = self.session
        if tracer is None:
            start, cpu = perf_counter(), thread_time()
            tx = session.begin_tx()
            vid = tx.add_vertex("Patient", props)
            tx.add_edge(vid, drug_a, "takes")
            tx.add_edge(vid, drug_b, "takes")
            tx.commit()
            return start, perf_counter(), thread_time() - cpu, vid
        outer = tracer.span("write.op")
        cpu = thread_time()
        with outer:
            with tracer.span("session.begin_tx"):
                tx = session.begin_tx()
            with tracer.span("graph.tx_apply"):
                vid = tx.add_vertex("Patient", props)
            with tracer.span("graph.tx_apply"):
                tx.add_edge(vid, drug_a, "takes")
            with tracer.span("graph.tx_apply"):
                tx.add_edge(vid, drug_b, "takes")
            with tracer.span("storage.commit"):
                tx.commit()
        return outer.start, outer.end, thread_time() - cpu, vid

    # -- after the timed phase -------------------------------------------
    def finish(self) -> None:
        checks = self.checks
        before = exported()
        self.session.close()
        self.db.close()                       # no checkpoint
        self.db = self.after_step(
            "recover", lambda: connect(self.data_dir, sync=self.SYNC)
        )
        self.replayed = self.db.store.recovery.replayed_ops
        self.verify_store("after recovery")
        self.after_step("checkpoint", self.db.checkpoint)
        self.db.close()
        self.db = self.after_step(
            "snapshot_load", lambda: connect(self.data_dir, sync=self.SYNC)
        )
        checks.expect(
            self.db.store.recovery.replayed_ops == 0, "invariant",
            "reopen after checkpoint replayed WAL records",
        )
        self.verify_store("after checkpoint")
        graph = self.db.graph
        self.elements = graph.num_vertices + graph.num_edges
        self.snapshot_bytes = delta(before, exported()).get(
            "repro_snapshot_written_bytes_total", 0
        )
        self.session = self.db.session()

    def after_step(self, name: str, call):
        start = perf_counter()
        value = call()
        self.after[name] = elapsed(self.host, start)
        return value

    def verify_store(self, when: str) -> None:
        """Every acknowledged commit is there: the patient count, and
        every 100th inserted patient with its properties and edges."""
        checks, graph = self.checks, self.db.graph
        patients = graph.label_count("Patient")
        checks.expect(
            patients == self.base_patients + len(self.inserted),
            "durability",
            f"{when}: {patients} patients, expected "
            f"{self.base_patients} + {len(self.inserted)}",
        )
        for pid, vid, drug_a, drug_b in self.inserted[::100]:
            found = graph.lookup_property("Patient", "patientId", pid)
            drugs = sorted(
                edge.dst for v in found for edge in graph.out_edges(v, "takes")
            )
            ok = (
                found == [vid]
                and drugs == sorted((drug_a, drug_b))
                and graph.get_property(vid, "age") is not None
                and graph.get_property(vid, "gender") in ("F", "M")
            )
            checks.expect(
                ok, "durability", f"{when}: patient {pid} incomplete"
            )

    # -- results ---------------------------------------------------------
    def details(self) -> dict[str, float]:
        samples = self.samples
        commits = samples.kind == self.COMMIT
        wall = samples.wall()[commits]
        layers = {}
        if len(wall):
            layers["storage.commit_ms_p50"] = (
                median(block_medians(wall)) * 1e3
            )
            layers["storage.commit_ms_p95"] = (
                median(block_medians(wall, p95)) * 1e3
            )
            layers["storage.commits_per_s"] = ratio(len(wall), wall.sum())
            layers["storage.commit_wait_ms_p50"] = median(
                block_medians(wall - samples.latencies(None)[commits])
            ) * 1e3
        after = self.after
        layers["storage.recover_ms"] = after.get("recover", 0.0) * 1e3
        layers["storage.recovery.replayed_records"] = float(self.replayed)
        layers["storage.recovery.records_per_s"] = ratio(
            self.replayed, after.get("recover", 0.0)
        )
        layers["storage.checkpoint_ms"] = after.get("checkpoint", 0.0) * 1e3
        layers["storage.snapshot.bytes_per_element"] = ratio(
            self.snapshot_bytes, self.elements
        )
        layers["storage.snapshot.load_ms"] = (
            after.get("snapshot_load", 0.0) * 1e3
        )
        return layers

    def per_layer(self) -> dict[str, float]:
        layers = self.details()
        counters = self.counters
        commits = int((self.samples.kind == self.COMMIT).sum())
        setup_spans = self.span_ms(self.setup_tracer)
        layers["data.generate_ms"] = setup_spans.get("data.generate", 0.0)
        layers["data.load_dir_ms"] = setup_spans.get("data.load_dir", 0.0)
        layers["data.elements_per_s"] = ratio(
            self.loaded_elements,
            (layers["data.generate_ms"] + layers["data.load_dir_ms"]) / 1e3,
        )
        spans = self.span_ms(self.tracer, scale=1e6)
        layers["graph.tx_apply_us"] = spans.get("graph.tx_apply", 0.0)
        layers["storage.commit_call_us"] = spans.get("storage.commit", 0.0)
        layers["storage.wal.fsync_ms_per_commit"] = ratio(
            counters.get("repro_wal_fsync_seconds_sum", 0) * 1e3, commits
        )
        layers["storage.wal.fsyncs_per_commit"] = ratio(
            counters.get("repro_wal_fsync_seconds_count", 0), commits
        )
        layers["storage.wal.bytes_per_commit"] = ratio(
            counters.get("repro_wal_flushed_bytes_total", 0), commits
        )
        layers["storage.wal.records_per_commit"] = ratio(
            counters.get("repro_wal_appends_total", 0), commits
        )
        self.executor_layers(layers, ["tuple"] * len(self.work))
        # The store holds the DIR schema: its reads are DIR work.
        reads = max(1, len(self.work))
        work_total = 0.0
        for name in WORK_COUNTERS:
            value = sum(w[name] for w in self.work) / reads
            layers[f"query.work.dir.{name}"] = value
            if name != "page_misses":
                work_total += value
        layers["query.work.per_row"] = ratio(
            work_total, sum(w["rows"] for w in self.work) / reads
        )
        layers["sim.dir_ms"] = ratio(sum(self.sim_ms), reads)
        parse_plan_probe([(self.READ_QUERY, self.db.graph)], self.host, layers)
        sample = [
            tuple(r) for r in self.session.run(
                "MATCH (d:Drug) RETURN d.name"
            )
        ]
        wire_probe([sample], self.host, layers)
        self.trace_layers(layers)
        return layers

    def teardown(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
        db = getattr(self, "db", None)
        if db is not None:
            db.close()
        self.session = self.db = None
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
            self.checks.expect(
                not tmp.exists(), "leak", f"temp dir {tmp} not removed"
            )
        self.tmp = None


WORKLOADS = {
    cls.name: cls
    for cls in (PaperLocal, PaperRemote, PipelineCold, DurableMixed)
}
