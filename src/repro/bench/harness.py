"""Experiment drivers: one function per paper table/figure.

Each ``run_*`` function returns one or more
:class:`~repro.bench.reporting.ExperimentTable` objects whose rows are
the series the paper plots.  The benchmark scripts under ``benchmarks/``
are thin wrappers that execute these drivers and print the tables; see
EXPERIMENTS.md for measured-vs-paper commentary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.reporting import ExperimentTable, speedup
from repro.data.loader import load_direct, load_optimized
from repro.data.logical import LogicalDataset
from repro.datasets.base import Dataset
from repro.graphdb.api import Database
from repro.graphdb.backends import JANUSGRAPH_LIKE, NEO4J_LIKE
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query.ast import Query
from repro.optimizer.concept_centric import (
    optimize_concept_centric,
    select_concept_centric,
)
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.knapsack import (
    knapsack_exact,
    knapsack_fptas,
    knapsack_greedy,
)
from repro.optimizer.pgsg import select_pgsg
from repro.optimizer.relation_centric import (
    optimize_relation_centric,
    select_relation_centric,
)
from repro.optimizer.result import OptimizationResult
from repro.rules.base import Thresholds
from repro.workload.generator import mixed_workload
from repro.workload.queries import query_class
from repro.workload.rewriter import QueryRewriter
from repro.workload.runner import run_queries

#: Backends used throughout Section 5.3.
BACKENDS = (JANUSGRAPH_LIKE, NEO4J_LIKE)

#: The space fractions of Figures 8 and 9.
SPACE_FRACTIONS = (
    0.0001, 0.001, 0.01, 0.025, 0.04, 0.10, 0.15, 0.20, 0.25,
    0.50, 0.75, 1.00,
)

#: The Jaccard threshold pairs of Figure 10.
JACCARD_PAIRS = ((0.9, 0.1), (0.66, 0.33), (0.6, 0.4), (0.5, 0.5))

#: Microbenchmark parameters (Section 5.3): theta1=66%, theta2=33%,
#: space constraint 0.5 * (S_NSC - S_DIR).
MICROBENCH_THRESHOLDS = Thresholds(0.66, 0.33)
MICROBENCH_BUDGET_FRACTION = 0.5


# ----------------------------------------------------------------------
# Pipeline: dataset -> optimized schema -> DIR/OPT graphs -> rewriter
# ----------------------------------------------------------------------
@dataclass
class Pipeline:
    """Everything needed to run queries against DIR and OPT graphs.

    ``build_pipeline`` builds every field from the dataset each call:
    the optimized schema, the logical instance data, both graphs
    (frozen) and the rewritten paper queries.
    """

    dataset: Dataset
    result: OptimizationResult
    logical: LogicalDataset
    dir_graph: PropertyGraph
    opt_graph: PropertyGraph
    rewriter: QueryRewriter
    rewritten: dict[str, Query]

    def database(self, which: str = "dir", profile=NEO4J_LIKE) -> Database:
        """A driver :class:`~repro.graphdb.api.Database` over one of
        the pipeline's graphs (``"dir"`` or ``"opt"``) - the handle
        demo code and benchmarks session queries through."""
        if which not in ("dir", "opt"):
            raise ValueError(f"unknown pipeline graph {which!r}")
        graph = self.dir_graph if which == "dir" else self.opt_graph
        return Database(graph, profile=profile)


def build_pipeline(
    dataset: Dataset,
    budget_fraction: float = MICROBENCH_BUDGET_FRACTION,
    thresholds: Thresholds = MICROBENCH_THRESHOLDS,
    scale: float = 1.0,
    cache_dir: None = None,
) -> Pipeline:
    """Optimize, load both graphs, and rewrite the benchmark queries.

    ``cache_dir`` is a placeholder for the removed snapshot memo cache:
    only ``None`` is accepted.  It stays while ``benchmarks/e2e``
    passes it, and goes when that call does.
    """
    if cache_dir is not None:
        raise TypeError(
            "build_pipeline(cache_dir=...) was removed with the snapshot "
            "memo cache; every call builds the graphs from the dataset"
        )
    workload = dataset.query_workload()
    started = time.perf_counter()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, thresholds
    )
    budget = model.budget_for_fraction(budget_fraction)
    result = select_pgsg(model, budget).realize(started)
    logical = dataset.logical(scale=scale)
    dir_graph = load_direct(logical, name=f"{dataset.name}-DIR")
    opt_graph = load_optimized(
        logical, result.mapping, name=f"{dataset.name}-OPT"
    )
    # Pipeline graphs are read-only from here on (benchmarks, demos,
    # workload runs): freeze both so batch-path expansion runs over the
    # immutable CSR arrays.  Any later mutation drops them, and an
    # expansion refuses the batch path until the next freeze.
    dir_graph.freeze()
    opt_graph.freeze()
    rewriter = QueryRewriter(dataset.ontology, result.mapping)
    rewritten = {
        qid: rewriter.rewrite(text)
        for qid, text in dataset.queries.items()
    }
    return Pipeline(
        dataset=dataset,
        result=result,
        logical=logical,
        dir_graph=dir_graph,
        opt_graph=opt_graph,
        rewriter=rewriter,
        rewritten=rewritten,
    )


# ----------------------------------------------------------------------
# Figures 8 & 9: benefit ratio vs space constraint
# ----------------------------------------------------------------------
def run_space_sweep(
    dataset: Dataset,
    fractions: tuple[float, ...] = SPACE_FRACTIONS,
    workload_kinds: tuple[str, ...] = ("uniform", "zipf"),
    thresholds: Thresholds = MICROBENCH_THRESHOLDS,
) -> ExperimentTable:
    """Figure 8 (MED) / Figure 9 (FIN): BR for RC and CC vs space."""
    table = ExperimentTable(
        title=f"Benefit Ratio vs Space Constraint ({dataset.name})",
        headers=["workload", "space", "RC BR", "CC BR"],
    )
    for kind in workload_kinds:
        workload = dataset.workload(kind)
        model = CostBenefitModel(
            dataset.ontology, dataset.stats, workload, thresholds
        )
        for fraction in fractions:
            # The figure reads only the benefit ratios: price the rules
            # once per workload, realize no schema.
            budget = model.budget_for_fraction(fraction)
            rc = select_relation_centric(model, budget)
            cc = select_concept_centric(model, budget)
            table.add_row(
                kind, f"{fraction:.4%}".rstrip("0").rstrip("."),
                round(rc.benefit_ratio, 4), round(cc.benefit_ratio, 4),
            )
    table.add_note(
        "space given as a fraction of the NSC space overhead "
        "(S_NSC - S_DIR); BR = B_SC / B_NSC"
    )
    return table


# ----------------------------------------------------------------------
# Figure 10: benefit ratio vs Jaccard thresholds
# ----------------------------------------------------------------------
def run_jaccard_sweep(
    dataset: Dataset,
    pairs: tuple[tuple[float, float], ...] = JACCARD_PAIRS,
    workload_kinds: tuple[str, ...] = ("uniform", "zipf"),
    budget_fraction: float = 0.5,
) -> ExperimentTable:
    """Figure 10: BR under varying (theta1, theta2), FIN in the paper."""
    table = ExperimentTable(
        title=f"Benefit Ratio vs Jaccard Thresholds ({dataset.name})",
        headers=["workload", "(theta1, theta2)", "RC BR", "CC BR"],
    )
    for kind in workload_kinds:
        workload = dataset.workload(kind)
        for theta1, theta2 in pairs:
            thresholds = Thresholds(theta1, theta2)
            model = CostBenefitModel(
                dataset.ontology, dataset.stats, workload, thresholds
            )
            # The paper sets the budget to (S_NSC - S_DIR) / 2 *under
            # each threshold pair* because rule costs change with theta.
            budget = model.budget_for_fraction(budget_fraction)
            rc = select_relation_centric(model, budget)
            cc = select_concept_centric(model, budget)
            table.add_row(
                kind, f"({theta1}, {theta2})",
                round(rc.benefit_ratio, 4), round(cc.benefit_ratio, 4),
            )
    return table


# ----------------------------------------------------------------------
# Figure 11: microbenchmark
# ----------------------------------------------------------------------
def run_microbenchmark(
    datasets: list[Dataset],
    scale: float = 1.0,
) -> ExperimentTable:
    """Figure 11: per-query latency, DIR vs OPT, on both backends."""
    table = ExperimentTable(
        title="Microbenchmark: per-query latency (ms, simulated)",
        headers=[
            "query", "class", "backend", "DIR ms", "OPT ms", "speedup",
        ],
    )
    for dataset in datasets:
        pipeline = build_pipeline(dataset, scale=scale)
        for qid in sorted(dataset.queries, key=_query_order):
            dir_query = dataset.queries[qid]
            opt_query = pipeline.rewritten[qid]
            for profile in BACKENDS:
                dir_run = run_queries(
                    pipeline.dir_graph, profile, [(qid, dir_query)]
                ).runs[0]
                opt_run = run_queries(
                    pipeline.opt_graph, profile, [(qid, opt_query)]
                ).runs[0]
                table.add_row(
                    f"{qid}({dataset.name})",
                    query_class(qid),
                    profile.name,
                    round(dir_run.latency_ms, 3),
                    round(opt_run.latency_ms, 3),
                    round(speedup(dir_run.latency_ms,
                                  opt_run.latency_ms), 2),
                )
    table.add_note(
        "OPT produced with theta1=0.66, theta2=0.33 and space budget "
        "0.5*(S_NSC - S_DIR), as in the paper"
    )
    return table


# ----------------------------------------------------------------------
# Figure 12: total workload latency
# ----------------------------------------------------------------------
def run_workload_experiment(
    datasets: list[Dataset],
    scale: float = 1.0,
    size: int = 15,
    seed: int = 5,
) -> ExperimentTable:
    """Figure 12: 15-query Zipf workload, DIRECT vs OPT, both backends."""
    table = ExperimentTable(
        title="Total query latency, mixed Zipf workload (ms, simulated)",
        headers=[
            "dataset", "backend", "DIRECT ms", "OPT ms", "speedup",
        ],
    )
    for dataset in datasets:
        pipeline = build_pipeline(dataset, scale=scale)
        workload = mixed_workload(dataset, size=size, seed=seed)
        dir_queries = [(wq.qid, wq.text) for wq in workload]
        opt_queries = [
            (wq.qid, pipeline.rewritten[wq.qid]) for wq in workload
        ]
        for profile in BACKENDS:
            dir_report = run_queries(
                pipeline.dir_graph, profile, dir_queries
            )
            opt_report = run_queries(
                pipeline.opt_graph, profile, opt_queries
            )
            table.add_row(
                dataset.name,
                profile.name,
                round(dir_report.total_latency_ms, 1),
                round(opt_report.total_latency_ms, 1),
                round(
                    speedup(
                        dir_report.total_latency_ms,
                        opt_report.total_latency_ms,
                    ),
                    2,
                ),
            )
    return table


# ----------------------------------------------------------------------
# Table 2: optimizer efficiency
# ----------------------------------------------------------------------
def run_efficiency(
    datasets: list[Dataset],
    fractions: tuple[float, ...] = (0.25, 0.50, 0.75),
    repeats: int = 3,
) -> ExperimentTable:
    """Table 2: RC and CC optimization time at several space budgets."""
    table = ExperimentTable(
        title="Efficiency of RC & CC (ms)",
        headers=["dataset", "space", "RC ms", "CC ms"],
    )
    for dataset in datasets:
        workload = dataset.workload("zipf")
        model = CostBenefitModel(
            dataset.ontology, dataset.stats, workload,
            MICROBENCH_THRESHOLDS,
        )
        for fraction in fractions:
            budget = model.budget_for_fraction(fraction)
            rc_ms = _best_time(
                lambda: optimize_relation_centric(
                    dataset.ontology, dataset.stats, budget, workload,
                    MICROBENCH_THRESHOLDS,
                ),
                repeats,
            )
            cc_ms = _best_time(
                lambda: optimize_concept_centric(
                    dataset.ontology, dataset.stats, budget, workload,
                    MICROBENCH_THRESHOLDS,
                ),
                repeats,
            )
            table.add_row(
                dataset.name, f"{fraction:.0%}",
                round(rc_ms, 1), round(cc_ms, 1),
            )
    return table


# ----------------------------------------------------------------------
# Motivating examples (Section 1, Figure 1)
# ----------------------------------------------------------------------
def run_motivating(scale: float = 1.0) -> ExperimentTable:
    """Examples 1 & 2: pattern matching and aggregation on Figure 1."""
    from repro.datasets.med import build_med

    dataset = build_med()
    pipeline = build_pipeline(dataset, scale=scale)
    table = ExperimentTable(
        title="Motivating examples (Figure 1, ms simulated, neo4j-like)",
        headers=["example", "query", "PG1 (direct) ms", "PG2 (opt) ms",
                 "speedup"],
    )
    examples = {
        "Example 1 (pattern)": "Q2",
        "Example 2 (aggregation)": "Q10",
    }
    for name, qid in examples.items():
        dir_run = run_queries(
            pipeline.dir_graph, NEO4J_LIKE, [(qid, dataset.queries[qid])]
        ).runs[0]
        opt_run = run_queries(
            pipeline.opt_graph, NEO4J_LIKE,
            [(qid, pipeline.rewritten[qid])],
        ).runs[0]
        table.add_row(
            name, qid,
            round(dir_run.latency_ms, 3), round(opt_run.latency_ms, 3),
            round(speedup(dir_run.latency_ms, opt_run.latency_ms), 2),
        )
    return table


# ----------------------------------------------------------------------
# Ablation: knapsack solver choice (design-choice study)
# ----------------------------------------------------------------------
def run_knapsack_ablation(
    dataset: Dataset,
    fractions: tuple[float, ...] = (0.05, 0.10, 0.25, 0.50),
) -> ExperimentTable:
    """Compare FPTAS / greedy / exact selection quality for RC."""
    workload = dataset.workload("zipf")
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    items = model.items
    table = ExperimentTable(
        title=f"Knapsack ablation ({dataset.name})",
        headers=["space", "FPTAS BR", "greedy BR", "exact BR"],
    )
    for fraction in fractions:
        budget = model.budget_for_fraction(fraction)
        fptas = knapsack_fptas(items, budget, eps=0.1)
        greedy = knapsack_greedy(items, budget)
        try:
            exact = knapsack_exact(items, budget)
            exact_br = model.benefit_ratio(exact.select(items))
        except Exception:
            exact_br = float("nan")
        table.add_row(
            f"{fraction:.0%}",
            round(model.benefit_ratio(fptas.select(items)), 4),
            round(model.benefit_ratio(greedy.select(items)), 4),
            round(exact_br, 4) if exact_br == exact_br else "n/a",
        )
    return table


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _best_time(fn, repeats: int) -> float:
    """Best-of-N wall time in milliseconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def _query_order(qid: str) -> int:
    return int(qid.lstrip("Q"))
