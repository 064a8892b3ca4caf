"""Algorithm 8: the relation-centric (RC) optimization algorithm.

Every rule application is priced by the cost-benefit model (Equations
3-5) and the near-optimal subset under the space limit is selected with
the knapsack FPTAS, giving a *global* ordering over relationships (the
paper's motivation for RC over CC).

Reproduces: the RC series of Figures 8 and 9 (benefit ratio vs. space
budget; ``benchmarks/bench_fig8_space_med.py`` /
``benchmarks/bench_fig9_space_fin.py``), RC's rows of Table 2
(``benchmarks/bench_table2_efficiency.py``), and the Figure 10
sensitivity to the (theta1, theta2) Jaccard thresholds
(``benchmarks/bench_fig10_jaccard_fin.py``).
"""

from __future__ import annotations

import time

from repro.ontology.model import Ontology
from repro.ontology.stats import DataStatistics
from repro.ontology.workload import WorkloadSummary
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.knapsack import knapsack_fptas
from repro.optimizer.result import OptimizationResult
from repro.rules.base import Thresholds


def select_relation_centric(
    model: CostBenefitModel, space_limit: int, eps: float = 0.1
) -> OptimizationResult:
    """RC's items under ``space_limit`` bytes, not yet realized."""
    items = model.items
    result = knapsack_fptas(items, space_limit, eps=eps)
    return OptimizationResult(
        "RC", model, result.select(items), space_limit,
        extras={
            "knapsack_states": result.states,
            "knapsack_effective_eps": result.effective_eps,
        },
    )


def optimize_relation_centric(
    ontology: Ontology,
    stats: DataStatistics,
    space_limit: int,
    workload: WorkloadSummary | None = None,
    thresholds: Thresholds | None = None,
    eps: float = 0.1,
) -> OptimizationResult:
    """Run the relation-centric algorithm under ``space_limit`` bytes."""
    started = time.perf_counter()
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    return select_relation_centric(model, space_limit, eps).realize(started)
