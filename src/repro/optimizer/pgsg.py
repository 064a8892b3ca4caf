"""PGSG: the property-graph-schema generator facade.

Section 5.1: *"PGSG chooses the property graph schema with a higher total
benefit score from relation-centric (RC) and concept-centric (CC)
algorithms."*  The score is a sum over the selected items, so PGSG
prices once, lets both *select* (:func:`select_pgsg`, on a cost model
the caller may already hold) and runs the rule engine for the winner
only (ties go to RC, which has the optimality bound); both stay under
``extras["candidates"]``, the loser's schema computed if and when
somebody reads it.

Reproduces: the schemas behind the Figure 11 microbenchmark and the
Figure 12 mixed-workload comparison (PGSG is the optimizer the paper
evaluates end to end; ``benchmarks/bench_fig11_microbench.py`` and
``benchmarks/bench_fig12_workload.py`` drive it).
"""

from __future__ import annotations

import time

from repro.ontology.model import Ontology
from repro.ontology.stats import DataStatistics
from repro.ontology.workload import WorkloadSummary
from repro.optimizer.concept_centric import select_concept_centric
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.nsc import optimize_nsc
from repro.optimizer.relation_centric import select_relation_centric
from repro.optimizer.result import OptimizationResult
from repro.rules.base import Thresholds


def optimize(
    ontology: Ontology,
    stats: DataStatistics,
    space_limit: int | None = None,
    workload: WorkloadSummary | None = None,
    thresholds: Thresholds | None = None,
    eps: float = 0.1,
) -> OptimizationResult:
    """Produce the best schema under ``space_limit`` bytes.

    ``space_limit=None`` means no constraint (Algorithm 5).
    """
    if space_limit is None:
        return optimize_nsc(ontology, stats, workload, thresholds)
    started = time.perf_counter()
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    return select_pgsg(model, space_limit, eps).realize(started)


def select_pgsg(
    model: CostBenefitModel, space_limit: int, eps: float = 0.1
) -> OptimizationResult:
    """PGSG's winner under ``space_limit`` bytes, not yet realized: a
    caller that priced the rules already (to size the budget, say)
    passes its ``model`` instead of pricing them again."""
    rc = select_relation_centric(model, space_limit, eps)
    cc = select_concept_centric(model, space_limit)
    winner = rc if rc.total_benefit >= cc.total_benefit else cc
    winner.extras["rc_benefit"] = rc.total_benefit
    winner.extras["cc_benefit"] = cc.total_benefit
    winner.extras["candidates"] = {"RC": rc, "CC": cc}
    return winner
