"""Algorithm 7: the concept-centric (CC) optimization algorithm.

Concepts are ranked by ``Score(ci) = pr(ci) * AF(ci) / Size(ci)``
(Equation 2), where ``pr`` is the OntologyPR centrality, ``AF`` the
concept's access frequency, and ``Size`` its storage footprint.  The
algorithm walks concepts in descending score order and greedily applies
every affordable rule on the relationships touching each concept.

Budget handling: a rule application is selected only when its cost fits
the remaining budget; scanning continues in score order (first-fit by
priority).  This matches Algorithm 7's space-exhaustion behavior without
overshooting the budget (the paper's pseudocode breaks after S drops
below zero; see DESIGN.md).

Reproduces: the CC series of Figures 8 and 9 (benefit ratio vs. space
budget on MED and FIN; ``benchmarks/bench_fig8_space_med.py`` /
``benchmarks/bench_fig9_space_fin.py``) and CC's rows in the Table 2
optimization-efficiency comparison
(``benchmarks/bench_table2_efficiency.py``).
"""

from __future__ import annotations

import time

from repro.ontology.model import Ontology
from repro.ontology.stats import DataStatistics
from repro.ontology.workload import WorkloadSummary
from repro.optimizer.costmodel import CostBenefitModel, RuleItem
from repro.optimizer.pagerank import ontology_pagerank
from repro.optimizer.result import OptimizationResult
from repro.rules.base import Thresholds


def concept_scores(
    ontology: Ontology,
    stats: DataStatistics,
    workload: WorkloadSummary,
) -> tuple[dict[str, float], int]:
    """Equation 2 scores for every concept; returns (scores, pr iters)."""
    pr = ontology_pagerank(ontology)
    scores = {}
    for concept in ontology.concepts:
        size = max(1, stats.size_of_concept(ontology, concept))
        scores[concept] = (
            pr[concept] * workload.af_concept(concept) / size
        )
    return scores, pr.iterations


def select_concept_centric(
    model: CostBenefitModel, space_limit: int
) -> OptimizationResult:
    """CC's items under ``space_limit`` bytes, not yet realized."""
    ontology = model.ontology
    scores, pr_iterations = concept_scores(
        ontology, model.stats, model.workload
    )
    ranked_concepts = sorted(ontology.concepts, key=lambda c: (-scores[c], c))

    selected: list[RuleItem] = []
    seen: set[tuple[str, str, str | None]] = set()
    remaining = space_limit
    for concept in ranked_concepts:
        # Local ordering: the concept's items by descending benefit.
        local_items = sorted(
            model.items_touching(concept),
            key=lambda item: (-item.benefit, item.key),
        )
        for item in local_items:
            if item.key in seen:
                continue
            seen.add(item.key)
            if item.benefit <= 0:
                continue
            if item.cost <= remaining:
                selected.append(item)
                remaining -= item.cost
    return OptimizationResult(
        "CC", model, selected, space_limit,
        extras={
            "pagerank_iterations": pr_iterations,
            "concept_order": ranked_concepts,
        },
    )


def optimize_concept_centric(
    ontology: Ontology,
    stats: DataStatistics,
    space_limit: int,
    workload: WorkloadSummary | None = None,
    thresholds: Thresholds | None = None,
) -> OptimizationResult:
    """Run the concept-centric algorithm under ``space_limit`` bytes."""
    started = time.perf_counter()
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    return select_concept_centric(model, space_limit).realize(started)
