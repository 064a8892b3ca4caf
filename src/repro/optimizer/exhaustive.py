"""Exhaustive-search baseline for relationship selection.

Section 5.4 of the paper compares against "an exhaustive search
approach, which even failed to produce an optimal schema for MED after
3 hours".  This module provides that baseline: it enumerates every
subset of priced rule applications and returns a truly optimal
selection.  It is exponential in the number of items and guarded by
``max_items``, so it is only usable on small ontologies - which is
exactly the point; ``tests/optimizer/test_exhaustive.py`` uses it as
ground truth for RC's near-optimality.

Reproduces: the exhaustive-search baseline of the Section 5.4 / Table 2
efficiency comparison (``benchmarks/bench_table2_efficiency.py``
reports it timing out past ``max_items`` exactly as the paper's run
did after 3 hours).
"""

from __future__ import annotations

import time
from itertools import combinations

from repro.exceptions import OptimizationError
from repro.ontology.model import Ontology
from repro.ontology.stats import DataStatistics
from repro.ontology.workload import WorkloadSummary
from repro.optimizer.costmodel import CostBenefitModel, RuleItem
from repro.optimizer.result import OptimizationResult
from repro.rules.base import Thresholds

#: Beyond this many priced items the enumeration is rejected (2^24
#: subsets is already ~17M; the paper's MED has well over 100 items,
#: which is why its exhaustive baseline never finished).
DEFAULT_MAX_ITEMS = 22


def optimal_selection(
    items: list[RuleItem],
    capacity: int,
    max_items: int = DEFAULT_MAX_ITEMS,
) -> list[RuleItem]:
    """The benefit-optimal subset of ``items`` within ``capacity``.

    Free beneficial items are always taken; the exponential enumeration
    runs over the priced ones only.
    """
    free = [i for i in items if i.cost == 0 and i.benefit > 0]
    priced = [
        i for i in items
        if i.cost > 0 and i.benefit > 0 and i.cost <= capacity
    ]
    if len(priced) > max_items:
        raise OptimizationError(
            f"exhaustive search over {len(priced)} items "
            f"(> {max_items}) is infeasible; use the RC algorithm"
        )
    best_benefit = -1.0
    best_subset: tuple[RuleItem, ...] = ()
    for size in range(len(priced) + 1):
        for subset in combinations(priced, size):
            cost = sum(i.cost for i in subset)
            if cost > capacity:
                continue
            benefit = sum(i.benefit for i in subset)
            if benefit > best_benefit:
                best_benefit = benefit
                best_subset = subset
    return free + list(best_subset)


def optimize_exhaustive(
    ontology: Ontology,
    stats: DataStatistics,
    space_limit: int,
    workload: WorkloadSummary | None = None,
    thresholds: Thresholds | None = None,
    max_items: int = DEFAULT_MAX_ITEMS,
) -> OptimizationResult:
    """The paper's exhaustive baseline as a full optimizer."""
    started = time.perf_counter()
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    selected = optimal_selection(model.items, space_limit, max_items)
    return OptimizationResult(
        "EXH", model, selected, space_limit
    ).realize(started)
