"""Algorithm 5: optimization without space constraints (NSC).

Applies every rule to a fixpoint.  Theorem 3 guarantees the produced
schema is unique regardless of rule order; the space-constrained
algorithms measure their quality against this schema's total benefit
(``BR = B_SC / B_NSC``).

Reproduces: the benefit/space ceilings of Figures 8 and 9 (the
``BR = 1`` asymptote and the space axis normalization,
``benchmarks/bench_fig8_space_med.py`` /
``benchmarks/bench_fig9_space_fin.py``) and the Figures 4-7 example
transformations shown by ``examples/quickstart.py``.
"""

from __future__ import annotations

import time

from repro.ontology.model import Ontology
from repro.ontology.stats import DataStatistics
from repro.ontology.workload import WorkloadSummary
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.result import OptimizationResult
from repro.rules.base import Selection, Thresholds


def optimize_nsc(
    ontology: Ontology,
    stats: DataStatistics | None = None,
    workload: WorkloadSummary | None = None,
    thresholds: Thresholds | None = None,
) -> OptimizationResult:
    """Run Algorithm 5 and price the outcome with the cost model.

    ``stats`` is only needed to report benefit/cost numbers; when omitted,
    unit cardinalities are assumed.
    """
    started = time.perf_counter()
    if stats is None:
        from repro.ontology.stats import synthesize_statistics

        stats = synthesize_statistics(ontology, base_cardinality=1)
    model = CostBenefitModel(ontology, stats, workload, thresholds)
    return OptimizationResult(
        "NSC", model, model.items, None, selection=Selection.all()
    ).realize(started)
