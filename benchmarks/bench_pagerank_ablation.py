"""Ablation: OntologyPR's modifications vs vanilla PageRank.

Algorithm 6 modifies PageRank in three ways (union rewiring,
inheritance removal + ancestor-max, reverse edges).  This ablation
measures what the CC algorithm loses when concept scores come from a
*vanilla* PageRank over the raw ontology digraph instead.
"""

from conftest import report

from repro.bench.harness import MICROBENCH_THRESHOLDS
from repro.bench.reporting import ExperimentTable
from repro.optimizer.costmodel import CostBenefitModel, RuleItem
from repro.optimizer.pagerank import ontology_pagerank, pagerank


def _vanilla_scores(ontology):
    adjacency = {c: [] for c in ontology.concepts}
    for rel in ontology.iter_relationships():
        adjacency[rel.src].append(rel.dst)
    scores, _ = pagerank(adjacency)
    return scores


def _cc_with_scores(dataset, scores, budget, model):
    """The CC selection loop with injected concept scores."""
    workload = dataset.workload("zipf")
    ranking = {
        c: scores.get(c, 0.0)
        * workload.af_concept(c)
        / max(1, dataset.stats.size_of_concept(dataset.ontology, c))
        for c in dataset.ontology.concepts
    }
    ranked = sorted(dataset.ontology.concepts,
                    key=lambda c: (-ranking[c], c))
    selected: list[RuleItem] = []
    seen = set()
    remaining = budget
    for concept in ranked:
        for item in sorted(
            model.items_touching(concept),
            key=lambda i: (-i.benefit, i.key),
        ):
            if item.key in seen:
                continue
            seen.add(item.key)
            if item.benefit > 0 and item.cost <= remaining:
                selected.append(item)
                remaining -= item.cost
    return model.benefit_ratio(selected)


def test_pagerank_ablation(med, fin):
    def run():
        table = ExperimentTable(
            "CC quality: OntologyPR vs vanilla PageRank",
            ["dataset", "space", "CC BR (OntologyPR)",
             "CC BR (vanilla PR)"],
        )
        for dataset in (med, fin):
            workload = dataset.workload("zipf")
            model = CostBenefitModel(
                dataset.ontology, dataset.stats, workload,
                MICROBENCH_THRESHOLDS,
            )
            onto_scores = ontology_pagerank(dataset.ontology).scores
            plain_scores = _vanilla_scores(dataset.ontology)
            for fraction in (0.1, 0.25, 0.5):
                budget = model.budget_for_fraction(fraction)
                table.add_row(
                    dataset.name,
                    f"{fraction:.0%}",
                    round(_cc_with_scores(
                        dataset, onto_scores, budget, model), 4),
                    round(_cc_with_scores(
                        dataset, plain_scores, budget, model), 4),
                )
        return table

    table = run()
    report(table, "ablation_pagerank.txt")
    # Both variants must produce valid selections; OntologyPR should
    # not be systematically worse.
    onto_brs = table.column("CC BR (OntologyPR)")
    plain_brs = table.column("CC BR (vanilla PR)")
    assert sum(onto_brs) >= sum(plain_brs) * 0.85
