"""Ablations beyond the paper's figures (design-choice studies).

* Knapsack solver choice for RC: FPTAS vs ratio-greedy vs exact DP
  (the paper adopts the FPTAS; this quantifies what that buys).
* Rule-family contribution: benefit share per relationship type, which
  explains *why* the schemas win (union/inheritance collapses vs list
  replication).
"""

from conftest import report

from repro.bench.harness import run_knapsack_ablation
from repro.bench.reporting import ExperimentTable
from repro.optimizer.costmodel import CostBenefitModel
from repro.bench.harness import MICROBENCH_THRESHOLDS


def test_knapsack_ablation(med, fin):
    def run():
        tables = []
        for dataset in (med, fin):
            tables.append(run_knapsack_ablation(dataset))
        return tables

    med_table, fin_table = run()
    report(med_table, "ablation_knapsack_med.txt")
    report(fin_table, "ablation_knapsack_fin.txt")
    for table in (med_table, fin_table):
        for fptas, greedy in zip(
            table.column("FPTAS BR"), table.column("greedy BR")
        ):
            assert fptas >= greedy - 0.05


def test_rule_family_contribution(med, fin):
    def run():
        table = ExperimentTable(
            "Benefit share per relationship-rule family",
            ["dataset", "rule family", "items", "benefit share",
             "cost share"],
        )
        for dataset in (med, fin):
            model = CostBenefitModel(
                dataset.ontology, dataset.stats,
                dataset.workload("zipf"), MICROBENCH_THRESHOLDS,
            )
            total_benefit = model.total_benefit or 1.0
            total_cost = model.total_cost or 1
            by_family: dict[str, list] = {}
            for item in model.items:
                by_family.setdefault(item.rel_type.value, []).append(item)
            for family, items in sorted(by_family.items()):
                table.add_row(
                    dataset.name,
                    family,
                    len(items),
                    round(
                        sum(i.benefit for i in items) / total_benefit, 3
                    ),
                    round(sum(i.cost for i in items) / total_cost, 3),
                )
        return table

    table = run()
    report(table, "ablation_rule_families.txt")
    shares = {
        (row[0], row[1]): row[3] for row in table.rows
    }
    # FIN is inheritance-dominant (69 of 138 relationships).
    assert shares[("FIN", "inheritance")] > 0.3
