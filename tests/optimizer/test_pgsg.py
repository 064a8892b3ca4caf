"""PGSG realizes only its winner: ``optimize()`` against both
algorithms run eagerly, on the paper's two ontologies."""

import pytest

from repro.bench import harness
from repro.bench.harness import MICROBENCH_THRESHOLDS
from repro.optimizer import result as result_module
from repro.optimizer.concept_centric import optimize_concept_centric
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.pgsg import optimize
from repro.optimizer.relation_centric import optimize_relation_centric
from tests.rules.fixpoint_oracle import fingerprint

FRACTIONS = (0.05, 0.25, 0.5, 1.0)


@pytest.fixture(params=["med", "fin"])
def priced(request, med_small, fin_small):
    """``(run, model)`` as ``build_pipeline`` prices a dataset:
    ``run(optimizer, budget)`` calls one of the three optimizers."""
    dataset = med_small if request.param == "med" else fin_small
    workload = dataset.query_workload()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )

    def run(optimizer, budget):
        return optimizer(
            dataset.ontology, dataset.stats, budget, workload,
            MICROBENCH_THRESHOLDS,
        )

    return run, model


@pytest.fixture()
def transforms(monkeypatch):
    """Counts the rule-engine runs :mod:`repro.optimizer.result` makes."""
    calls = []
    transform = result_module.transform
    monkeypatch.setattr(
        result_module, "transform",
        lambda *args: calls.append(args) or transform(*args),
    )
    return calls


def realized(result):
    """What a load and a rewrite read off a result, comparably."""
    schema, mapping = result.schema, result.mapping
    return (
        schema.name, schema.vertex_schemas, schema.edge_schemas,
        mapping.collapsed, mapping.node_labels, mapping.replications,
    )


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_optimize_is_the_better_eager_algorithm(priced, transforms, fraction):
    run, model = priced
    budget = model.budget_for_fraction(fraction)
    rc = run(optimize_relation_centric, budget)
    cc = run(optimize_concept_centric, budget)
    assert len(transforms) == 2
    best = rc if rc.total_benefit >= cc.total_benefit else cc

    del transforms[:]
    got = run(optimize, budget)
    assert len(transforms) == 1, "the loser was realized too"
    assert got.algorithm == best.algorithm
    assert got.selected_items == best.selected_items
    assert got.selection == best.selection
    assert got.benefit_ratio == best.benefit_ratio
    assert (got.total_benefit, got.total_cost) == (
        best.total_benefit, best.total_cost
    )
    assert realized(got) == realized(best)
    assert got.extras["rc_benefit"] == rc.total_benefit
    assert got.extras["cc_benefit"] == cc.total_benefit
    assert got.elapsed_seconds > 0

    # Both candidates are priced on the result; the loser's schema is
    # computed on first read and equals the eager one.
    candidates = got.extras["candidates"]
    assert candidates[got.algorithm] is got
    for eager in (rc, cc):
        candidate = candidates[eager.algorithm]
        assert candidate.selected_items == eager.selected_items
        assert candidate.selection == eager.selection
        assert (
            candidate.total_benefit, candidate.total_cost,
            candidate.benefit_ratio, candidate.space_limit,
        ) == (
            eager.total_benefit, eager.total_cost,
            eager.benefit_ratio, budget,
        )
    assert len(transforms) == 1
    loser, = (c for c in candidates.values() if c is not got)
    eager = rc if loser.algorithm == "RC" else cc
    assert realized(loser) == realized(eager)
    assert fingerprint(loser.state) == fingerprint(eager.state)
    assert len(transforms) == 2
    assert loser.schema is loser.schema and len(transforms) == 2


def test_both_algorithms_lose_somewhere(priced):
    """Or the lazy half above is only ever CC's: at the full budget
    both select every item and CC's summation order reads a few ulps
    higher, below it RC wins."""
    run, model = priced
    winners = {
        run(optimize, model.budget_for_fraction(fraction)).algorithm
        for fraction in FRACTIONS
    }
    assert winners == {"RC", "CC"}


def test_build_pipeline_prices_the_rules_once(med_small, monkeypatch):
    """``build_pipeline`` sizes the budget with the model it hands to
    PGSG, and realizes what ``optimize()`` would have."""
    models = []
    model_class = harness.CostBenefitModel

    def counted(*args):
        models.append(model_class(*args))
        return models[-1]

    monkeypatch.setattr(harness, "CostBenefitModel", counted)
    pipeline = harness.build_pipeline(med_small, scale=0.1)
    (model,) = models
    assert pipeline.result.model is model
    expected = optimize(
        med_small.ontology, med_small.stats,
        model.budget_for_fraction(harness.MICROBENCH_BUDGET_FRACTION),
        med_small.query_workload(), MICROBENCH_THRESHOLDS,
    )
    assert pipeline.result.selected_items == expected.selected_items
    assert realized(pipeline.result) == realized(expected)
    assert pipeline.result.elapsed_seconds > 0
