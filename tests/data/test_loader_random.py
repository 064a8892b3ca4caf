"""The bulk loaders against their per-element reference on random
ontologies: the ``retyped_random_ontology`` draws of
``test_generator_parity.py`` (every data type, identity properties,
a 1:1), under the mapping ``optimize`` picks at 30 % and at 100 % of
the space budget.  ``test_loader_bulk.py`` covers the paper's two
datasets; this covers the merges, label sets and replications those
two never produce.  ``REPRO_DIFF_SEED`` seeds the draws, as for the
differential query fuzzer; CI runs one extra logged random seed per
build.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import MICROBENCH_THRESHOLDS
from repro.data import LoadRegistry, generate_logical
from repro.data.loader import load_direct, load_optimized
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.pgsg import optimize
from repro.ontology.stats import synthesize_statistics
from tests.data.loader_oracle import (
    reference_load_direct,
    reference_load_optimized,
)
from tests.data.test_generator_parity import (
    RANDOM_DRAWS,
    SEED,
    retyped_random_ontology,
)
from tests.data.test_loader_bulk import assert_identical

pytestmark = pytest.mark.diff_seed

FRACTIONS = (0.3, 1.0)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("index", range(RANDOM_DRAWS))
def test_random_ontologies_load_as_the_oracle(index, fraction):
    draw = random.Random(SEED * 1000 + index).randrange(10**6)
    ontology = retyped_random_ontology(draw)
    stats = synthesize_statistics(ontology, base_cardinality=12, seed=draw)
    logical = generate_logical(ontology, stats, seed=draw)
    model = CostBenefitModel(ontology, stats, None, MICROBENCH_THRESHOLDS)
    mapping = optimize(
        ontology, stats, model.budget_for_fraction(fraction), None,
        MICROBENCH_THRESHOLDS,
    ).mapping
    context = f"seed={SEED} draw={draw} fraction={fraction}"

    registry, want_registry = LoadRegistry(), LoadRegistry()
    graph = load_direct(logical, "g", registry)
    reference = reference_load_direct(logical, "g", want_registry)
    assert_identical(graph, reference)
    assert registry == want_registry, context

    registry, want_registry = LoadRegistry(), LoadRegistry()
    graph = load_optimized(logical, mapping, "g", registry)
    reference = reference_load_optimized(
        logical, mapping, "g", want_registry
    )
    assert_identical(graph, reference)
    assert registry == want_registry, context
