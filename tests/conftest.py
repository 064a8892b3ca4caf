"""Shared fixtures: sample ontologies, small datasets, tiny pipelines."""

from __future__ import annotations

import pytest

from repro.bench.harness import build_pipeline
from repro.datasets import build_fin, build_med
from repro.ontology.samples import (
    figure1_mini_ontology,
    figure2_medical_ontology,
)
from repro.ontology.stats import synthesize_statistics


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "diff_seed: reads REPRO_DIFF_SEED; CI reruns these at a fresh "
        "random seed (python -m pytest -m diff_seed)",
    )


@pytest.fixture()
def fig2():
    return figure2_medical_ontology()


@pytest.fixture()
def fig1():
    return figure1_mini_ontology()


@pytest.fixture()
def fig2_stats(fig2):
    return synthesize_statistics(fig2, base_cardinality=40, seed=3)


@pytest.fixture(scope="session")
def med_small():
    return build_med(base_cardinality=30, seed=11)


@pytest.fixture(scope="session")
def fin_small():
    return build_fin(base_cardinality=6, seed=13)


@pytest.fixture(scope="session")
def diff_graph():
    """The differential-testing graph: every kernel-relevant column
    shape (typed columns with missing values, NaN floats, an object
    column, a mid-table promotion to object), plus a frozen CSR view.

    Session-scoped and shared: differential runs never mutate it (each
    run opens a fresh :class:`~repro.graphdb.session.GraphSession`, so
    work counters stay per-run)."""
    from tests.graphdb.diffquery import build_differential_graph

    return build_differential_graph()


@pytest.fixture()
def diff_gen():
    """Factory for seeded random query generators over ``diff_graph``'s
    schema: ``gen = diff_gen(seed)``; ``gen.query()`` yields
    ``(text, params)`` pairs."""
    import random

    from tests.graphdb.diffquery import QueryGen

    return lambda seed: QueryGen(random.Random(seed))


@pytest.fixture(scope="session")
def med_pipeline(med_small):
    """A full MED pipeline at test scale (optimize + load + rewrite)."""
    return build_pipeline(med_small, scale=1.0)


@pytest.fixture(scope="session")
def fin_pipeline(fin_small):
    return build_pipeline(fin_small, scale=1.0)
