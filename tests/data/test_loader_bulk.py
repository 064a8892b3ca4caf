"""The bulk loaders against their per-element reference, on the
paper's two datasets: nothing a query, a snapshot or
:mod:`repro.data.updates` can observe may differ.
"""

import pytest

from repro.bench.harness import build_pipeline
from repro.data.loader import LoadRegistry, load_direct, load_optimized
from repro.graphdb.storage import graph_state
from repro.schema.generate import optimize_schema_nsc
from tests.data.loader_oracle import (
    reference_load_direct,
    reference_load_optimized,
)
from tests.graphdb.randgraph import adjacency_reads, label_lists


@pytest.fixture(scope="module", params=["med", "fin"])
def pipeline(request, med_small, fin_small):
    dataset = med_small if request.param == "med" else fin_small
    return build_pipeline(dataset, scale=0.3)


def assert_identical(graph, reference) -> None:
    # Ids, label sets, property values and list element order ...
    assert graph_state(graph) == graph_state(reference)
    # ... the columns and interning order a snapshot writes ...
    assert graph._e_src == reference._e_src
    assert graph._e_dst == reference._e_dst
    assert graph._e_label == reference._e_label
    names = [graph.symbols.name(i) for i in range(len(graph.symbols))]
    assert names == [
        reference.symbols.name(i) for i in range(len(reference.symbols))
    ]
    assert [t.labels for t in graph.iter_tables()] == [
        t.labels for t in reference.iter_tables()
    ]
    # ... and the adjacency order expansion walks.
    assert adjacency_reads(graph) == adjacency_reads(reference)
    assert label_lists(graph) == label_lists(reference)


def test_load_direct_matches_per_element_loader(pipeline):
    registry, want_registry = LoadRegistry(), LoadRegistry()
    graph = load_direct(pipeline.logical, "g", registry)
    reference = reference_load_direct(pipeline.logical, "g", want_registry)
    assert graph.num_edges == pipeline.logical.num_links > 0
    assert_identical(graph, reference)
    assert registry == want_registry


def test_load_optimized_matches_per_element_loader(pipeline):
    mapping = pipeline.result.mapping
    assert mapping.collapsed and mapping.replications
    registry, want_registry = LoadRegistry(), LoadRegistry()
    graph = load_optimized(pipeline.logical, mapping, "g", registry)
    reference = reference_load_optimized(
        pipeline.logical, mapping, "g", want_registry
    )
    assert_identical(graph, reference)
    assert registry == want_registry


def test_merged_group_fallback_matches_per_element_loader(med_small):
    """NSC replicates properties that live on another member of the
    partner's merged group - the ``_group_property`` scan, taken once
    per group and entry, which the budgeted pipelines never reach."""
    logical = med_small.logical(scale=0.3)
    _, mapping = optimize_schema_nsc(med_small.ontology)
    registry, want_registry = LoadRegistry(), LoadRegistry()
    graph = load_optimized(logical, mapping, "g", registry)
    reference = reference_load_optimized(
        logical, mapping, "g", want_registry
    )
    assert_identical(graph, reference)
    assert registry == want_registry
