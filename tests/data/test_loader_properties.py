"""Property-based loader invariants over random ontologies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.generator import generate_logical
from repro.data.loader import load_direct, load_optimized
from repro.ontology.stats import synthesize_statistics
from repro.schema.generate import optimize_schema_nsc
from tests.ontology_gen import random_ontology


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 300))
def test_loader_invariants(seed):
    ontology = random_ontology(seed, 5, 7)
    stats = synthesize_statistics(ontology, base_cardinality=12,
                                  seed=seed)
    logical = generate_logical(ontology, stats, seed=seed)
    logical.validate()

    dir_graph = load_direct(logical)
    assert dir_graph.num_vertices == logical.num_instances
    assert dir_graph.num_edges == logical.num_links

    schema, mapping = optimize_schema_nsc(ontology)
    opt_graph = load_optimized(logical, mapping)

    # Vertex count: one vertex per connected component of instances
    # under collapsed links (computed here with an independent
    # union-find as a cross-check of the loader's merging).
    parent = list(range(logical.num_instances))

    def find(iid):
        while parent[iid] != iid:
            parent[iid] = parent[parent[iid]]
            iid = parent[iid]
        return iid

    collapsed_links = 0
    for rel_id in mapping.collapsed:
        for src, dst in zip(*logical.link_ids.get(rel_id, ((), ()))):
            collapsed_links += 1
            ra, rb = find(src), find(dst)
            if ra != rb:
                parent[rb] = ra
    components = len({find(iid) for iid in range(logical.num_instances)})
    assert opt_graph.num_vertices == components
    assert opt_graph.num_vertices >= (
        logical.num_instances - collapsed_links
    )

    # Edge count: collapsed links disappear, everything else survives.
    assert opt_graph.num_edges == logical.num_links - collapsed_links

    # Every vertex keeps at least one ontology concept label.
    for vertex in opt_graph.iter_vertices():
        assert vertex.labels & set(ontology.concepts)

    # Per-concept vertex coverage: each concept's instances map onto
    # at least one OPT vertex carrying the concept label.
    for concept in logical.ids:
        assert opt_graph.label_count(concept) >= 1


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 300))
def test_replicated_lists_well_formed(seed):
    """List properties are absent-if-empty and hold non-null values,
    and each replication group contributes at most one entry per link."""
    ontology = random_ontology(seed, 5, 7)
    stats = synthesize_statistics(ontology, base_cardinality=10,
                                  seed=seed)
    logical = generate_logical(ontology, stats, seed=seed)
    _, mapping = optimize_schema_nsc(ontology)
    opt_graph = load_optimized(logical, mapping)

    list_names = {r.list_name for r in mapping.replications}
    groups_per_name: dict[str, set] = {}
    for repl in mapping.replications:
        groups_per_name.setdefault(repl.list_name, set()).add(
            (repl.rel_id, repl.direction, repl.source_concept,
             repl.source_property)
        )
    total_links = logical.num_links
    for name in list_names:
        total = 0
        for vertex in opt_graph.iter_vertices():
            values = vertex.properties.get(name)
            if values is None:
                continue
            assert isinstance(values, list) and values, name
            assert all(v is not None for v in values)
            total += len(values)
        assert total <= total_links * len(groups_per_name[name])
