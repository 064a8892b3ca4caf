"""Materialization parity: an updated DIR/OPT pair equals a fresh load.

``GraphUpdater`` patches the two materialized graphs in place; the
loaders build them from nothing.  Both read the same logical dataset,
so after any stream of updates the patched graphs must be the graphs
``load_direct`` / ``load_optimized`` build from the updated logical
data - vertex by vertex (label sets, scalar properties, replicated
lists *in order*), edge multiset by edge multiset - and the paper's
twelve queries must still answer the same on DIR and rewritten OPT.

Hypothesis draws the streams over MED and FIN at scale 0.05 (288 / 544
instances - SNIPPETS.md snippet 1's validate-small shape) under four
schemas each: PGSG at 10 %, 50 % and 100 % of the space budget, and
NSC.  ``REPRO_DIFF_SEED`` seeds the draw, as for the differential
query fuzzer; CI runs one extra logged random seed per build.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from repro.bench.harness import MICROBENCH_THRESHOLDS
from repro.data import (
    GraphUpdater,
    LoadRegistry,
    load_direct,
    load_optimized,
)
from repro.datasets import build_fin, build_med
from repro.graphdb import Executor, GraphSession, NEO4J_LIKE
from repro.graphdb.query import EdgeBinding, VertexBinding
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.pgsg import optimize
from repro.schema.generate import optimize_schema_nsc
from repro.workload.rewriter import QueryRewriter
from tests.data.generator_oracle import _properties_for

pytestmark = pytest.mark.diff_seed

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260808"))
SCALE = 0.05
SCHEMAS = ("pgsg-0.1", "pgsg-0.5", "pgsg-1.0", "nsc")
KINDS = ("insert_instance", "insert_link", "delete_link", "set_property")


def build_mapping(dataset, schema: str):
    if schema == "nsc":
        return optimize_schema_nsc(dataset.ontology)[1]
    workload = dataset.query_workload()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    budget = model.budget_for_fraction(float(schema.split("-")[1]))
    return optimize(
        dataset.ontology, dataset.stats, budget, workload,
        MICROBENCH_THRESHOLDS,
    ).mapping


class Harness:
    """One freshly loaded (logical, DIR, OPT, updater) and the checks."""

    def __init__(self, dataset, mapping):
        self.dataset = dataset
        self.mapping = mapping
        self.ontology = dataset.ontology
        self.logical = dataset.logical(scale=SCALE)
        self.dir_registry, self.opt_registry = LoadRegistry(), LoadRegistry()
        self.dir_graph = load_direct(self.logical, registry=self.dir_registry)
        self.opt_graph = load_optimized(
            self.logical, mapping, registry=self.opt_registry
        )
        self.updater = GraphUpdater(
            self.logical, mapping, self.dir_graph, self.dir_registry,
            self.opt_graph, self.opt_registry,
        )
        derived = self.ontology.derived_concepts()
        self.insertable = [
            c for c in self.ontology.concepts if c not in derived
        ]
        #: relationships whose links the updater patches: functional
        #: and not collapsed by the mapping.
        self.patchable = [
            rel for rel in self.ontology.iter_relationships()
            if rel.rel_type.is_functional
            and not mapping.is_collapsed(rel.rel_id)
        ]

    # -- one drawn operation ------------------------------------------
    def apply(self, kind: str, a: int, b: int, c: int) -> None:
        """Interpret ``(kind, a, b, c)`` against the current data; a
        draw that names nothing (no instance, no link) is skipped."""
        logical, updater = self.logical, self.updater
        if kind == "insert_instance":
            concept = self.insertable[a % len(self.insertable)]
            updater.insert_instance(concept, self.values(concept, b))
        elif kind == "insert_link":
            rel = self.patchable[a % len(self.patchable)]
            srcs = logical.ids.get(rel.src, ())
            dsts = logical.ids.get(rel.dst, ())
            if srcs and dsts:
                updater.insert_link(
                    rel.rel_id, logical.uids[srcs[b % len(srcs)]],
                    logical.uids[dsts[c % len(dsts)]],
                )
        elif kind == "delete_link":
            linked = [
                rel for rel in self.patchable
                if logical.link_ids.get(rel.rel_id, ((),))[0]
            ]
            rel = linked[a % len(linked)]
            srcs, dsts = logical.link_ids[rel.rel_id]
            at = b % len(srcs)
            updater.delete_link(
                rel.rel_id, logical.uids[srcs[at]], logical.uids[dsts[at]]
            )
        else:
            iid = a % logical.num_instances
            uid = logical.uids[iid]
            concept = logical.concept_name(iid)
            names = list(self.ontology.concept(concept).properties)
            if names:
                name = names[b % len(names)]
                updater.set_property(
                    uid, name, self.values(concept, 10_000 + c)[name]
                )

    def values(self, concept: str, n: int) -> dict[str, object]:
        return _properties_for(self.ontology, concept, n, random.Random(n))

    # -- the three assertions -----------------------------------------
    def difference(self, which: str = "opt"):
        """What a reload of the logical data builds differently:
        ``(vertices as (uids, got, want), extra edges, missing edges)``."""
        reload_registry = LoadRegistry()
        if which == "opt":
            graph, registry = self.opt_graph, self.opt_registry
            reloaded = load_optimized(
                self.logical, self.mapping, registry=reload_registry
            )
        else:
            graph, registry = self.dir_graph, self.dir_registry
            reloaded = load_direct(self.logical, registry=reload_registry)
        got, got_edges = materialized(graph, registry)
        want, want_edges = materialized(reloaded, reload_registry)
        wrong = [
            (sorted(group), got.get(group), want.get(group))
            for group in got.keys() | want.keys()
            if got.get(group) != want.get(group)
        ]
        return wrong, got_edges - want_edges, want_edges - got_edges

    def assert_parity(self) -> None:
        for which in ("opt", "dir"):
            wrong, extra, missing = self.difference(which)
            assert not wrong, (
                f"{which}: {len(wrong)} vertices differ from a reload, "
                f"e.g. {wrong[0]}"
            )
            assert not extra and not missing, (
                f"{which}: edges {list(extra)} extra, {list(missing)} missing"
            )

    def assert_queries_equivalent(self) -> None:
        rewriter = QueryRewriter(self.ontology, self.mapping)
        for qid, text in self.dataset.queries.items():
            dir_rows = Executor(
                GraphSession(self.dir_graph, NEO4J_LIKE)
            ).run(text).rows
            opt_rows = Executor(
                GraphSession(self.opt_graph, NEO4J_LIKE)
            ).run(rewriter.rewrite(text)).rows
            assert flattened(dir_rows) == flattened(opt_rows), qid


def flattened(rows) -> list:
    """The multiset the paper's equivalence claim is about (the
    comparator of ``benchmarks/e2e``'s equivalence check): list cells -
    OPT's replicated properties - expand to one row per element, and
    entity cells compare by kind, since vertex ids differ between the
    two graphs."""
    out = []
    for row in rows:
        cells = [v if isinstance(v, list) else (v,) for v in row]
        out += [
            tuple(
                "entity"
                if isinstance(v, (VertexBinding, EdgeBinding)) else v
                for v in combo
            )
            for combo in product(*cells)
        ]
    return sorted(out, key=repr)


def materialized(graph, registry):
    """What a graph holds, keyed by logical identity instead of vids:
    ``{instance id group: (labels, properties)}`` and the edge multiset
    over ``(source id group, label, target id group)``."""
    members: dict[int, set[int]] = {}
    for iid, vid in enumerate(registry.vid_of):
        members.setdefault(vid, set()).add(iid)
    group_of = {vid: frozenset(ids) for vid, ids in members.items()}
    assert len(group_of) == graph.num_vertices
    vertices = {
        group: (graph.labels_of(vid), dict(graph.vertex(vid).properties))
        for vid, group in group_of.items()
    }
    edges = Counter(
        (group_of[edge.src], edge.label, group_of[edge.dst])
        for edge in graph.iter_edges()
    )
    return vertices, edges


@pytest.fixture(scope="module", params=["med", "fin"])
def dataset(request):
    return build_med() if request.param == "med" else build_fin()


@pytest.fixture(scope="module", params=SCHEMAS)
def mapping(request, dataset):
    return build_mapping(dataset, request.param)


STREAMS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16),
    ),
    min_size=1, max_size=12,
)


def test_updated_graphs_equal_a_reload(dataset, mapping):
    # Tier-1 budget: an example is ~40 ms on MED, ~150 ms on FIN, and
    # ~1.5 s on FIN-NSC (135 vertices merging 544 instances, 8 608
    # replications: every touched vertex owns hundreds of lists).
    heavy = len(mapping.replications) > 5_000
    examples = 8 if dataset.name == "MED" else 2 if heavy else 6

    # No shrink phase: a failing stream is at most twelve operations,
    # and shrinking one reloads FIN several hundred times.
    @seed(SEED)
    @settings(
        max_examples=examples, deadline=None, database=None,
        phases=(Phase.explicit, Phase.generate),
    )
    @given(stream=STREAMS)
    def check(stream):
        harness = Harness(dataset, mapping)
        for operation in stream:
            harness.apply(*operation)
        harness.assert_parity()
        harness.assert_queries_equivalent()

    check()


def divergence_table(per_kind: int = 40) -> None:
    """``python tests/data/test_update_parity.py``: per dataset x
    schema x update kind, how many OPT vertices differ from a reload
    after ``per_kind`` updates of that kind alone (the table in
    benchmarks/EXPERIMENTS.md, "One materializer")."""
    print("| dataset | schema | OPT vertices | " + " | ".join(KINDS) + " |")
    print("|---|---|---:|" + "---:|" * len(KINDS))
    for dataset in (build_med(), build_fin()):
        for schema in SCHEMAS:
            mapping = build_mapping(dataset, schema)
            cells = []
            for kind in KINDS:
                harness = Harness(dataset, mapping)
                rng = random.Random(SEED)
                for _ in range(per_kind):
                    harness.apply(
                        kind, *(rng.randrange(2**16) for _ in range(3))
                    )
                cells.append(len(harness.difference()[0]))
            print(
                f"| {dataset.name} | {schema} | "
                f"{harness.opt_graph.num_vertices} | "
                + " | ".join(map(str, cells)) + " |"
            )


if __name__ == "__main__":
    divergence_table()
