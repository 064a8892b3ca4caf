"""The optimizer's output, pinned by digest.

Every speed-up of the cost model, the selectors or the rule engine must
leave what they produce byte for byte as it was: the selected items,
the benefit ratio, every node with its properties in insertion order
(the loader lays out columns in that order), the edges, the consumed
relationships and the mapping the loader and the rewriter read.  Each
case is one sha256 over all of that, recorded from the implementation
before those speed-ups; a mismatch means the optimizer's output moved.

The cases: MED and FIN (their published statistics and query
workloads, the microbenchmark's thresholds) at four budget fractions,
each with RC, CC and PGSG's pick, plus NSC; and one combined digest
over random ontologies, each transformed under a seeded random
:class:`Selection`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import astuple

import pytest

from repro.bench.harness import MICROBENCH_THRESHOLDS
from repro.datasets import build_fin, build_med
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.nsc import optimize_nsc
from repro.optimizer.pgsg import optimize
from repro.ontology.model import RelationshipType
from repro.rules.base import Selection
from repro.rules.engine import transform
from repro.schema.mapping import SchemaMapping
from tests.ontology_gen import random_ontology

FRACTIONS = (0.05, 0.25, 0.5, 1.0)

PINNED = {
    "med-0.05-RC":
        "836b26ac62cecfae6e24d628ff824068987c8a70b0de483554757e168d1fab1f",
    "med-0.05-CC":
        "99f6a3930e43c605b1457b06435fce396682e9196aeb2a32e69e95bf9657929c",
    "med-0.05-PGSG":
        "836b26ac62cecfae6e24d628ff824068987c8a70b0de483554757e168d1fab1f",
    "med-0.25-RC":
        "d3c90b7cf0d9f75dbe490c217f931fa8d606696c560d085f29bc1f9afbdae767",
    "med-0.25-CC":
        "289159635cfff90e697e3ce72eb07e18b15be97111fe94ea5c0bba3b4a459588",
    "med-0.25-PGSG":
        "d3c90b7cf0d9f75dbe490c217f931fa8d606696c560d085f29bc1f9afbdae767",
    "med-0.5-RC":
        "e8a941c4af93ee9e27b761e5560a39f04be0f7b5873ed6d3b98c7faec04c99fe",
    "med-0.5-CC":
        "cc18f5071d6dec9be5d4c0813f6666f8f0a702ddf31926c3c88ee5980a447287",
    "med-0.5-PGSG":
        "e8a941c4af93ee9e27b761e5560a39f04be0f7b5873ed6d3b98c7faec04c99fe",
    "med-1.0-RC":
        "4c5e300e5e021b99f9296568823c1a93de009f6f46586e07d86768f40eea6016",
    "med-1.0-CC":
        "4ddbc873c1f2ad18a29079bdbffd468dac1c85b950c2fa0dc1f2bf83997ca62f",
    "med-1.0-PGSG":
        "4ddbc873c1f2ad18a29079bdbffd468dac1c85b950c2fa0dc1f2bf83997ca62f",
    "med-NSC":
        "d505dd52847c2afdd7445dc28861130c1f3743797d6858059269d8b6be16c8d4",
    "fin-0.05-RC":
        "2afea0efab3288e73a22ebea843db9c83f19742e74b29086c9ca0feb1a8836e5",
    "fin-0.05-CC":
        "7ec6a210e5f04e59091be5b73a3177d2d7020b0642e03e81f3d0604fee362408",
    "fin-0.05-PGSG":
        "2afea0efab3288e73a22ebea843db9c83f19742e74b29086c9ca0feb1a8836e5",
    "fin-0.25-RC":
        "80710dfe000c939566b67aefaf49bc965dd6a5dd3b398453610490a497730146",
    "fin-0.25-CC":
        "64cc166d18640c1e94e9cb3cd5ad946748dd10d46dd67f64db07b89814a00a91",
    "fin-0.25-PGSG":
        "80710dfe000c939566b67aefaf49bc965dd6a5dd3b398453610490a497730146",
    "fin-0.5-RC":
        "330663255b86c3db4e2085e3d3393c007f79cc320786ef21eb9c1b368b703d1c",
    "fin-0.5-CC":
        "617822896edf0feb69da12533138af55cdea5b2a82702f8faf1f9b309e0d9ad7",
    "fin-0.5-PGSG":
        "330663255b86c3db4e2085e3d3393c007f79cc320786ef21eb9c1b368b703d1c",
    "fin-1.0-RC":
        "5f6261557c15ec7fd4397ffa0472f4b5d6f209ce96f22c14655c3dff8d233e32",
    "fin-1.0-CC":
        "e6a1f22e9a8cb25926430909e95505f7eae668c10ebc3bdb802556dc9e531ab0",
    "fin-1.0-PGSG":
        "e6a1f22e9a8cb25926430909e95505f7eae668c10ebc3bdb802556dc9e531ab0",
    "fin-NSC":
        "3a33883f46789671321ac615142152e8675433a75612c1c7c2a048ab7f475b02",
}

#: Random ontologies in the combined digest, and its value.
RANDOM_CASES = 600
RANDOM_DIGEST = (
    "45ca43827fe8b0a154c2b47d7bf1c475fe5b317726d5e6a0926d6a265dce4785"
)


def state_lines(state, mapping: SchemaMapping) -> list:
    """The rule engine's output as plain values, in a fixed order:
    nodes and their properties in insertion order, edges sorted."""
    lines: list = []
    for key, node in state.nodes.items():
        lines.append(("node", key, sorted(node.concepts)))
        for prop in node.properties.values():
            lines.append((
                "prop", prop.name, prop.data_type.name, prop.is_list,
                prop.origin_concept, prop.origin_name,
                prop.provenance.name, prop.via_rel, prop.via_direction,
            ))
    lines += sorted(
        ("edge", e.src, e.dst, e.label, e.rel_type.name, e.origin_rel)
        for e in state.edges
    )
    lines.append(("consumed", sorted(state.consumed)))
    lines += sorted(
        ("collapsed", rel_id, kind.name)
        for rel_id, kind in mapping.collapsed.items()
    )
    lines += sorted(
        ("labels", key, sorted(labels))
        for key, labels in mapping.node_labels.items()
    )
    lines += [("replication", *astuple(r)) for r in mapping.replications]
    return lines


def result_digest(result) -> str:
    lines = [
        ("algorithm", result.algorithm),
        ("selected", [item.key for item in result.selected_items]),
        ("benefit_ratio", repr(result.benefit_ratio)),
        *state_lines(result.state, result.mapping),
    ]
    return hashlib.sha256(repr(lines).encode()).hexdigest()


@pytest.fixture(scope="module", params=["med", "fin"])
def dataset(request):
    return build_med() if request.param == "med" else build_fin()


def optimized(dataset) -> dict[str, str]:
    """``case -> digest`` for one dataset."""
    workload = dataset.query_workload()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    name = dataset.name.lower()
    digests = {}
    for fraction in FRACTIONS:
        winner = optimize(
            dataset.ontology, dataset.stats,
            model.budget_for_fraction(fraction), workload,
            MICROBENCH_THRESHOLDS,
        )
        for algorithm, result in winner.extras["candidates"].items():
            digests[f"{name}-{fraction}-{algorithm}"] = result_digest(result)
        digests[f"{name}-{fraction}-PGSG"] = result_digest(winner)
    nsc = optimize_nsc(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    digests[f"{name}-NSC"] = result_digest(nsc)
    return digests


def test_paper_datasets_are_pinned(dataset):
    digests = optimized(dataset)
    expected = {
        case: value for case, value in PINNED.items()
        if case.startswith(dataset.name.lower() + "-")
    }
    assert digests == expected


def random_selection(ontology, rng: random.Random) -> Selection:
    """Each structural relationship and each (1:M / M:N, direction,
    native property) item enabled with probability one half."""
    rel_ids, list_props = set(), set()
    for rel in ontology.iter_relationships():
        if rel.rel_type in (
            RelationshipType.ONE_TO_MANY, RelationshipType.MANY_TO_MANY
        ):
            directions = (
                ("fwd", "rev")
                if rel.rel_type is RelationshipType.MANY_TO_MANY
                else ("fwd",)
            )
            for direction in directions:
                source = rel.dst if direction == "fwd" else rel.src
                for prop in ontology.concept(source).properties:
                    if rng.random() < 0.5:
                        list_props.add((rel.rel_id, direction, prop))
        elif rng.random() < 0.5:
            rel_ids.add(rel.rel_id)
    return Selection(
        rel_ids=frozenset(rel_ids), list_props=frozenset(list_props)
    )


def test_random_transforms_are_pinned():
    digest = hashlib.sha256()
    for seed in range(RANDOM_CASES):
        rng = random.Random(seed)
        ontology = random_ontology(
            seed, rng.randint(3, 8), rng.randint(2, 12)
        )
        selection = (
            Selection.all() if seed % 5 == 0
            else random_selection(ontology, rng)
        )
        state = transform(ontology, selection)
        lines = state_lines(state, SchemaMapping(ontology, state))
        digest.update(repr((seed, lines)).encode())
    assert digest.hexdigest() == RANDOM_DIGEST
