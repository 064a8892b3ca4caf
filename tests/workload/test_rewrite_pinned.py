"""The DIR -> OPT rewriter's output, pinned by digest.

A refactor of :class:`~repro.workload.rewriter.QueryRewriter` must
return the same ``Query`` for every ontology, mapping and query text,
or raise the same error.  Each case is one sha256 over ``repr`` of every
output (or the error's type and message), recorded from the rewriter
before that refactor; a mismatch means the rewriter's output moved.

The mappings are the ones ``tests/optimizer/test_output_pinned.py``
realizes: MED and FIN at four budget fractions with RC, CC and PGSG's
pick, plus NSC, and random ontologies under a seeded random
:class:`Selection`.  The texts are the dataset's queries and, per
relationship and orientation, templated queries over its far endpoint:
``count(y.p)``, ``collect(y.p)``, ``count(y)``, a bare ``y.p``, a
grouped ``count`` and a mixed projection.

Tier-1 takes one template per relationship and orientation, in turn,
over the first far property, and a sample of the random draws.  The
full sweep (every template over every far property, 600 random draws)
runs outside it::

    PYTHONPATH=src python -m tests.workload.test_rewrite_pinned

and prints the case count and one digest over all of them.
"""

from __future__ import annotations

import functools
import hashlib
import random

from repro.bench.harness import MICROBENCH_THRESHOLDS
from repro.datasets import build_fin, build_med
from repro.graphdb.query.parser import parse_query
from repro.optimizer.costmodel import CostBenefitModel
from repro.optimizer.nsc import optimize_nsc
from repro.optimizer.pgsg import select_pgsg
from repro.rules.base import Selection
from repro.rules.engine import transform
from repro.schema.mapping import SchemaMapping
from repro.workload.rewriter import QueryRewriter
from tests.ontology_gen import random_ontology
from tests.optimizer.test_output_pinned import FRACTIONS, random_selection

PINNED = {
    "med-0.05-RC":
        "4c6da8d9e57512ad75b9c30564e42d99aa3c358b7aa9c86597e92b7729bf5525",
    "med-0.05-CC":
        "1df62bf31cad64e787dc7321824ca008bfd504adf1fe03dd6a6aca6ffa6586a1",
    "med-0.05-PGSG":
        "4c6da8d9e57512ad75b9c30564e42d99aa3c358b7aa9c86597e92b7729bf5525",
    "med-0.25-RC":
        "357b436c5298381da39a028a695908e6c167b09eebdda2d0a60ac1ea648ab66c",
    "med-0.25-CC":
        "b6e2a74e8e83121f75447138990fb6bdc40de7aa703e3ab392e02ae223dac0de",
    "med-0.25-PGSG":
        "357b436c5298381da39a028a695908e6c167b09eebdda2d0a60ac1ea648ab66c",
    "med-0.5-RC":
        "488111668c4735403e3c5464611633417edc4c0dec00c5f8028f344090b9395b",
    "med-0.5-CC":
        "164e2c3828dd4b5a0fd3bbff14ed479bbf26e24f4d5fa97c9b33b2148511af00",
    "med-0.5-PGSG":
        "488111668c4735403e3c5464611633417edc4c0dec00c5f8028f344090b9395b",
    "med-1.0-RC":
        "a05ffe904a7fcf306a70899e7d31fd49fe1d2a4883c03745ae114b1cb4928308",
    "med-1.0-CC":
        "a05ffe904a7fcf306a70899e7d31fd49fe1d2a4883c03745ae114b1cb4928308",
    "med-1.0-PGSG":
        "a05ffe904a7fcf306a70899e7d31fd49fe1d2a4883c03745ae114b1cb4928308",
    "med-NSC":
        "07e055c5d30f1d72b9d2f67234015cc7e99eccf0f048a770d95b429ab02ea615",
    "fin-0.05-RC":
        "c935d5c448c56d66aa45a7f92590807f3eb86ae787578e3809d218468270c093",
    "fin-0.05-CC":
        "13b20a527e86368e2f3209f82f784721fad40e4a119b6ace1a3f8e893d07328a",
    "fin-0.05-PGSG":
        "c935d5c448c56d66aa45a7f92590807f3eb86ae787578e3809d218468270c093",
    "fin-0.25-RC":
        "24ddb642d1cdadf1d3efb428294982549e9c3a4c080a7699ad8e5ebd74c72fcc",
    "fin-0.25-CC":
        "ba0ddcfe9f00782aa70a5d4b35fa54806f51b535b46cd1d62bc06cf46132ad84",
    "fin-0.25-PGSG":
        "24ddb642d1cdadf1d3efb428294982549e9c3a4c080a7699ad8e5ebd74c72fcc",
    "fin-0.5-RC":
        "15e0f223052e146184f654d7cab964460d9d79a2587d9dd3f730a60fe8e51070",
    "fin-0.5-CC":
        "1f7636955401830a9e1c9ead65917bbb71f423da32a186cbc6a44744de7ddd62",
    "fin-0.5-PGSG":
        "15e0f223052e146184f654d7cab964460d9d79a2587d9dd3f730a60fe8e51070",
    "fin-1.0-RC":
        "93dcf5104fe7372e1c82da80824eab53a5d0b2033aff656618996c0f9d8fe347",
    "fin-1.0-CC":
        "93dcf5104fe7372e1c82da80824eab53a5d0b2033aff656618996c0f9d8fe347",
    "fin-1.0-PGSG":
        "93dcf5104fe7372e1c82da80824eab53a5d0b2033aff656618996c0f9d8fe347",
    "fin-NSC":
        "e5a62e8259056b591901f0beb6c02ab5dc3fffca7d5b5477f3b48acce2969542",
}

#: Random draws in tier-1's combined digest, and its value.
RANDOM_CASES = 30
RANDOM_DIGEST = (
    "977a622a867997fffef83c91021497810026dd5993bab1d112ba17773e8ee56f"
)

#: ``{p}`` is a property of the far endpoint ``y``, ``{q}`` one of the
#: near endpoint ``x``.
TEMPLATES = (
    "RETURN count(y) AS n",
    "RETURN count(y.{p}) AS n",
    "RETURN collect(y.{p}) AS ps",
    "RETURN y.{p}",
    "RETURN x.{q}, count(y.{p}) AS n",
    "WHERE x.{q} IS NOT NULL RETURN x.{q}, y.{p} ORDER BY x.{q}",
)


def templated_texts(ontology, every: bool = False) -> list[str]:
    """Per relationship and orientation (``x`` the near endpoint, ``y``
    the far one): every template over every far property, or else one
    template, in turn, over the first."""
    hops = []
    for rel in ontology.iter_relationships():
        hops.append((rel.src, f"-[:{rel.label}]->", rel.dst))
        hops.append((rel.dst, f"<-[:{rel.label}]-", rel.src))
    texts = []
    for index, (near, arrow, far) in enumerate(hops):
        qs = list(ontology.concept(near).properties)[:1]
        ps = list(ontology.concept(far).properties)
        templates = TEMPLATES if every else (
            TEMPLATES[index % len(TEMPLATES)],
        )
        for template in templates:
            fills = [
                {"p": p, "q": q}
                for p in (ps if every else ps[:1]) or [None]
                for q in qs or [None]
            ]
            for fill in fills:
                if any(
                    "{%s}" % key in template and value is None
                    for key, value in fill.items()
                ):
                    continue
                texts.append(
                    f"MATCH (x:{near}){arrow}(y:{far}) "
                    + template.format(**fill)
                )
                if "{p}" not in template:
                    break
    return texts


def rewrite_lines(ontology, mapping, texts) -> list[tuple[str, str]]:
    rewriter = QueryRewriter(ontology, mapping)
    lines = []
    for text in texts:
        try:
            out = repr(rewriter.rewrite(parsed(text)))
        except Exception as exc:  # the error is part of the output
            out = f"{type(exc).__name__}: {exc}"
        lines.append((text, out))
    return lines


@functools.lru_cache(maxsize=None)
def parsed(text: str):
    """Each text parsed once: the thirteen mappings of a dataset share
    their texts, and parsing costs more than rewriting."""
    return parse_query(text)


def paper_mappings(dataset) -> dict:
    """``case -> mapping`` for one dataset, each selection realized
    once (PGSG's pick is one of RC and CC)."""
    workload = dataset.query_workload()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    name = dataset.name.lower()
    mappings = {}
    for fraction in FRACTIONS:
        winner = select_pgsg(model, model.budget_for_fraction(fraction))
        for algorithm, result in winner.extras["candidates"].items():
            mappings[f"{name}-{fraction}-{algorithm}"] = result.mapping
        mappings[f"{name}-{fraction}-PGSG"] = winner.mapping
    nsc = optimize_nsc(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    mappings[f"{name}-NSC"] = nsc.mapping
    return mappings


def paper_lines(dataset, every: bool = False) -> dict:
    """``case -> rewrite_lines``; PGSG's case shares its pick's lines."""
    texts = list(dataset.queries.values()) + templated_texts(
        dataset.ontology, every
    )
    by_mapping: dict[int, list] = {}
    digests = {}
    for case, mapping in paper_mappings(dataset).items():
        if id(mapping) not in by_mapping:
            by_mapping[id(mapping)] = rewrite_lines(
                dataset.ontology, mapping, texts
            )
        digests[case] = by_mapping[id(mapping)]
    return digests


def random_lines(seeds, every: bool = False):
    for seed in seeds:
        rng = random.Random(seed)
        ontology = random_ontology(
            seed, rng.randint(3, 8), rng.randint(2, 12)
        )
        selection = (
            Selection.all() if seed % 5 == 0
            else random_selection(ontology, rng)
        )
        mapping = SchemaMapping(ontology, transform(ontology, selection))
        texts = templated_texts(ontology, every)
        yield seed, rewrite_lines(ontology, mapping, texts)


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_paper_rewrites_are_pinned():
    digests = {}
    for dataset in (build_med(), build_fin()):
        for case, lines in paper_lines(dataset).items():
            digests[case] = sha(lines)
    assert digests == PINNED


def test_random_rewrites_are_pinned():
    digest = hashlib.sha256()
    for seed, lines in random_lines(range(RANDOM_CASES)):
        digest.update(repr((seed, lines)).encode())
    assert digest.hexdigest() == RANDOM_DIGEST


def sweep() -> tuple[int, int, str]:
    """Every far property, 600 random draws: the case count, how many
    outputs differ from the parsed text, and one digest over all."""
    digest = hashlib.sha256()
    cases = rewritten = 0

    def add(key, lines):
        nonlocal cases, rewritten
        for text, out in lines:
            cases += 1
            rewritten += out != repr(parse_query(text))
        digest.update(repr((key, lines)).encode())

    for dataset in (build_med(), build_fin()):
        for case, lines in paper_lines(dataset, True).items():
            add(case, lines)
    for seed, lines in random_lines(range(600), True):
        add(seed, lines)
    return cases, rewritten, digest.hexdigest()


if __name__ == "__main__":
    print("cases %d rewritten %d digest %s" % sweep())
