"""OntologyPR: the modified PageRank of Algorithm 6.

Differences from vanilla PageRank, per Section 4.2.1:

* **Unions** - every edge incident to a union concept is rewired to each
  of its member concepts, then the union concept is removed, so its rank
  mass flows to/from the members.
* **Inheritance** - ``isA`` relationships are removed before the power
  iteration; afterwards each concept's score is raised to the highest
  score among its inheritance ancestors (a child inherits its parent's
  centrality).
* **Out-degree** - a reverse edge is added for every remaining
  relationship, making the graph effectively undirected (in- and
  out-degree count equally toward key-concept-ness).

Union concepts do not exist in the modified graph; they are assigned the
maximum score among their members afterwards, so the concept-centric
algorithm can still rank their relationships.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import OntologyError
from repro.ontology.model import Ontology, RelationshipType


@dataclass
class PageRankResult:
    """Scores per concept plus power-iteration telemetry."""

    scores: dict[str, float]
    iterations: int

    def __getitem__(self, concept: str) -> float:
        return self.scores[concept]


def pagerank_kernel(
    n: int,
    flat_src: list[int],
    flat_dst: list[int],
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 500,
) -> tuple[list[float], int]:
    """Power-iteration PageRank over flat CSR-style edge arrays.

    ``flat_src`` / ``flat_dst`` are parallel node-index lists (one
    entry per directed edge).  Ranks live in dense lists indexed by
    node, so each power iteration is one zip-driven pass over the edge
    arrays plus a few list comprehensions - no dict hashing anywhere
    on the hot path.  Dangling nodes distribute their mass uniformly,
    the classic fix.  Returns (scores by node index, iterations).
    """
    if n == 0:
        return [], 0
    out_degree = [0] * n
    for src in flat_src:
        out_degree[src] += 1
    dangling = [i for i in range(n) if out_degree[i] == 0]
    inv_degree = [1.0 / d if d else 0.0 for d in out_degree]
    rank = [1.0 / n] * n
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        dangling_mass = sum(rank[i] for i in dangling)
        shares = [r * inv for r, inv in zip(rank, inv_degree)]
        incoming = [0.0] * n
        for src, dst in zip(flat_src, flat_dst):
            incoming[dst] += shares[src]
        base = (1.0 - damping) / n + damping * dangling_mass / n
        new_rank = [base + damping * mass for mass in incoming]
        delta = sum(
            abs(new - old) for new, old in zip(new_rank, rank)
        )
        rank = new_rank
        if delta < tol:
            break
    return rank, iterations


def pagerank(
    adjacency: dict[str, list[str]],
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 500,
) -> tuple[dict[str, float], int]:
    """Power-iteration PageRank over an adjacency mapping.

    Thin wrapper over :func:`pagerank_kernel`: nodes are indexed once
    (sorted order), the adjacency lists are flattened into parallel
    source/target index arrays, and the kernel iterates those flat
    arrays.  Returns (scores, iterations).
    """
    nodes = sorted(adjacency)
    n = len(nodes)
    if n == 0:
        return {}, 0
    index = {node: i for i, node in enumerate(nodes)}
    flat_src: list[int] = []
    flat_dst: list[int] = []
    for node in nodes:
        i = index[node]
        for neighbor in adjacency[node]:
            flat_src.append(i)
            flat_dst.append(index[neighbor])
    rank, iterations = pagerank_kernel(
        n, flat_src, flat_dst, damping, tol, max_iterations
    )
    return dict(zip(nodes, rank)), iterations


def ontology_pagerank(
    ontology: Ontology,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 500,
) -> PageRankResult:
    """Algorithm 6: centrality scores for every concept of an ontology."""
    union_concepts = ontology.union_concepts()
    members: dict[str, list[str]] = {
        u: ontology.members_of(u) for u in union_concepts
    }

    # Build the modified edge list: drop inheritance, rewire unions,
    # then add a reverse edge per remaining relationship.
    edges: list[tuple[str, str]] = []
    for rel in ontology.iter_relationships():
        if rel.rel_type is RelationshipType.INHERITANCE:
            continue
        if rel.rel_type is RelationshipType.UNION:
            continue  # the unionOf edge itself carries no mass
        edges.append((rel.src, rel.dst))

    def expand(concept: str) -> list[str]:
        """Replace a union concept by its members (transitively)."""
        if concept not in union_concepts:
            return [concept]
        expanded: list[str] = []
        for member in members[concept]:
            expanded.extend(expand(member))
        return expanded

    adjacency: dict[str, list[str]] = {
        c: []
        for c in ontology.concepts
        if c not in union_concepts
    }
    for src, dst in edges:
        for s in expand(src):
            for d in expand(dst):
                if s == d:
                    continue
                adjacency[s].append(d)
                adjacency[d].append(s)  # reverse edge (out-degree rule)

    scores, iterations = pagerank(adjacency, damping, tol, max_iterations)

    # Re-attach inheritance: a child inherits the best ancestor score.
    # Validation keeps the isA relation acyclic, so each concept's best
    # is found once and reused by all of its descendants.
    inherited: dict[str, float] = {}
    walking: set[str] = set()

    def ancestor_max(concept: str) -> float:
        if concept not in inherited:
            if concept in walking:
                raise OntologyError(
                    f"inheritance cycle through concept {concept!r}"
                )
            walking.add(concept)
            inherited[concept] = max([scores.get(concept, 0.0)] + [
                ancestor_max(parent)
                for parent in ontology.parents_of(concept)
                if parent not in union_concepts
            ])
        return inherited[concept]

    final = dict(scores)
    for concept in ontology.concepts:
        if concept not in union_concepts:
            final[concept] = ancestor_max(concept)

    # Union concepts take the best member score (they were dissolved).
    for union_concept in union_concepts:
        member_scores = [
            final.get(m, 0.0) for m in expand(union_concept)
        ]
        final[union_concept] = max(member_scores) if member_scores else 0.0

    return PageRankResult(final, iterations)
