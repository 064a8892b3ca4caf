"""Schema mapping: the trace from ontology to optimized schema.

The :class:`SchemaMapping` records everything downstream consumers need:

* the **data loader** materializes an OPT property graph from logical
  instances by merging along collapsed relationships and attaching
  replicated list properties;
* the **query rewriter** turns a query written against the direct schema
  into the equivalent query over the optimized schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.exceptions import SchemaError
from repro.ontology.model import Ontology, RelationshipType
from repro.rules.base import Provenance, SchemaState


class CollapseKind(Enum):
    """Why a relationship's edge disappeared from the schema."""

    UNION = "union"             # member merged with its union twin
    INHERIT_UP = "inherit_up"   # child instances merged into parent twins
    INHERIT_DOWN = "inherit_down"  # parent twins merged into child instances
    MERGE_1_1 = "merge_1_1"     # 1:1 partners merged into one vertex


@dataclass(frozen=True)
class Replication:
    """One replicated list property on the optimized schema."""

    rel_id: str
    owner_node: str          # vertex-schema label holding the list
    source_concept: str      # concept the values come from
    source_property: str     # the original property name
    list_name: str           # the list property's name on the owner
    direction: str = "fwd"   # which endpoint of rel_id owns the list


class SchemaMapping:
    """Query API over the final :class:`SchemaState`."""

    def __init__(self, ontology: Ontology, state: SchemaState):
        self.ontology = ontology
        self._state = state
        self.collapsed: dict[str, CollapseKind] = {}
        self.node_labels: dict[str, frozenset[str]] = {}
        self.replications: list[Replication] = []
        self._by_rel: dict[str, list[Replication]] = {}
        self._component: dict[str, str] = {}
        self._build_collapsed()
        self._build_labels()
        self._build_replications()
        self._build_components()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_collapsed(self) -> None:
        merge = self._state.thresholds.merge
        for rel_id in self._state.consumed:
            rel = self.ontology.relationship(rel_id)
            if rel.rel_type is RelationshipType.UNION:
                kind = CollapseKind.UNION
            elif rel.rel_type is RelationshipType.ONE_TO_ONE:
                kind = CollapseKind.MERGE_1_1
            elif rel.rel_type is RelationshipType.INHERITANCE:
                kind = (
                    CollapseKind.INHERIT_UP
                    if merge(self._state.jaccard[rel_id]) == "up"
                    else CollapseKind.INHERIT_DOWN
                )
            else:  # pragma: no cover - only structural/1:1 rels consume
                raise SchemaError(
                    f"unexpected consumed relationship {rel_id}"
                )
            self.collapsed[rel_id] = kind

    def _build_labels(self) -> None:
        labels: dict[str, set[str]] = {
            key: {key} for key in self._state.nodes
        }
        for concept in self.ontology.concepts:
            for key in self._state.resolve(concept):
                labels[key].add(concept)
        self.node_labels = {
            key: frozenset(values) for key, values in labels.items()
        }

    def _build_replications(self) -> None:
        for key, node in self._state.nodes.items():
            for prop in node.properties.values():
                if prop.provenance is not Provenance.REPLICATED:
                    continue
                repl = Replication(
                    rel_id=prop.via_rel,
                    owner_node=key,
                    source_concept=prop.origin_concept,
                    source_property=prop.origin_name,
                    list_name=prop.name,
                    direction=prop.via_direction,
                )
                self.replications.append(repl)
                self._by_rel.setdefault(repl.rel_id, []).append(repl)

    def _build_components(self) -> None:
        """Union-find over concepts along collapsed relationships.

        Instances merge into one vertex exactly along collapsed links,
        so two concepts can share vertices only inside one component.
        The rewriter uses this to detect ambiguous list properties.
        """
        parent = {c: c for c in self.ontology.concepts}

        def find(c: str) -> str:
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for rel_id in self.collapsed:
            rel = self.ontology.relationship(rel_id)
            ra, rb = find(rel.src), find(rel.dst)
            if ra != rb:
                parent[rb] = ra
        self._component = {c: find(c) for c in self.ontology.concepts}

    # ------------------------------------------------------------------
    # Queries used by the loader and the rewriter
    # ------------------------------------------------------------------
    def component_of(self, concept: str) -> str:
        """Representative of the concept's vertex-sharing component."""
        try:
            return self._component[concept]
        except KeyError:
            raise SchemaError(f"unknown concept {concept!r}") from None

    def same_component(self, concept_a: str, concept_b: str) -> bool:
        return self.component_of(concept_a) == self.component_of(concept_b)

    def node_concepts(self, node_key: str) -> frozenset[str]:
        """Ontology concepts whose instances a node's vertices may hold."""
        return frozenset(
            label for label in self.labels_of_node(node_key)
            if label in self.ontology.concepts
        )

    def resolve_concept(self, concept: str) -> tuple[str, ...]:
        """Vertex-schema labels whose vertices represent ``concept``."""
        return self._state.resolve(concept)

    def labels_of_node(self, node_key: str) -> frozenset[str]:
        try:
            return self.node_labels[node_key]
        except KeyError:
            raise SchemaError(f"unknown schema node {node_key!r}") from None

    def is_collapsed(self, rel_id: str) -> bool:
        return rel_id in self.collapsed

    def collapse_kind(self, rel_id: str) -> CollapseKind | None:
        return self.collapsed.get(rel_id)

    def replications_for_rel(self, rel_id: str) -> list[Replication]:
        """The replications via ``rel_id``, in ``replications`` order."""
        return list(self._by_rel.get(rel_id, ()))

    def summary(self) -> str:
        by_kind: dict[CollapseKind, int] = {}
        for kind in self.collapsed.values():
            by_kind[kind] = by_kind.get(kind, 0) + 1
        parts = ", ".join(
            f"{n} {k.value}" for k, n in sorted(
                by_kind.items(), key=lambda item: item[0].value
            )
        )
        return (
            f"mapping: {len(self.collapsed)} collapsed rels ({parts or '-'})"
            f", {len(self.replications)} replicated properties"
        )
