"""Cost-benefit model for rule applications (Equations 3-5).

Each potentially space-consuming rule application becomes a priced *item*:

* one item per **union** relationship (Equation 3);
* one item per **inheritance** relationship whose Jaccard similarity
  falls outside the (theta2, theta1) band (Equation 4);
* one item per **(1:M relationship, destination property)** pair
  (Equation 5) - the paper prices each propagated property separately
  ("choosing the appropriate set of data properties from each 1:M
  relationship to propagate is critical");
* two directed halves per **M:N** relationship, each priced like a 1:M
  (Section 4.2.2: "each M:N relationship is equivalent to two 1:M
  relationships").

**1:1** relationships cost nothing (they *reduce* space - Figure 6), so
they are not items; every optimizer applies them unconditionally.

Costs are expressed in bytes.  Equation 3 counts copied *edges*; we charge
``EDGE_SIZE_BYTES`` per copied edge so that all three equations share one
unit (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import OptimizationError
from repro.ontology.model import (
    Ontology,
    Relationship,
    RelationshipType,
    jaccard_similarity,
)
from repro.ontology.stats import DataStatistics, EDGE_SIZE_BYTES
from repro.ontology.workload import WorkloadSummary
from repro.rules.base import Selection, Thresholds


@dataclass(frozen=True)
class RuleItem:
    """One priced rule application."""

    rel_id: str
    rel_type: RelationshipType
    direction: str = "fwd"      # "rev" only for the second M:N half
    prop: str | None = None    # set for 1:M / M:N items
    benefit: float = 0.0
    cost: int = 0

    @property
    def key(self) -> tuple[str, str, str | None]:
        return (self.rel_id, self.direction, self.prop)


class CostBenefitModel:
    """Prices every rule application of an ontology (Section 4.2.2)."""

    def __init__(
        self,
        ontology: Ontology,
        stats: DataStatistics,
        workload: WorkloadSummary | None = None,
        thresholds: Thresholds | None = None,
    ):
        self.ontology = ontology
        self.stats = stats
        self.workload = workload or WorkloadSummary.uniform(ontology)
        self.thresholds = thresholds or Thresholds()
        self.jaccard: dict[str, float] = {
            rel.rel_id: jaccard_similarity(
                ontology.concept(rel.src).property_names(),
                ontology.concept(rel.dst).property_names(),
            )
            for rel in ontology.relationships_of_type(
                RelationshipType.INHERITANCE
            )
        }
        self._items: list[RuleItem] = self._build_items()

    # ------------------------------------------------------------------
    # Item construction
    # ------------------------------------------------------------------
    def _build_items(self) -> list[RuleItem]:
        items: list[RuleItem] = []
        for rel in self.ontology.iter_relationships():
            if rel.rel_type is RelationshipType.UNION:
                items.append(self._union_item(rel))
            elif rel.rel_type is RelationshipType.INHERITANCE:
                item = self._inheritance_item(rel)
                if item is not None:
                    items.append(item)
            elif rel.rel_type is RelationshipType.ONE_TO_MANY:
                items.extend(self._list_items(rel, "fwd"))
            elif rel.rel_type is RelationshipType.MANY_TO_MANY:
                items.extend(self._list_items(rel, "fwd"))
                items.extend(self._list_items(rel, "rev"))
        return items

    def _union_item(self, rel: Relationship) -> RuleItem:
        """Equation 3: benefit AF(r); cost = edges copied to the member."""
        union_concept = rel.src
        copied_edges = sum(
            self.stats.rel_card(r.rel_id)
            for r in self.ontology.edges_of(union_concept)
            if r.rel_type is not RelationshipType.UNION
        )
        return RuleItem(
            rel_id=rel.rel_id,
            rel_type=rel.rel_type,
            benefit=self.workload.af_relationship(rel),
            cost=copied_edges * EDGE_SIZE_BYTES,
        )

    def _inheritance_item(self, rel: Relationship) -> RuleItem | None:
        """Equation 4; returns None for the inert middle Jaccard band.

        Benefit interpretation: Equation 4 multiplies the access
        frequency by the Jaccard similarity, but applied literally that
        zeroes the benefit of every merge-down application (js < theta2
        implies js ~ 0), contradicting the paper's own microbenchmark
        where such rules are applied under a 50% budget (Q2/Q5).  We
        read the similarity factor as tracking the *direction* of the
        merge: ``js`` for merge-up (the more the child shares, the more
        queries are satisfied at the parent) and ``1 - js`` for
        merge-down (the less the child shares, the more distinct parent
        content becomes locally available).  See DESIGN.md.
        """
        js = self.jaccard[rel.rel_id]
        merge = self.thresholds.merge(js)
        if merge is None:
            return None
        # Up: the child's content moves to the parent; down: the
        # parent's content moves to the child.
        merge_up = merge == "up"
        mover = rel.dst if merge_up else rel.src
        mover_concept = self.ontology.concept(mover)
        prop_bytes = sum(
            self.stats.card(mover) * p.size_bytes
            for p in mover_concept.properties.values()
        )
        edge_bytes = EDGE_SIZE_BYTES * sum(
            self.stats.rel_card(r.rel_id)
            for r in self.ontology.edges_of(mover)
            if r.rel_type is not RelationshipType.INHERITANCE
        )
        similarity_factor = js if merge_up else (1.0 - js)
        benefit = self.workload.af_relationship(rel) * similarity_factor
        return RuleItem(
            rel_id=rel.rel_id,
            rel_type=rel.rel_type,
            benefit=benefit,
            cost=prop_bytes + edge_bytes,
        )

    def _list_items(self, rel: Relationship, direction: str) -> list[RuleItem]:
        """Equation 5: one item per propagated destination property."""
        source = rel.dst if direction == "fwd" else rel.src
        source_concept = self.ontology.concept(source)
        n_props = len(source_concept.properties)
        edge_count = self.stats.rel_card(rel.rel_id)
        return [
            RuleItem(
                rel_id=rel.rel_id,
                rel_type=rel.rel_type,
                direction=direction,
                prop=prop.name,
                benefit=self.workload.af_property(rel, prop.name, n_props),
                cost=edge_count * prop.size_bytes,
            )
            for prop in source_concept.properties.values()
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def items(self) -> list[RuleItem]:
        return list(self._items)

    def items_touching(self, concept: str) -> list[RuleItem]:
        """Items whose relationship has ``concept`` as an endpoint, in
        item order."""
        return list(self._items_by_concept.get(concept, ()))

    @cached_property
    def _items_by_concept(self) -> dict[str, list[RuleItem]]:
        """The items grouped by endpoint concept, once: concept-centric
        selection asks for every concept.  A self-loop's items are
        listed once under its one concept."""
        grouped: dict[str, list[RuleItem]] = {}
        relationship = self.ontology.relationship
        for item in self._items:
            rel = relationship(item.rel_id)
            for concept in dict.fromkeys((rel.src, rel.dst)):
                grouped.setdefault(concept, []).append(item)
        return grouped

    @property
    def total_benefit(self) -> float:
        """B_NSC: the benefit of applying every rule (Algorithm 5)."""
        return sum(item.benefit for item in self._items)

    @property
    def total_cost(self) -> int:
        """S_NSC - S_DIR: the extra space the full optimization needs."""
        return sum(item.cost for item in self._items)

    def budget_for_fraction(self, fraction: float) -> int:
        """Space budget for a fraction of the NSC space overhead.

        The evaluation "var[ies] the space constraint from S_DIR to
        S_NSC"; a fraction of 1.0 therefore admits every rule.
        """
        if fraction < 0:
            raise OptimizationError("space fraction must be >= 0")
        return int(round(fraction * self.total_cost))

    def one_to_one_rel_ids(self) -> frozenset[str]:
        return frozenset(
            rel.rel_id
            for rel in self.ontology.relationships_of_type(
                RelationshipType.ONE_TO_ONE
            )
        )

    def selection_from_items(
        self, items: list[RuleItem], include_one_to_one: bool = True
    ) -> Selection:
        """Turn selected items into a rule-engine :class:`Selection`."""
        rel_ids: set[str] = set()
        list_props: set[tuple[str, str, str]] = set()
        for item in items:
            if item.prop is None:
                rel_ids.add(item.rel_id)
            else:
                list_props.add((item.rel_id, item.direction, item.prop))
        if include_one_to_one:
            rel_ids |= self.one_to_one_rel_ids()
        return Selection(
            rel_ids=frozenset(rel_ids), list_props=frozenset(list_props)
        )

    def benefit_of(self, items: list[RuleItem]) -> float:
        return sum(item.benefit for item in items)

    def cost_of(self, items: list[RuleItem]) -> int:
        return sum(item.cost for item in items)

    def benefit_ratio(self, items: list[RuleItem]) -> float:
        """BR = B_SC / B_NSC (Section 5.1's quality metric)."""
        total = self.total_benefit
        if total <= 0:
            return 1.0
        return self.benefit_of(items) / total
