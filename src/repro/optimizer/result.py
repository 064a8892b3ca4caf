"""Shared result type for the schema-optimization algorithms."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.optimizer.costmodel import CostBenefitModel, RuleItem
from repro.rules.base import SchemaState, Selection
from repro.rules.engine import transform
from repro.schema.generate import generate_schema
from repro.schema.mapping import SchemaMapping
from repro.schema.model import PropertyGraphSchema


@dataclass
class OptimizationResult:
    """Everything an optimizer run produced: the items it *selected*,
    priced by ``model``, and - from the first read of ``schema`` /
    ``mapping`` / ``state`` on - the rule engine's fixpoint over them."""

    algorithm: str
    model: CostBenefitModel = field(repr=False, compare=False)
    selected_items: list[RuleItem]
    space_limit: int | None
    #: Derived from the items unless given (NSC enables every rule).
    selection: Selection | None = None
    elapsed_seconds: float = 0.0
    extras: dict = field(default_factory=dict)
    total_benefit: float = field(init=False)
    total_cost: int = field(init=False)
    benefit_ratio: float = field(init=False)
    schema: PropertyGraphSchema = field(init=False, repr=False, compare=False)
    mapping: SchemaMapping = field(init=False, repr=False, compare=False)
    state: SchemaState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        model, items = self.model, self.selected_items
        if self.selection is None:
            self.selection = model.selection_from_items(items)
        self.total_benefit = model.benefit_of(items)
        self.total_cost = model.cost_of(items)
        self.benefit_ratio = model.benefit_ratio(items)

    def __getattr__(self, name: str):
        # Only reached while the three realized fields are unset.
        if name not in ("schema", "mapping", "state"):
            raise AttributeError(name)
        model = self.model
        state = transform(model.ontology, self.selection, model.thresholds)
        self.schema, self.mapping = generate_schema(
            state, name=self.algorithm.lower()
        )
        self.state = state
        return getattr(self, name)

    def realize(self, started: float) -> "OptimizationResult":
        """Realize now and stamp the time since ``started``: Table 2
        times selection and rule engine together."""
        self.state
        self.elapsed_seconds = time.perf_counter() - started
        return self

    def summary(self) -> str:
        budget = (
            "unbounded" if self.space_limit is None
            else f"{self.space_limit:,} B"
        )
        return (
            f"{self.algorithm}: BR={self.benefit_ratio:.3f}, "
            f"benefit={self.total_benefit:.1f}, "
            f"cost={self.total_cost:,} B, budget={budget}, "
            f"{len(self.selected_items)} rule applications, "
            f"{self.elapsed_seconds * 1000:.1f} ms"
        )
