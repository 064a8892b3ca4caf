"""Logical instance data: the schema-independent ground truth.

A :class:`LogicalDataset` holds the *logical* instances of every concept,
their property values, and the instance-level links of every
relationship.  Both the direct (DIR) and the optimized (OPT) property
graphs are materialized from the same logical dataset, which is what
makes DIR-vs-OPT query results comparable.

Instances of *derived* concepts (inheritance parents and unions) are
"twins": each child/member instance has a corresponding parent/union
instance carrying the parent's/union's properties, linked by an
instance-level ``isA``/``unionOf`` edge - exactly the structure shown in
the paper's Figure 1(b), where ``di1`` (a DrugInteraction) sits between
``drug1`` and the ``dfi1``/``dli1`` vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import DataGenerationError
from repro.ontology.model import Ontology


@dataclass
class LogicalDataset:
    """Instances, property values, and instance-level links."""

    ontology: Ontology
    #: concept name -> ordered list of instance uids
    instances: dict[str, list[str]] = field(default_factory=dict)
    #: instance uid -> property values
    properties: dict[str, dict[str, object]] = field(default_factory=dict)
    #: relationship id -> list of (src uid, dst uid) pairs
    links: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    #: instance uid -> concept name (reverse index)
    concept_of: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_instance(
        self, concept: str, uid: str, props: dict[str, object]
    ) -> None:
        if uid in self.concept_of:
            raise DataGenerationError(f"duplicate instance uid {uid!r}")
        self.instances.setdefault(concept, []).append(uid)
        self.properties[uid] = props
        self.concept_of[uid] = concept

    def add_link(self, rel_id: str, src_uid: str, dst_uid: str) -> None:
        for uid in (src_uid, dst_uid):
            if uid not in self.concept_of:
                raise DataGenerationError(f"unknown instance {uid!r}")
        self.links.setdefault(rel_id, []).append((src_uid, dst_uid))

    def remove_link(self, rel_id: str, src_uid: str, dst_uid: str) -> None:
        """Remove one ``src -> dst`` link of ``rel_id`` (the first, if
        the pair is linked more than once)."""
        try:
            self.links_of(rel_id).remove((src_uid, dst_uid))
        except ValueError:
            raise DataGenerationError(
                f"no link {src_uid} -> {dst_uid} in {rel_id}"
            ) from None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def instances_of(self, concept: str) -> list[str]:
        return self.instances.get(concept, [])

    def links_of(self, rel_id: str) -> list[tuple[str, str]]:
        return self.links.get(rel_id, [])

    @property
    def num_instances(self) -> int:
        return len(self.concept_of)

    @property
    def num_links(self) -> int:
        return sum(len(pairs) for pairs in self.links.values())

    def summary(self) -> str:
        return (
            f"LogicalDataset[{self.ontology.name}]: "
            f"{self.num_instances:,} instances, {self.num_links:,} links"
        )

    def validate(self) -> None:
        """Check referential integrity and endpoint concepts of links."""
        for rel_id, pairs in self.links.items():
            rel = self.ontology.relationship(rel_id)
            for src_uid, dst_uid in pairs:
                src_concept = self.concept_of.get(src_uid)
                dst_concept = self.concept_of.get(dst_uid)
                if src_concept != rel.src or dst_concept != rel.dst:
                    raise DataGenerationError(
                        f"link {rel_id} connects {src_concept!r} -> "
                        f"{dst_concept!r}, expected {rel.src!r} -> "
                        f"{rel.dst!r}"
                    )
