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
from itertools import chain

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
        self.add_instances(concept, [uid], [props])

    def add_instances(
        self,
        concept: str,
        uids: list[str],
        props: list[dict[str, object]],
    ) -> None:
        """Add ``uids`` (with their ``props``, pairwise) to ``concept``.

        A duplicate uid - known already or repeated in ``uids`` -
        raises before anything is added.  The ``uids`` list becomes
        ``concept``'s instance list when it has none yet: the caller
        hands it over.
        """
        if not uids:
            return
        concept_of = self.concept_of
        batch = dict.fromkeys(uids, concept)
        if len(batch) < len(uids) or not concept_of.keys().isdisjoint(batch):
            seen = set()
            for uid in uids:
                if uid in concept_of or uid in seen:
                    raise DataGenerationError(
                        f"duplicate instance uid {uid!r}"
                    )
                seen.add(uid)
        existing = self.instances.get(concept)
        if existing is None:
            self.instances[concept] = uids
        else:
            existing.extend(uids)
        self.properties.update(zip(uids, props, strict=True))
        concept_of.update(batch)

    def add_link(self, rel_id: str, src_uid: str, dst_uid: str) -> None:
        self.add_links(rel_id, [(src_uid, dst_uid)])

    def add_links(self, rel_id: str, pairs: list[tuple[str, str]]) -> None:
        """Append ``pairs`` to ``rel_id``'s links.

        An endpoint that is no known instance raises, naming the first
        one, before anything is added.  The ``pairs`` list becomes
        ``rel_id``'s link list when it has none yet: the caller hands it
        over.  An empty batch adds no key (the key order of ``links``
        is the order edge labels are interned in).
        """
        if not pairs:
            return
        concept_of = self.concept_of
        if not all(map(concept_of.__contains__, chain.from_iterable(pairs))):
            missing = next(
                uid for uid in chain.from_iterable(pairs)
                if uid not in concept_of
            )
            raise DataGenerationError(f"unknown instance {missing!r}")
        existing = self.links.get(rel_id)
        if existing is None:
            self.links[rel_id] = pairs
        else:
            existing.extend(pairs)

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
