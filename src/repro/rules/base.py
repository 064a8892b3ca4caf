"""Working state shared by the relationship rules.

The rule engine (Algorithm 5 and its space-constrained variants) operates
on a :class:`SchemaState`: a mutable graph of :class:`SchemaNode` and
:class:`SchemaEdge` that starts as the direct mapping of the ontology and
is transformed by rule applications until a fixpoint.

All rule operations are *monotone*: property sets and edge sets only grow,
and nodes are only ever dropped (with a recorded set of successor nodes).
Monotonicity gives both termination of the fixpoint loop and the
order-independence of Theorem 3.  The Jaccard similarity of every
inheritance relationship is frozen on the input ontology before any rule
fires (Section 3 of the paper).

The state also holds the two steps the rules share.
:meth:`SchemaState.consume` marks a relationship consumed and removes
its edges (every structural rule and the 1:1 rule).
:meth:`SchemaState.absorb` is the union and inheritance rules' one
operation with the roles as arguments: an absorber node takes the
absorbed node's properties and its edges other than the rule's own
type, and the absorbed node drops once every structural relationship
rooted at it is consumed.  Every mutation reports whether it changed
the state, which is what ends the fixpoint loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import count
from typing import NamedTuple

from repro.exceptions import SchemaError
from repro.ontology.model import (
    DataType,
    Ontology,
    Relationship,
    RelationshipType,
    jaccard_similarity,
)


class Provenance(Enum):
    """How a property arrived on a schema node."""

    NATIVE = "native"
    FROM_UNION = "from_union"          # copied union -> member
    FROM_PARENT = "from_parent"        # inheritance, js < theta2
    FROM_CHILD = "from_child"          # inheritance, js > theta1
    MERGED = "merged"                  # 1:1 merge
    REPLICATED = "replicated"          # 1:M / M:N list propagation


@dataclass(frozen=True)
class SchemaProperty:
    """A property on a schema node, with provenance for the mapping."""

    name: str
    data_type: DataType
    is_list: bool
    origin_concept: str
    origin_name: str
    provenance: Provenance
    via_rel: str | None = None
    #: "fwd"/"rev" for replicated list properties (which endpoint of
    #: via_rel received the values); None otherwise.
    via_direction: str | None = None

    def renamed(self, name: str) -> "SchemaProperty":
        return replace(self, name=name)


#: One counter for every node's :attr:`SchemaNode.version`, so that a
#: version names one node in one state of its properties.
_VERSIONS = count()


@dataclass
class SchemaNode:
    """A vertex type in the evolving schema."""

    key: str
    concepts: frozenset[str]
    properties: dict[str, SchemaProperty] = field(default_factory=dict)
    #: Drawn anew on creation and on every property added: a pass
    #: that read this node at this version would read the same again.
    version: int = field(
        default_factory=_VERSIONS.__next__, repr=False, compare=False
    )

    def add_property(self, prop: SchemaProperty) -> bool:
        """Add ``prop`` unless a property with the same name exists.

        Returns True when the node changed.  Name-collision keeps the
        existing property: for inheritance merges the shared names are
        exactly the Jaccard intersection and represent the same logical
        property.
        """
        if prop.name in self.properties:
            return False
        self.properties[prop.name] = prop
        self.version = next(_VERSIONS)
        return True


class SchemaEdge(NamedTuple):
    """An edge type in the evolving schema.

    A tuple, so that it hashes in C: the rule engine probes edge sets
    tens of thousands of times a transform."""

    src: str
    dst: str
    label: str
    rel_type: RelationshipType
    origin_rel: str


@dataclass(frozen=True)
class Thresholds:
    """Jaccard thresholds (theta1, theta2) for the inheritance rule."""

    theta1: float = 0.66
    theta2: float = 0.33

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta2 <= self.theta1 <= 1.0:
            raise SchemaError(
                f"invalid thresholds: need 0 <= theta2 <= theta1 <= 1, "
                f"got ({self.theta1}, {self.theta2})"
            )

    def merge(self, js: float) -> str | None:
        """The inheritance rule's band for Jaccard similarity ``js``:
        ``"up"`` above theta1 (the parent absorbs the child), ``"down"``
        below theta2 (the child absorbs the parent), None in between
        (the ``isA`` edge stays)."""
        if js > self.theta1:
            return "up"
        if js < self.theta2:
            return "down"
        return None


@dataclass(frozen=True)
class Selection:
    """Which rule applications are enabled.

    * ``select_all`` - NSC mode: every rule fires (Algorithm 5).
    * ``rel_ids`` - enabled union / inheritance / 1:1 relationships.
    * ``list_props`` - enabled ``(rel_id, direction, property)`` items for
      1:M and M:N relationships; direction is ``"fwd"`` (dst properties
      propagate to src, the 1:M direction of the paper) or ``"rev"`` (the
      second half of an M:N).
    """

    select_all: bool = False
    rel_ids: frozenset[str] = frozenset()
    list_props: frozenset[tuple[str, str, str]] = frozenset()

    @classmethod
    def all(cls) -> "Selection":
        return cls(select_all=True)

    @classmethod
    def none(cls) -> "Selection":
        return cls()

    def has_rel(self, rel_id: str) -> bool:
        return self.select_all or rel_id in self.rel_ids

    @cached_property
    def _props_by_rel(self) -> dict[tuple[str, str], frozenset[str]]:
        """``list_props`` grouped by (rel, direction), once: the engine
        asks per 1:M / M:N dispatch per fixpoint round.  Writes the
        instance ``__dict__`` directly, so the dataclass stays frozen,
        hashable and compared on its three fields."""
        grouped: dict[tuple[str, str], set[str]] = {}
        for rel_id, direction, prop in self.list_props:
            grouped.setdefault((rel_id, direction), set()).add(prop)
        return {key: frozenset(props) for key, props in grouped.items()}

    def props_for(self, rel_id: str, direction: str) -> frozenset[str] | None:
        """Enabled property names for a (rel, direction), or None for all."""
        if self.select_all:
            return None
        return self._props_by_rel.get((rel_id, direction), frozenset())


class SchemaState:
    """The evolving schema graph plus drop/resolution bookkeeping."""

    def __init__(
        self,
        ontology: Ontology,
        thresholds: Thresholds | None = None,
    ):
        self.ontology = ontology
        self.thresholds = thresholds or Thresholds()
        self.nodes: dict[str, SchemaNode] = {}
        self.edges: set[SchemaEdge] = set()
        #: dropped node key -> direct successor keys
        self._successors: dict[str, tuple[str, ...]] = {}
        #: rel ids whose schema edge was consumed by a rule
        self.consumed: set[str] = set()
        #: absorbed node key -> the node keys that absorbed it: union
        #: members, merge-down children and merge-up parents
        self.absorbers: dict[str, set[str]] = {}
        #: concept -> structural rel ids that must be consumed before a
        #: node carrying the concept may drop (static: derived from the
        #: input ontology and the frozen Jaccard bands)
        self._structural_blockers: dict[str, set[str]] = {}
        #: dropped node key -> the concepts it carried when it dropped
        self._dropped_concepts: dict[str, frozenset[str]] = {}
        #: dropped node key -> the successors as originally requested
        #: (pre-resolution; preserves intermediate chain members for
        #: identity-cycle detection)
        self._requested_successors: dict[str, tuple[str, ...]] = {}
        #: frozen Jaccard similarity per inheritance relationship
        self.jaccard: dict[str, float] = {}
        #: (rel id, direction) -> what its list propagation last read:
        #: the enabled properties and the owner and source nodes with
        #: their versions (see ``rules/one_to_many.py``)
        self.list_passes: dict[tuple[str, str], tuple] = {}
        self._init_from_ontology()

    # ------------------------------------------------------------------
    # Initialization: the direct mapping
    # ------------------------------------------------------------------
    def _init_from_ontology(self) -> None:
        for concept in self.ontology.iter_concepts():
            node = SchemaNode(concept.name, frozenset((concept.name,)))
            for prop in concept.properties.values():
                node.add_property(
                    SchemaProperty(
                        name=prop.name,
                        data_type=prop.data_type,
                        is_list=False,
                        origin_concept=concept.name,
                        origin_name=prop.name,
                        provenance=Provenance.NATIVE,
                    )
                )
            self.nodes[node.key] = node
        for rel in self.ontology.iter_relationships():
            self.edges.add(
                SchemaEdge(rel.src, rel.dst, rel.label, rel.rel_type,
                           rel.rel_id)
            )
            if rel.rel_type.is_structural:
                self._structural_blockers.setdefault(rel.src, set()).add(
                    rel.rel_id
                )
            if rel.rel_type is RelationshipType.INHERITANCE:
                js = jaccard_similarity(
                    self.ontology.concept(rel.src).property_names(),
                    self.ontology.concept(rel.dst).property_names(),
                )
                self.jaccard[rel.rel_id] = js
                if self.thresholds.merge(js) == "up":
                    # Merge-up: the child (dst) is absorbed, so this
                    # relationship also gates the child's drop.
                    self._structural_blockers.setdefault(
                        rel.dst, set()
                    ).add(rel.rel_id)

    # ------------------------------------------------------------------
    # Resolution of dropped nodes
    # ------------------------------------------------------------------
    def resolve(self, key: str) -> tuple[str, ...]:
        """Live node keys currently representing ``key`` (transitive)."""
        if key in self.nodes:
            return (key,)
        # Depth-first, successors in order, by an explicit stack: a
        # recursive closure would be a reference cycle per call.
        resolved: list[str] = []
        seen: set[str] = set()
        stack = [key]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            if k in self.nodes:
                if k not in resolved:
                    resolved.append(k)
                continue
            stack.extend(reversed(tuple(self._successors.get(k, ()))))
        return tuple(resolved)

    def is_live(self, key: str) -> bool:
        return key in self.nodes

    def canonical_key(self, concepts: frozenset[str]) -> str:
        """Combined node name, ordered by concept declaration order.

        Figure 6 names the merge of ``Indication`` and ``Condition``
        ``IndicationCondition``; joining in the ontology's concept
        insertion order reproduces that.
        """
        order = {name: i for i, name in enumerate(self.ontology.concepts)}
        base = "".join(
            sorted(concepts, key=lambda c: order.get(c, len(order)))
        )
        candidate = base
        suffix = 2
        while candidate in self.nodes:
            candidate = f"{base}_{suffix}"
            suffix += 1
        return candidate

    def drop_node(self, key: str, successors: tuple[str, ...]) -> bool:
        """Drop ``key``, rewriting its incident edges - and copying its
        properties and concept set - onto ``successors``.  True if the
        state changed.

        Copying the content makes dropping information-preserving: an
        absorber that ran its propagation *before* the dropped node
        acquired further content would otherwise miss it, which breaks
        Theorem 3's order-independence (additions after the drop are
        covered by :meth:`resolve`).

        When the successors resolve back to ``key`` itself (mutual
        absorption, e.g. a union concept whose single member also
        absorbs it through a merge-up inheritance), the two nodes
        denote the same instance set; the node is *renamed* to the
        canonical merged key instead, so every rule order converges to
        the same node.
        """
        if key not in self.nodes:
            raise SchemaError(f"cannot drop unknown node {key!r}")
        live_successors = tuple(
            dict.fromkeys(
                s
                for succ in successors
                for s in self.resolve(succ)
                if s != key
            )
        )
        if not live_successors:
            return self._merge_identity(key, successors)
        dropped = self.nodes[key]
        for successor in live_successors:
            node = self.nodes[successor]
            for prop in dropped.properties.values():
                node.add_property(prop)
        del self.nodes[key]
        self._dropped_concepts[key] = dropped.concepts
        self._requested_successors[key] = tuple(successors)
        self._successors[key] = live_successors
        self._rewrite_edges(key, live_successors)
        return True

    def _merge_identity(
        self, key: str, successors: tuple[str, ...]
    ) -> bool:
        """Rename a mutually-absorbed node to its canonical merged key.

        The cycle members (the dropped nodes whose successor chains
        loop back to ``key``) denote the same instance set as ``key``;
        the canonical name is computed over exactly their concepts, so
        it is independent of when unrelated drops delivered content.
        When ``key`` already is that name, only the concept set can
        change; True if anything did.
        """
        node = self.nodes[key]
        concepts = set(node.concepts)
        stack = list(successors)
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen or current == key:
                continue
            seen.add(current)
            concepts |= self._dropped_concepts.get(current, frozenset())
            stack.extend(self._requested_successors.get(current, ()))
        merged_concepts = frozenset(concepts)
        canonical = self.canonical_key(merged_concepts)
        if canonical == key:
            changed = merged_concepts != node.concepts
            node.concepts = merged_concepts
            return changed
        self.nodes[canonical] = SchemaNode(
            canonical, merged_concepts, dict(node.properties)
        )
        del self.nodes[key]
        self._dropped_concepts[key] = node.concepts
        self._requested_successors[key] = (canonical,)
        self._successors[key] = (canonical,)
        self._rewrite_edges(key, (canonical,))
        return True

    def _rewrite_edges(
        self, key: str, live_successors: tuple[str, ...]
    ) -> None:
        rewritten: set[SchemaEdge] = set()
        for edge in self.edges:
            if edge.src != key and edge.dst != key:
                rewritten.add(edge)
                continue
            src_keys = live_successors if edge.src == key else (edge.src,)
            dst_keys = live_successors if edge.dst == key else (edge.dst,)
            for src in src_keys:
                for dst in dst_keys:
                    if src == dst and edge.rel_type.is_structural:
                        continue  # collapse structural self-loops
                    rewritten.add(
                        SchemaEdge(src, dst, edge.label, edge.rel_type,
                                   edge.origin_rel)
                    )
        self.edges = rewritten

    # ------------------------------------------------------------------
    # Monotone mutation helpers used by the rules
    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: str,
        dst: str,
        label: str,
        rel_type: RelationshipType,
        origin_rel: str,
    ) -> bool:
        """Add an edge, resolving dropped endpoints.  True if changed."""
        changed = False
        for s in self.resolve(src):
            for d in self.resolve(dst):
                if s == d and rel_type.is_structural:
                    continue
                edge = SchemaEdge(s, d, label, rel_type, origin_rel)
                if edge not in self.edges:
                    self.edges.add(edge)
                    changed = True
        return changed

    def add_property(self, node_key: str, prop: SchemaProperty) -> bool:
        """Add a property to all live nodes representing ``node_key``."""
        changed = False
        for key in self.resolve(node_key):
            if self.nodes[key].add_property(prop):
                changed = True
        return changed

    def held_names(self, node_key: str):
        """Names every live node of a key has: adding one is a no-op."""
        keys = self.resolve(node_key)
        if len(keys) == 1:
            return self.nodes[keys[0]].properties
        held = [set(self.nodes[k].properties) for k in keys]
        return set.intersection(*held) if held else set()

    def edges_touching(self, node_key: str) -> list[SchemaEdge]:
        # Iteration order is irrelevant: every consumer performs
        # commutative monotone set updates, so no sort is needed (it
        # dominated the fixpoint cost on inheritance-heavy ontologies).
        keys = set(self.resolve(node_key))
        return [
            e for e in self.edges if e.src in keys or e.dst in keys
        ]

    def properties_of(self, node_key: str) -> dict[str, SchemaProperty]:
        """Union of properties over the live nodes representing a key."""
        merged: dict[str, SchemaProperty] = {}
        for key in self.resolve(node_key):
            merged.update(self.nodes[key].properties)
        return merged

    # ------------------------------------------------------------------
    # The steps the structural and 1:1 rules share
    # ------------------------------------------------------------------
    def consume(self, rel_id: str) -> bool:
        """Mark ``rel_id`` consumed and drop its edges.  True the first
        time only."""
        if rel_id in self.consumed:
            return False
        self.consumed.add(rel_id)
        self.edges = {e for e in self.edges if e.origin_rel != rel_id}
        return True

    def absorb(
        self,
        rel: Relationship,
        absorbed: str,
        absorber: str,
        provenance: Provenance,
    ) -> bool:
        """One application of a structural rule: ``absorber`` takes in
        ``absorbed`` through ``rel``.  True if the state changed.

        The first application consumes ``rel`` and records ``absorber``
        as a successor of ``absorbed``.  While ``absorbed`` is live,
        every application copies its properties (a native one tagged
        with ``provenance``) and its edges other than ``rel``'s type to
        the absorber, so content it gains from other rules flows on
        (Appendix A, cases (i) and (ii)); then it drops if nothing
        structural still holds it.
        """
        changed = self.consume(rel.rel_id)
        if changed:
            for key in self.resolve(absorbed):
                self.absorbers.setdefault(key, set()).add(absorber)
        if absorbed not in self.nodes:
            return changed
        held = self.held_names(absorber)
        for prop in self.properties_of(absorbed).values():
            if prop.name in held:
                continue
            if prop.provenance is Provenance.NATIVE:
                prop = replace(prop, provenance=provenance)
            changed |= self.add_property(absorber, prop)
        absorbed_keys = set(self.resolve(absorbed))
        for edge in self.edges_touching(absorbed):
            if edge.rel_type is rel.rel_type:
                continue
            if edge.src in absorbed_keys:
                changed |= self.add_edge(
                    absorber, edge.dst, edge.label, edge.rel_type,
                    edge.origin_rel,
                )
            if edge.dst in absorbed_keys:
                changed |= self.add_edge(
                    edge.src, absorber, edge.label, edge.rel_type,
                    edge.origin_rel,
                )
        return self.maybe_drop_structural(absorbed) or changed

    def pending_structural(self, key: str) -> set[str]:
        """Unconsumed structural rel ids gating a node's drop.

        This is a *static* criterion: it reads the input ontology and
        the frozen Jaccard bands, not the evolving edge set, so drop
        timing cannot depend on when propagated edge copies arrive
        (required for Theorem 3's order-independence).
        """
        node = self.nodes[key]
        pending: set[str] = set()
        for concept in node.concepts:
            pending |= self._structural_blockers.get(concept, set())
        return pending - self.consumed

    def maybe_drop_structural(self, node_key: str) -> bool:
        """Drop a dissolved union/parent/absorbed-child node.

        A concept can hold several structural roles at once (union
        concept, inheritance parent, merged-up child); the node drops
        only when *every* structural relationship rooted at it has been
        consumed, and its successors are all its recorded absorbers.
        Dropping for one role while another is pending would send
        content to only part of the successors and break
        order-independence.  True if the state changed.
        """
        for key in tuple(self.resolve(node_key)):
            if not self.is_live(key):
                continue
            absorbers = self.absorbers.get(key)
            if not absorbers or self.pending_structural(key):
                continue
            return self.drop_node(key, tuple(sorted(absorbers)))
        return False
