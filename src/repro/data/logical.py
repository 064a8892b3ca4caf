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

The data is stored by column:

* every instance has a dense int id, in insertion order, and
  ``uids[id]`` its uid string (for display and the uid-keyed API);
* ``ids[concept]`` lists a concept's instance ids, and
  ``columns[concept][name]`` holds one value per id of that list
  (:data:`ABSENT` where an instance lacks the property);
* ``link_ids[rel_id]`` is a pair of ``array('q')`` (source ids, target
  ids), in link order.

These are the only form: the generator writes them, and the loaders
and the updater read them.  Uid strings enter and leave at the edge
(``id_of``, ``has_instance``, ``remove_link``, ``set_property``).
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.exceptions import DataGenerationError
from repro.graphdb.columnar import ABSENT
from repro.ontology.model import Ontology


def as_numpy(ids) -> np.ndarray:
    """An int64 copy of an id sequence: a copy, not a view, since a
    view would pin an ``array('q')``'s buffer against appends."""
    return np.array(ids, dtype=np.int64)


class LogicalDataset:
    """Instances, property values, and instance-level links."""

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        #: instance id -> uid
        self.uids: list[str] = []
        #: concept position -> name, in order of first instance
        self.concepts: list[str] = []
        #: instance id -> position of its concept in ``concepts``
        self.concept_index = array("q")
        #: instance id -> its row in its concept's columns
        self.row_of = array("q")
        #: concept -> instance ids, in insertion order
        self.ids: dict[str, array] = {}
        #: concept -> property name -> one value per row
        self.columns: dict[str, dict[str, list]] = {}
        #: relationship id -> (source ids, target ids)
        self.link_ids: dict[str, tuple[array, array]] = {}
        #: uid -> id
        self._id_of: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_instance(
        self, concept: str, uid: str, props: dict[str, object]
    ) -> int:
        return self.add_instances(concept, [uid], {
            name: [value] for name, value in props.items()
        })[0]

    def add_instances(
        self,
        concept: str,
        uids: list[str],
        columns: dict[str, list] | None = None,
    ) -> range:
        """Add ``uids`` to ``concept`` and return their ids.

        ``columns`` holds one value list per property name
        (:data:`ABSENT` for a missing value).  A column list becomes the
        concept's column when the concept has none yet: the caller
        hands it over.  A duplicate uid - known already or repeated in
        ``uids`` - raises before anything is added.
        """
        count = len(uids)
        columns = columns or {}
        if any(len(values) != count for values in columns.values()):
            raise DataGenerationError(
                f"{count} uids for property columns of another length"
            )
        start = len(self.uids)
        if not count:
            return range(start, start)
        id_of = self._id_of
        batch = dict(zip(uids, range(start, start + count)))
        if len(batch) < count or not id_of.keys().isdisjoint(batch):
            seen = set()
            for uid in uids:
                if uid in id_of or uid in seen:
                    raise DataGenerationError(
                        f"duplicate instance uid {uid!r}"
                    )
                seen.add(uid)
        id_of.update(batch)
        ids = self.ids.get(concept)
        if ids is None:
            ids = self.ids[concept] = array("q")
            self.columns[concept] = {}
            self.concepts.append(concept)
        held = self.columns[concept]
        rows = len(ids)
        for name, values in columns.items():
            column = held.get(name)
            if column is None:
                held[name] = (
                    values if not rows and type(values) is list
                    else [ABSENT] * rows + list(values)
                )
            else:
                column.extend(values)
        for name, column in held.items():
            if name not in columns:
                column.extend(repeat(ABSENT, count))
        ids.extend(range(start, start + count))
        self.uids.extend(uids)
        self.concept_index.extend(
            repeat(self.concepts.index(concept), count)
        )
        self.row_of.extend(range(rows, rows + count))
        return range(start, start + count)

    def add_link_ids(self, rel_id: str, srcs, dsts) -> None:
        """Append the links ``srcs[i] -> dsts[i]`` by instance id.

        The ids are taken as given: :meth:`validate` checks them.  An
        empty batch adds no key (the key order of ``link_ids`` is the
        order edge labels are interned in).  An ndarray side is appended
        as its int64 bytes, any other sequence id by id.
        """
        if len(srcs) != len(dsts):
            raise DataGenerationError(
                f"{len(srcs)} link sources for {len(dsts)} targets"
            )
        if not len(srcs):
            return
        held = self.link_ids.get(rel_id)
        if held is None:
            held = self.link_ids[rel_id] = (array("q"), array("q"))
        for column, ids in zip(held, (srcs, dsts)):
            if isinstance(ids, np.ndarray):
                column.frombytes(ids.astype(np.int64, copy=False).tobytes())
            else:
                column.extend(ids)

    def remove_link(self, rel_id: str, src_uid: str, dst_uid: str) -> None:
        """Remove one ``src -> dst`` link of ``rel_id`` (the first, if
        the pair is linked more than once)."""
        src, dst = self._id_of.get(src_uid), self._id_of.get(dst_uid)
        srcs, dsts = self.link_ids.get(rel_id, ((), ()))
        for at, (a, b) in enumerate(zip(srcs, dsts)):
            if a == src and b == dst:
                del srcs[at], dsts[at]
                return
        raise DataGenerationError(
            f"no link {src_uid} -> {dst_uid} in {rel_id}"
        )

    def set_property(self, uid: str, name: str, value: object) -> None:
        """Set one property of one instance."""
        iid = self.id_of(uid)
        concept = self.concept_name(iid)
        column = self.columns[concept].get(name)
        if column is None:
            column = self.columns[concept][name] = (
                [ABSENT] * len(self.ids[concept])
            )
        column[self.row_of[iid]] = value

    # ------------------------------------------------------------------
    # Access by id
    # ------------------------------------------------------------------
    def id_of(self, uid: str) -> int:
        try:
            return self._id_of[uid]
        except KeyError:
            raise DataGenerationError(f"unknown instance {uid!r}") from None

    def has_instance(self, uid: str) -> bool:
        return uid in self._id_of

    def concept_name(self, iid: int) -> str:
        return self.concepts[self.concept_index[iid]]

    def properties_of(self, iid: int) -> dict[str, object]:
        """The properties instance ``iid`` carries, in column order."""
        row = self.row_of[iid]
        return {
            name: values[row]
            for name, values in self.columns[self.concept_name(iid)].items()
            if values[row] is not ABSENT
        }

    @property
    def num_instances(self) -> int:
        return len(self.uids)

    @property
    def num_links(self) -> int:
        return sum(len(srcs) for srcs, _dsts in self.link_ids.values())

    def summary(self) -> str:
        return (
            f"LogicalDataset[{self.ontology.name}]: "
            f"{self.num_instances:,} instances, {self.num_links:,} links"
        )

    def validate(self) -> None:
        """Check referential integrity and endpoint concepts of links:
        per relationship, one gather of the per-id concept index."""
        concept_of = as_numpy(self.concept_index)
        count = len(concept_of)
        position = {c: i for i, c in enumerate(self.concepts)}
        for rel_id, ends in self.link_ids.items():
            rel = self.ontology.relationship(rel_id)
            ends = [as_numpy(ids) for ids in ends]
            for ids in ends:
                bad = (ids < 0) | (ids >= count)
                if bad.any():
                    raise DataGenerationError(
                        f"link {rel_id} names unknown instance id "
                        f"{int(ids[bad.argmax()])}"
                    )
            srcs, dsts = (concept_of[ids] for ids in ends)
            wrong = (srcs != position.get(rel.src, -1)) | (
                dsts != position.get(rel.dst, -1)
            )
            if wrong.any():
                at = int(wrong.argmax())
                src_concept = self.concepts[srcs[at]]
                dst_concept = self.concepts[dsts[at]]
                raise DataGenerationError(
                    f"link {rel_id} connects {src_concept!r} -> "
                    f"{dst_concept!r}, expected {rel.src!r} -> "
                    f"{rel.dst!r}"
                )
