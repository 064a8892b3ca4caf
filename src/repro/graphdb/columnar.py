"""Columnar building blocks for the property graph core.

Three pieces, composed by :class:`~repro.graphdb.graph.PropertyGraph`:

* :class:`SymbolTable` - interns label / edge-type / property-key
  strings into dense integer ids (one table per graph).  Hot paths
  compare and hash small ints instead of strings, and the snapshot
  codec's string section maps 1:1 onto it.
* :class:`PropertyColumn` - one typed column of property values,
  indexed by a table-local dense row id.  Int and float columns are
  ``array``-backed (8 bytes per slot, C-speed bulk iteration);
  anything else falls back to a plain object list.  A presence bitmap
  distinguishes *absent* from a stored ``None``.  Writing a value the
  current dtype cannot hold promotes the column to the object
  representation in place.
* :class:`VertexTable` - all vertices sharing one label *set* (label
  sets are fixed at vertex creation, so this is the multi-label-exact
  refinement of "per-(label, key)" columns: no value is ever stored
  twice).  Rows are append-only; removal tombstones the row (vid slot
  set to -1, presence bits cleared) so row ids stay stable.

Scans and statistics builds iterate ``zip(vids, column.mask,
column.data)`` - plain C-driven iteration over flat sequences -
instead of hopping through per-vertex dicts.
"""

from __future__ import annotations

from array import array
from itertools import compress

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Column dtypes. INT/FLOAT are array-backed, OBJ is a list.
KIND_INT = "int64"
KIND_FLOAT = "float64"
KIND_OBJ = "object"

_TYPECODE = {KIND_INT: "q", KIND_FLOAT: "d"}

#: The value slot of a property an element does not carry, in a
#: column of ``PropertyGraph.add_vertices`` or ``LogicalDataset``.
ABSENT = object()


class SymbolTable:
    """Dense string interning: name -> small int, and back."""

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        """The id for ``name``, assigning the next dense id if new."""
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self._names)
            self._names.append(name)
        return sid

    def sid(self, name: str) -> int | None:
        """The id for ``name``, or None if never interned."""
        return self._ids.get(name)

    def name(self, sid: int) -> str:
        if sid < 0:  # tombstone sentinel must not wrap around
            raise IndexError(f"invalid symbol id {sid}")
        return self._names[sid]

    def names(self) -> list[str]:
        """All interned strings in id order (do not mutate)."""
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SymbolTable {len(self._names)} symbols>"


def _kind_for(value: object) -> str:
    """The tightest column dtype that can hold ``value``.

    ``bool`` deliberately maps to OBJ: packing it into an int column
    would lose the type on the way back out.
    """
    if type(value) is int and _I64_MIN <= value <= _I64_MAX:
        return KIND_INT
    if type(value) is float:
        return KIND_FLOAT
    return KIND_OBJ


class PropertyColumn:
    """One typed, presence-masked column of property values."""

    __slots__ = ("kind", "data", "mask", "count")

    def __init__(self, kind: str = KIND_OBJ):
        self.kind = kind
        typecode = _TYPECODE.get(kind)
        self.data: array | list = (
            array(typecode) if typecode is not None else []
        )
        self.mask = bytearray()
        #: Number of present (mask=1) slots.
        self.count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_value(cls, value: object) -> "PropertyColumn":
        return cls(_kind_for(value))

    @classmethod
    def from_rows(
        cls,
        rows: list[int],
        values: list[object],
        kind: str,
    ) -> "PropertyColumn":
        """Bulk-build a column from (row, value) pairs.

        When ``rows`` is exactly ``0..n-1`` (the common case for a
        snapshot section: every vertex of the label set carries the
        property) the arrays are adopted wholesale - one C call, no
        per-row Python work.
        """
        column = cls(kind)
        n = len(rows)
        if n and rows[0] == 0 and rows[-1] == n - 1:
            # Dense prefix: callers pass strictly ascending rows, so
            # first == 0 and last == n-1 means rows are exactly 0..n-1.
            if kind == KIND_OBJ:
                column.data = list(values)
            else:
                column.data = array(_TYPECODE[kind], values)
            column.mask = bytearray(b"\x01") * n
            column.count = n
            return column
        for row, value in zip(rows, values):
            column.set(row, value)
        return column

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def value_at(self, row: int, default: object = None) -> object:
        """The value at ``row``, or ``default`` when absent."""
        if row >= len(self.mask) or not self.mask[row]:
            return default
        return self.data[row]

    def present(self, row: int) -> bool:
        return row < len(self.mask) and bool(self.mask[row])

    def notnull_mask(self) -> bytearray:
        """Presence mask with stored-``None`` slots cleared.

        For typed columns this is the presence mask itself (they never
        hold ``None``); object columns can carry an explicit ``None``,
        which every read path reports identically to an absent key, so
        batch consumers want the *reads-non-null* mask.
        """
        if self.kind != KIND_OBJ:
            return self.mask
        mask = bytearray(self.mask)
        data = self.data
        for row, bit in enumerate(mask):
            if bit and data[row] is None:
                mask[row] = 0
        return mask

    def __len__(self) -> int:
        return len(self.mask)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _pad_to(self, n: int) -> None:
        short = n - len(self.mask)
        if short <= 0:
            return
        self.mask.extend(b"\x00" * short)
        if self.kind == KIND_OBJ:
            self.data.extend([None] * short)
        else:
            self.data.extend([0] * short)

    def _promote(self) -> None:
        """Switch to the object representation, keeping every slot."""
        self.data = list(self.data)
        self.kind = KIND_OBJ

    def set(self, row: int, value: object) -> None:
        kind = self.kind
        if kind is not KIND_OBJ:
            # Inlined dtype guard (hot on the bulk-load path).
            if kind is KIND_INT:
                if type(value) is not int or not (
                    _I64_MIN <= value <= _I64_MAX
                ):
                    self._promote()
            elif type(value) is not float:
                self._promote()
        self._pad_to(row + 1)
        if not self.mask[row]:
            self.mask[row] = 1
            self.count += 1
        self.data[row] = value

    def extend(
        self, row: int, values: list, mask: bytearray | None = None
    ) -> None:
        """Bulk ``set(row + i, values[i])`` past the column's end, for
        the ``i`` that ``mask`` marks (all of them when ``None``).
        The dtype ends up where the per-value :meth:`set` guard would
        have left it: one value the typed form cannot hold promotes
        the whole column."""
        if mask is None:
            mask = b"\x01" * len(values)
            present = values
        else:
            # Columns pad lazily: nothing is stored past the last set row.
            mask = mask.rstrip(b"\x00")
            values = values[:len(mask)]
            present = list(compress(values, mask))
        if not present:
            return
        self._hold(present)
        if len(present) < len(values):
            hole = None if self.kind is KIND_OBJ else 0
            values = [v if bit else hole for v, bit in zip(values, mask)]
        self._pad_to(row)
        self.mask.extend(mask)
        self.data.extend(values)
        self.count += len(present)

    def assign(self, rows: list[int], values: list) -> None:
        """Bulk ``set(rows[i], values[i])`` over distinct ``rows``: one
        dtype decision for the batch (:meth:`extend`'s), one pad to
        the greatest row, and the mask and count updated."""
        self._hold(values)
        self._pad_to(max(rows) + 1)
        mask, data = self.mask, self.data
        present = sum(map(mask.__getitem__, rows)) if self.count else 0
        self.count += len(rows) - present
        for row, value in zip(rows, values):
            mask[row] = 1
            data[row] = value

    def _hold(self, values: list) -> None:
        """Promote the column unless its dtype holds every one of
        ``values`` (non-empty): where the per-value :meth:`set` guard
        would leave it."""
        kind = self.kind
        if kind is KIND_INT:
            fits = (
                set(map(type, values)) == {int}
                and _I64_MIN <= min(values) and max(values) <= _I64_MAX
            )
        else:
            fits = kind is KIND_OBJ or set(map(type, values)) == {float}
        if not fits:
            self._promote()

    def unset(self, row: int) -> None:
        """Clear a slot (absent); frees object references."""
        if row >= len(self.mask) or not self.mask[row]:
            return
        self.mask[row] = 0
        self.count -= 1
        if self.kind == KIND_OBJ:
            self.data[row] = None
        else:
            self.data[row] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PropertyColumn {self.kind} {self.count}/{len(self.mask)}>"
        )


class VertexTable:
    """The columnar store for one label set's vertices."""

    __slots__ = ("labelset_id", "label_sids", "labels", "vids", "live",
                 "columns")

    def __init__(
        self,
        labelset_id: int,
        label_sids: frozenset[int],
        labels: frozenset[str],
    ):
        self.labelset_id = labelset_id
        self.label_sids = label_sids
        #: The label set as strings (what ``labels_of`` hands out).
        self.labels = labels
        #: row -> vid; -1 marks a tombstoned (removed) row.
        self.vids: list[int] = []
        self.live = 0
        #: property-key symbol id -> column (rows align with ``vids``).
        self.columns: dict[int, PropertyColumn] = {}

    def new_row(self, vid: int) -> int:
        row = len(self.vids)
        self.vids.append(vid)
        self.live += 1
        return row

    def tombstone(self, row: int) -> None:
        self.vids[row] = -1
        self.live -= 1
        for column in self.columns.values():
            column.unset(row)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    def set_prop(self, row: int, key_sid: int, value: object) -> None:
        column = self.columns.get(key_sid)
        if column is None:
            column = self.columns[key_sid] = PropertyColumn.for_value(
                value
            )
        column.set(row, value)

    def append_column(
        self, key_sid: int, row: int, values: list,
        mask: bytearray | None = None,
    ) -> None:
        """Bulk ``set_prop(row + i, key_sid, values[i])`` for rows the
        caller just appended; ``mask`` (all ones when ``None``) marks
        the rows that carry the key, and at least one does."""
        column = self.columns.get(key_sid)
        if column is None:
            first = values[mask.index(1)] if mask is not None else values[0]
            column = self.columns[key_sid] = PropertyColumn.for_value(first)
        column.extend(row, values, mask)

    def assign_column(
        self, key_sid: int, rows: list[int], values: list
    ) -> None:
        """Bulk ``set_prop(rows[i], key_sid, values[i])`` over distinct,
        non-empty ``rows``: a new column takes the first value's dtype,
        as :meth:`set_prop` would give it."""
        column = self.columns.get(key_sid)
        if column is None:
            column = self.columns[key_sid] = PropertyColumn.for_value(
                values[0]
            )
        column.assign(rows, values)

    def get_prop(
        self, row: int, key_sid: int | None, default: object = None
    ) -> object:
        if key_sid is None:
            return default
        column = self.columns.get(key_sid)
        if column is None:
            return default
        return column.value_at(row, default)

    def has_prop(self, row: int, key_sid: int | None) -> bool:
        if key_sid is None:
            return False
        column = self.columns.get(key_sid)
        return column is not None and column.present(row)

    def unset_prop(self, row: int, key_sid: int) -> None:
        column = self.columns.get(key_sid)
        if column is not None:
            column.unset(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = "+".join(sorted(self.labels))
        return (
            f"<VertexTable :{labels} {self.live} rows, "
            f"{len(self.columns)} columns>"
        )
