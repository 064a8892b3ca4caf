"""Execution metrics and the simulated latency model.

The paper's gains come from doing *less work per query* - fewer edge
traversals, fewer vertex/property reads, less page I/O.  The engine
counts each kind of work; a :class:`BackendProfile` (see
:mod:`repro.graphdb.backends`) weights the counts into a deterministic
simulated latency.  Shapes (who wins, by what factor) therefore carry
over from the paper even though absolute milliseconds differ from the
authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable


@dataclass
class ExecutionMetrics:
    """Work counters for one query execution (or a workload).

    Every field is an additive counter, so :meth:`merge` and
    :meth:`as_dict` are derived from the dataclass fields - adding a
    counter is a one-line change.
    """

    edge_traversals: int = 0
    vertex_reads: int = 0
    property_reads: int = 0
    index_lookups: int = 0
    page_hits: int = 0
    page_misses: int = 0
    rows: int = 0
    queries: int = 0
    #: Transient I/O errors absorbed by bounded retry (WAL/snapshot
    #: fsync paths) while this execution was the open unit of work.
    io_retries: int = 0
    #: Faults the failpoint harness injected in the same window (zero
    #: outside fault-injection tests unless ``REPRO_FAULTS`` is set).
    faults_injected: int = 0

    def merge(self, other: "ExecutionMetrics") -> None:
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}


_FIELD_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(ExecutionMetrics)
)


@dataclass
class LruPageCache:
    """A tiny LRU page cache; only hit/miss accounting matters here.

    A page is an int key, ``page * 2 + kind``: kind 0 is a vertex
    (property) page, 1 an adjacency page (``GraphSession`` computes
    them)."""

    capacity: int
    _pages: dict[int, None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A negative size would make touch() keep nothing while
        # touch_many() counts repeats as hits: the two disagree.
        if self.capacity < 0:
            raise ValueError(
                f"page cache capacity must be >= 0, got {self.capacity}"
            )

    def touch(self, page_id: int) -> bool:
        """Access a page; returns True on a hit."""
        pages = self._pages
        if page_id in pages:
            del pages[page_id]
            pages[page_id] = None
            return True
        capacity = self.capacity
        if capacity > 0:
            if len(pages) >= capacity:
                del pages[next(iter(pages))]
            pages[page_id] = None
        return False

    def touch_many(
        self,
        pages: list[int],
        last: dict[int, None] | list[int] | None = None,
        first: Callable[[], Iterable[int]] | None = None,
    ) -> int:
        """Access every key of ``pages`` in order; returns the number of
        misses.

        Exactly ``sum(not self.touch(p) for p in pages)`` and the same
        final recency order, in two passes over the call's *distinct*
        pages.  While those are at most ``capacity``, every page
        touched in the call sits behind all untouched residents in
        eviction order and a miss on a full cache still finds an
        untouched one to evict, so no page touched in the call leaves
        before it ends.  Hence repeats always hit, what a first touch
        finds depends only on the order of first touches, and the
        touched pages end up in order of their last touch.

        ``last`` (the distinct pages, latest last touch first) and
        ``first`` (a callable returning them in first-touch order,
        called only when a miss can evict) let a caller that settles
        the same pages again pass orders it computed before; both are
        derived from ``pages`` when absent.
        """
        if last is None:
            last = dict.fromkeys(reversed(pages))
        capacity = self.capacity
        if len(last) > capacity:
            touch = self.touch
            return sum(not touch(p) for p in pages)
        resident = self._pages
        misses = len(last) - sum(map(resident.__contains__, last))
        if len(resident) + misses > capacity:
            # Some miss evicts, and its victim may be a page this call
            # only reaches later: make the first touches, in order.
            touch = self.touch
            order = dict.fromkeys(pages) if first is None else first()
            misses = sum(not touch(p) for p in order)
        pop = resident.pop
        for key in reversed(last):
            pop(key, None)
            resident[key] = None
        return misses

    def clear(self) -> None:
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._pages)
