"""Morsel partitioning: fixed-size row ranges over columnar segments.

Morsel-driven parallelism (Leis et al.) dispatches work to a pool in
*morsels* - contiguous row ranges small enough to balance load and
large enough to amortize dispatch overhead.  Here the unit being
partitioned is always a flat array of candidate rows: either the live
rows of one per-label-set :class:`~repro.graphdb.columnar.VertexTable`
or a post-scan candidate vid array (one *segment* per table the scan
admitted).  A :class:`Morsel` is therefore ``(segment, start, stop)``
- it never copies data; workers slice the shared-memory arrays by
these bounds.

The parallel query path (:mod:`repro.graphdb.query.parallel`) keys its
morsel size to the vectorized pipeline's batch size so that batch
boundaries - and with them the per-call page charges the work-counter
equivalence contract depends on - are identical to serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

#: Default rows per morsel.  Matches the vectorized pipeline's
#: ``BATCH_ROWS`` so a morsel is exactly one serial batch; callers
#: that need bigger morsels must use a multiple of the batch size.
DEFAULT_MORSEL_ROWS = 4096


@dataclass(frozen=True)
class Morsel:
    """One contiguous row range of one segment (half-open)."""

    segment: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        return self.stop - self.start


class MorselSource:
    """Slices per-segment row counts into fixed-size morsels.

    ``lengths`` is one row count per segment, in the order the serial
    pipeline would stream them; iteration yields morsels in that same
    (segment-major, ascending-offset) order, which is the order the
    coordinator replays work-counter charges in.
    """

    def __init__(
        self,
        lengths: Sequence[int],
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ):
        if morsel_rows < 1:
            raise ValueError("morsel_rows must be positive")
        self.lengths = list(lengths)
        self.morsel_rows = morsel_rows

    @classmethod
    def from_tables(
        cls, graph, morsel_rows: int = DEFAULT_MORSEL_ROWS
    ) -> "MorselSource":
        """Morsels over each table's raw row extent (live + tombstones).

        Segment indices are table ids; row offsets index the table's
        ``vids`` list, so workers can apply their own liveness masks.
        """
        return cls(
            [len(table.vids) for table in graph._tables], morsel_rows
        )

    def __iter__(self) -> Iterator[Morsel]:
        step = self.morsel_rows
        for segment, length in enumerate(self.lengths):
            for start in range(0, length, step):
                yield Morsel(segment, start, min(start + step, length))

    def __len__(self) -> int:
        step = self.morsel_rows
        return sum(
            (length + step - 1) // step for length in self.lengths
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MorselSource segments={len(self.lengths)} "
            f"rows={sum(self.lengths)} morsels={len(self)}>"
        )
