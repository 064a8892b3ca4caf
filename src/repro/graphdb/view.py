"""Frozen CSR read view over a :class:`PropertyGraph`.

:meth:`PropertyGraph.freeze` materializes a :class:`GraphView`: for
every edge type, compressed-sparse-row adjacency in both directions -
three read-only int64 arrays, an offsets array indexed by vid plus
flat neighbor and edge-id arrays - and the order of the types, nothing
else.  The vectorized executor adopts those arrays as they are
(:meth:`GraphArrays.csr <repro.graphdb.query.vectorized.GraphArrays.csr>`);
the tuple executor reads the graph's dict adjacency, frozen or not.
The build is one stable sort of the live eids on (edge type, anchor
vid) per direction, offsets from ``bincount`` / ``cumsum``: O(E log E),
no Python loop over vid slots or edges; the only per-type cost is the
offsets array itself.

The view is *immutable by contract* and epoch-stamped: every graph
mutation advances the graph's mutation epoch, which drops the graph's
cached view and lets an outstanding reference detect staleness via
:attr:`valid`.  Freezing is a deliberate act for read-heavy phases,
never an implicit per-query cost.

Edge types rank by their first live eid graph-wide: the key order of
the per-direction dicts, in which batch expansion concatenates an
untyped hop's types, and :attr:`GraphView.type_rank`, by which the
tuple path orders a vertex's types on a frozen graph - so both emit
pairs in one order.  Unfrozen, the dict adjacency orders a vertex's
types by its first edge at that vertex
(``test_freeze.py::test_untyped_type_order_is_global_when_frozen``).
Within a (vertex, edge type) bucket pairs ascend by edge id in both
structures, so a *typed* expansion reads the same frozen or not.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: One direction of one edge type: (offsets, neighbors, eids), all
#: int64 arrays.  ``offsets`` has length num_vid_slots+1; ``neighbors``
#: and ``eids`` are flat and sliced by consecutive offsets.
Csr = tuple[np.ndarray, np.ndarray, np.ndarray]


class GraphView:
    """Immutable CSR adjacency snapshot of one graph epoch."""

    __slots__ = ("graph", "epoch", "num_vid_slots", "_out", "_in",
                 "type_rank")

    def __init__(self, graph):
        self.graph = graph
        self.epoch = graph.mutation_epoch
        self.num_vid_slots = len(graph._v_tid)
        self._out: dict[int, Csr] = {}
        self._in: dict[int, Csr] = {}
        #: Edge-type name -> rank, the key order of ``_out`` / ``_in``.
        self.type_rank: dict[str, int] = {}
        self._build(graph)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, graph) -> None:
        labels = np.array(graph._e_label, dtype=np.int64)
        live = np.flatnonzero(labels >= 0)
        if not len(live):
            return
        labels = labels[live]
        # Edge types rank by their first live eid: the key order of
        # the per-direction dicts, which untyped expansion iterates.
        sids, first = np.unique(labels, return_index=True)
        sids = sids[np.argsort(first)]
        rank_of = np.empty(int(sids.max()) + 1, dtype=np.int64)
        rank_of[sids] = np.arange(len(sids))
        ranks = rank_of[labels]
        cuts = np.cumsum(np.bincount(ranks))[:-1]  # where each type ends
        sids = sids.tolist()
        names = graph._symbols.names()
        self.type_rank = {names[sid]: rank for rank, sid in enumerate(sids)}
        src = np.array(graph._e_src, dtype=np.int64)[live]
        dst = np.array(graph._e_dst, dtype=np.int64)[live]
        stride = self.num_vid_slots + 1
        for anchors, fars, csrs in (
            (src, dst, self._out), (dst, src, self._in)
        ):
            # Stable sort on (type, anchor): live eids ascend, so each
            # (type, vid) run ends up eid-ordered.
            key = ranks * stride + anchors
            order = np.argsort(key, kind="stable")
            neighbors = fars[order]
            eids = live[order]
            # Row t: how many type-t edges anchor below each vid slot.
            offsets = np.bincount(
                key + 1, minlength=len(sids) * stride
            ).reshape(len(sids), stride)
            np.cumsum(offsets, axis=1, out=offsets)
            for column in (offsets, neighbors, eids):
                column.flags.writeable = False
            csrs.update(zip(sids, zip(
                offsets, np.split(neighbors, cuts), np.split(eids, cuts)
            )))

    @property
    def valid(self) -> bool:
        """Whether the graph is still at the epoch this view froze."""
        return self.epoch == self.graph.mutation_epoch

    def edge_types(self) -> list[int]:
        """Symbol ids of the edge types present in the view."""
        return sorted(self._out)

    def iter_csr(
        self, direction: str = "out"
    ) -> Iterator[tuple[int, Csr]]:
        """(edge-type sid, CSR triple) pairs for one direction."""
        csrs = self._out if direction == "out" else self._in
        return iter(csrs.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphView epoch={self.epoch} "
            f"types={len(self._out)} "
            f"{'valid' if self.valid else 'stale'}>"
        )

