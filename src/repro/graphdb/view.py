"""Frozen CSR read view over a :class:`PropertyGraph`.

:meth:`PropertyGraph.freeze` materializes a :class:`GraphView`: for
every edge type, compressed-sparse-row adjacency in both directions -
three read-only int64 arrays, an offsets array indexed by vid plus
flat neighbor and edge-id arrays - and nothing else.  The vectorized
executor adopts those arrays as they are (:meth:`GraphArrays.csr
<repro.graphdb.query.vectorized.GraphArrays.csr>`), and the tuple
executor's segments below are cut from them.  The build is one stable
sort of the live eids on (edge type, anchor vid) per direction,
offsets from ``bincount`` / ``cumsum``: O(E log E), no Python loop
over vid slots or edges; the only per-type cost is the offsets array
itself.

The tuple executor's expand reads *segments*: per (direction, edge
type) a dict vid -> tuple of plain-int (eid, neighbor) pairs.  They
are derived state, like the graph's ``_pairs`` and ``_adjacency``:
the first :meth:`GraphView.expand_pairs` that asks for a type cuts
its dict from that type's CSR triple into a local and publishes it
with one assignment (racing readers build equal dicts; either may
win), and it stays for the life of the view.  A graph that only runs
batch-path queries never allocates a pair tuple.

The view is *immutable by contract* and epoch-stamped: every graph
mutation advances the graph's mutation epoch, which drops the graph's
cached view and lets an outstanding reference detect staleness via
:attr:`valid`.  Readers use the view while it is valid and fall back
to the mutable dict adjacency otherwise; freezing is a deliberate act
for read-heavy phases, never an implicit per-query cost.

Within a (vertex, edge type) bucket pairs ascend by edge id, as in
the mutable adjacency, so a *typed* expansion reads the same frozen
or not.  An *untyped* one concatenates types by first live eid
graph-wide, the mutable adjacency by first edge at that vertex
(``test_freeze.py::test_untyped_type_order_is_global_when_frozen``).
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
                 "_out_segments", "_in_segments")

    def __init__(self, graph):
        self.graph = graph
        self.epoch = graph.mutation_epoch
        self.num_vid_slots = len(graph._v_tid)
        self._out: dict[int, Csr] = {}
        self._in: dict[int, Csr] = {}
        #: Derived state: edge type -> vid -> tuple of (eid, neighbor)
        #: pairs, one type cut per first :meth:`expand_pairs` asking.
        self._out_segments: dict[int, dict[int, tuple]] = {}
        self._in_segments: dict[int, dict[int, tuple]] = {}
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

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def expand_pairs(
        self,
        vid: int,
        label_sids: tuple[int | None, ...] | None,
        direction: str,
    ) -> list[tuple[int, int]]:
        """(eid, neighbor) pairs of ``vid``; one segment per edge type.

        ``label_sids`` of ``None`` means every edge type, in rank
        order; a ``None`` entry (a label the graph never interned)
        matches nothing.
        """
        pairs: list[tuple[int, int]] = []
        if direction != "in":
            self._collect(
                self._out, self._out_segments, vid, label_sids, pairs
            )
        if direction != "out":
            self._collect(
                self._in, self._in_segments, vid, label_sids, pairs
            )
        return pairs

    @staticmethod
    def _collect(
        csrs: dict[int, Csr], segments: dict, vid: int, label_sids, pairs: list
    ) -> None:
        for sid in csrs if label_sids is None else label_sids:
            per_vid = segments.get(sid)
            if per_vid is None:
                csr = csrs.get(sid)
                if csr is None:
                    continue
                per_vid = segments[sid] = _cut_segments(csr)
            seg = per_vid.get(vid)
            if seg:
                pairs.extend(seg)

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


def _cut_segments(csr: Csr) -> dict[int, tuple]:
    """One type's CSR triple as vid -> tuple of (eid, neighbor) pairs
    of plain ints, ascending vid, vertices with edges only."""
    offsets, neighbors, eids = csr
    vids = np.flatnonzero(offsets[1:] != offsets[:-1])
    bounds = [*offsets[vids].tolist(), len(eids)]
    pairs = list(zip(eids.tolist(), neighbors.tolist()))
    return {
        vid: tuple(pairs[start:end])
        for vid, start, end in zip(vids.tolist(), bounds, bounds[1:])
    }
