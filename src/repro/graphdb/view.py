"""Frozen CSR read view over a :class:`PropertyGraph`.

:meth:`PropertyGraph.freeze` materializes a :class:`GraphView`: for
every edge type, compressed-sparse-row adjacency in both directions -
three read-only int64 arrays, an offsets array indexed by vid plus
flat neighbor and edge-id arrays.  The vectorized executor adopts
those arrays as they are (:meth:`GraphArrays.csr
<repro.graphdb.query.vectorized.GraphArrays.csr>`); PageRank flattens
them with :func:`undirected_edge_index`.  On top of the flat arrays
the build also cuts each (vertex, type) segment into a tuple of
(eid, neighbor) pairs of plain ints, so the tuple executor's expand is
one dict probe plus one ``extend`` with no per-call slicing.  That is
a deliberate speed-for-memory trade: the view holds both the CSR
arrays and the segment tuples (~one pair object per edge per
direction); freezing a graph roughly doubles its adjacency footprint
while it is held.

The build is one stable sort of the live eids on (edge type, anchor
vid) per direction - O(E log E) - with offsets from ``bincount`` /
``cumsum`` and one segment tuple per (type, vid) pair that has edges.
The only per-type cost is the offsets array itself (num_vid_slots+1
entries, filled by numpy); no Python loop runs over vid slots.

The view is *immutable by contract* and epoch-stamped: every graph
mutation advances the graph's mutation epoch (the same machinery that
feeds the WAL listeners), which both drops the graph's cached view and
lets any outstanding reference detect staleness via :attr:`valid`.
Readers (the session's ``expand_pairs``, the PageRank kernel, the
benchmarks) use the view when one is valid and fall back to the
mutable dict adjacency otherwise - freezing is a deliberate act for
read-heavy phases, never an implicit per-query cost.

Edge types keep the order of their first live eid in every
per-direction dict (what untyped expansion iterates), and within one
(vertex, edge type) bucket neighbors appear in ascending edge-id
order - the same orders the mutable adjacency dicts yield, since edge
ids are never reused.
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
        #: Per edge type: vid -> tuple of (eid, neighbor) pairs - the
        #: CSR segments pre-materialized once at freeze time, so an
        #: expand is a dict probe plus one ``extend`` with no per-call
        #: slicing.  Only vertices with matching edges have entries.
        self._out_segments: dict[int, dict[int, tuple]] = {}
        self._in_segments: dict[int, dict[int, tuple]] = {}
        self._build(graph)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, graph) -> None:
        nslots = self.num_vid_slots
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
        type_ends = np.cumsum(np.bincount(ranks)).tolist()
        sids = sids.tolist()
        src = np.array(graph._e_src, dtype=np.int64)[live]
        dst = np.array(graph._e_dst, dtype=np.int64)[live]
        stride = nslots + 1
        for anchors, fars, csrs, segments in (
            (src, dst, self._out, self._out_segments),
            (dst, src, self._in, self._in_segments),
        ):
            # Stable sort on (type, anchor): live eids ascend, so each
            # (type, vid) run ends up eid-ordered.
            key = ranks * stride + anchors
            order = np.argsort(key, kind="stable")
            key = key[order]
            neighbors = fars[order]
            eids = live[order]
            # Row t: how many type-t edges anchor below each vid slot.
            offsets = np.bincount(
                key + 1, minlength=len(sids) * stride
            ).reshape(len(sids), stride)
            np.cumsum(offsets, axis=1, out=offsets)
            for column in (offsets, neighbors, eids):
                column.flags.writeable = False
            # One segment tuple per (type, vid) run of the sorted key.
            starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()]
            pairs = list(zip(eids.tolist(), neighbors.tolist()))
            runs = [
                tuple(pairs[start:end])
                for start, end in zip(starts, starts[1:] + [len(pairs)])
            ]
            run_vids = (key[starts] % stride).tolist()
            run_ends = np.searchsorted(starts, type_ends).tolist()
            start = run_start = 0
            for rank, sid in enumerate(sids):
                end, run_end = type_ends[rank], run_ends[rank]
                csrs[sid] = (
                    offsets[rank], neighbors[start:end], eids[start:end]
                )
                segments[sid] = dict(zip(
                    run_vids[run_start:run_end], runs[run_start:run_end]
                ))
                start, run_start = end, run_end

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
        """(eid, neighbor) pairs of ``vid``; CSR slice per edge type.

        ``label_sids`` of ``None`` means every edge type; a ``None``
        entry (a label the graph never interned) matches nothing.
        """
        pairs: list[tuple[int, int]] = []
        if direction != "in":
            self._collect(self._out_segments, vid, label_sids, pairs)
        if direction != "out":
            self._collect(self._in_segments, vid, label_sids, pairs)
        return pairs

    @staticmethod
    def _collect(
        segments: dict[int, dict[int, tuple]],
        vid: int,
        label_sids,
        pairs: list,
    ) -> None:
        if label_sids is None:
            for per_vid in segments.values():
                seg = per_vid.get(vid)
                if seg:
                    pairs.extend(seg)
            return
        for sid in label_sids:
            per_vid = segments.get(sid)
            if per_vid is None:
                continue
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


def undirected_edge_index(graph) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Live vids plus the graph's edges as undirected index arrays.

    Freezes the graph (reusing a valid cached view) and flattens the
    out-CSRs into parallel ``(src, dst)`` arrays of positions in the
    returned vid list, both directions per edge - the adjacency
    :func:`graph_pagerank` iterates.
    """
    vids = graph.vertex_ids()
    view = graph.freeze()
    index = np.full(view.num_vid_slots, -1, dtype=np.int64)
    index[np.asarray(vids, dtype=np.int64)] = np.arange(len(vids))
    slots = np.arange(view.num_vid_slots)
    srcs = []
    dsts = []
    for _sid, (offsets, neighbors, _eids) in view.iter_csr("out"):
        s = index[np.repeat(slots, np.diff(offsets))]
        d = index[neighbors]
        srcs.extend((s, d))
        dsts.extend((d, s))
    if not srcs:
        empty = np.zeros(0, dtype=np.int64)
        return vids, empty, empty
    return vids, np.concatenate(srcs), np.concatenate(dsts)


def graph_pagerank(
    graph,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 100,
) -> dict[int, float]:
    """PageRank over the property graph's frozen CSR adjacency.

    Treats the graph as undirected (every edge feeds rank both ways),
    matching the out-degree rule of the paper's OntologyPR.  Freezes
    the graph (reusing a valid cached view) and runs the power
    iteration of :func:`repro.optimizer.pagerank.pagerank_kernel` -
    same teleport base, uniform dangling-mass redistribution and L1
    convergence test - as numpy passes over the flat edge arrays.
    Returns vid -> score over live vertices.
    """
    vids, src, dst = undirected_edge_index(graph)
    n = len(vids)
    if n == 0:
        return {}
    out_degree = np.bincount(src, minlength=n)
    dangling = out_degree == 0
    inv_degree = np.zeros(n)
    inv_degree[~dangling] = 1.0 / out_degree[~dangling]
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        base = (1.0 - damping) / n + damping * rank[dangling].sum() / n
        incoming = np.bincount(
            dst, weights=(rank * inv_degree)[src], minlength=n
        )
        new_rank = base + damping * incoming
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            break
    return dict(zip(vids, rank.tolist()))
