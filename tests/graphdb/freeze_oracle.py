"""Test-only reference for :meth:`GraphArrays._build
<repro.graphdb.view.GraphArrays._build>` (what ``graph.freeze()`` runs).

The pure-Python CSR build the numpy freeze replaced: a count pass, a
prefix-sum pass and a fill pass per direction over every edge.  Kept
as the oracle the array-based build is compared against - every vid
slot's segment (start, count) read through ``Csr.span`` against these
dense offsets, the same neighbors and eids, and the same key order of
every dict.
Its ``segments`` - per edge type, vid -> the vertex's (eid, neighbor)
pairs in CSR order - are the order a frozen expand must emit
(``test_derived_state.py``).
"""

from array import array


def reference_freeze(graph):
    """``{"out"|"in": (csrs, segments)}`` of ``graph`` as it stands.

    ``csrs`` maps edge-type sid -> (offsets, neighbors, eids);
    ``segments`` maps sid -> vid -> tuple of (eid, neighbor) pairs.
    """
    nslots = len(graph._v_tid)
    e_label = graph._e_label
    e_src = graph._e_src
    e_dst = graph._e_dst
    result = {}
    for direction, anchors, fars in (
        ("out", e_src, e_dst),
        ("in", e_dst, e_src),
    ):
        csrs: dict[int, tuple] = {}
        counts: dict[int, array] = {}
        for sid, anchor in zip(e_label, anchors):
            if sid < 0:
                continue
            per_vid = counts.get(sid)
            if per_vid is None:
                per_vid = counts[sid] = array("q", bytes(8 * (nslots + 1)))
            per_vid[anchor + 1] += 1
        for sid, per_vid in counts.items():
            total = 0
            for i in range(1, nslots + 1):
                total += per_vid[i]
                per_vid[i] = total
            csrs[sid] = (per_vid, [0] * total, [0] * total)
        # Edges arrive in ascending eid order, so each (vid, type)
        # segment ends up eid-ordered.
        cursors = {sid: array("q", csr[0]) for sid, csr in csrs.items()}
        for eid, (sid, anchor, far) in enumerate(
            zip(e_label, anchors, fars)
        ):
            if sid < 0:
                continue
            cursor = cursors[sid]
            slot = cursor[anchor]
            cursor[anchor] = slot + 1
            _offsets, neighbors, eids = csrs[sid]
            neighbors[slot] = far
            eids[slot] = eid
        segments: dict[int, dict[int, tuple]] = {}
        for sid, (offsets, neighbors, eids) in csrs.items():
            per_vid: dict[int, tuple] = {}
            start = 0
            for vid in range(nslots):
                end = offsets[vid + 1]
                if end > start:
                    per_vid[vid] = tuple(
                        zip(eids[start:end], neighbors[start:end])
                    )
                    start = end
            segments[sid] = per_vid
        result[direction] = (csrs, segments)
    return result
