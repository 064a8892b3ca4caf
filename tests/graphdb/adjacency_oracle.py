"""Test-only reference for the graph's per-element adjacency reads.

The dict-of-dicts adjacency the graph kept before its reads went
through the base CSR plus the tail: per direction, live vid -> edge
label -> {eid: neighbor}, built by one ascending-eid pass over the live
edges.  So each (vertex, label) bucket ascends by eid and each vertex's
labels come in order of their first eid at that vertex - the order the
dict kept through every mutation and rollback.  What each read returned
from it:

* ``out_edges`` / ``in_edges``: one bucket's eids, or every bucket's in
  label order (:func:`untyped`);
* ``degree``: the size of both directions' buckets;
* ``remove_vertex``'s cascade: the untyped out eids, then the in eids;
* ``first_edge_between``: the smallest eid of the source's buckets
  whose neighbor is the far endpoint (:func:`first_to`);
* ``GraphSession.expand_pairs``: the bucket items, unfrozen.
"""


def reference_adjacency(graph) -> tuple[dict, dict]:
    """``(out, in)`` of ``graph`` as its columns stand: each maps every
    live vid to label -> {eid: neighbor}."""
    out = {vid: {} for vid, tid in enumerate(graph._v_tid) if tid >= 0}
    into = {vid: {} for vid in out}
    name = graph.symbols.name
    for eid, (sid, src, dst) in enumerate(
        zip(graph._e_label, graph._e_src, graph._e_dst)
    ):
        if sid < 0:
            continue
        label = name(sid)
        out[src].setdefault(label, {})[eid] = dst
        into[dst].setdefault(label, {})[eid] = src
    return out, into


def untyped(by_label: dict) -> list[int]:
    """One vertex's eids in one direction, its labels in dict order."""
    return [eid for bucket in by_label.values() for eid in bucket]


def first_to(by_label: dict, far: int, label: str | None) -> int | None:
    """The smallest eid of ``label``'s bucket (of every bucket for
    None) whose neighbor is ``far``, or None."""
    buckets = by_label.values() if label is None else (
        by_label.get(label, {}),
    )
    return min(
        (eid for bucket in buckets
         for eid, neighbor in bucket.items() if neighbor == far),
        default=None,
    )
