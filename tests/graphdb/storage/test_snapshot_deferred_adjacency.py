"""Endpoint probes on a snapshot-loaded graph under post-load mutation.

A snapshot load defers the adjacency base (``_base is None``); the
first probe or reader builds it whole from the edge columns, and no
mutation builds it.  The invariant pinned here: mutations that arrive
*while it is deferred* never cause a partial build - the eventual
build reflects every mutation, and the probe answers match a graph
that was never deferred at all.
"""

import pytest

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage.snapshot import read_snapshot, write_snapshot
from tests.graphdb.randgraph import adjacency_reads


@pytest.fixture()
def loaded(tmp_path):
    g = PropertyGraph("deferred")
    a = g.add_vertex("N", {"i": 0})
    b = g.add_vertex("N", {"i": 1})
    c = g.add_vertex("N", {"i": 2})
    g.add_edge(a, b, "e")
    g.add_edge(b, c, "e")
    g.add_edge(a, c, "f")
    path = tmp_path / "g.rpgs"
    write_snapshot(g, path)
    loaded = read_snapshot(path)
    assert loaded._base is None  # deferred by the loader
    return loaded


def test_add_edge_while_deferred_is_visible(loaded):
    (eid,) = loaded.add_edges("g", [1], [0])
    assert loaded._base is None  # a bulk add must not build it
    assert loaded.first_edge_between(1, 0, "g") == eid
    assert loaded._base is not None
    # ... and the pre-existing edges are all present too (no partial
    # adjacency built from only the post-load mutations).
    assert loaded.has_edge_between(0, 1, "e")
    assert loaded.has_edge_between(1, 2, "e")
    assert loaded.has_edge_between(0, 2, "f")


def test_remove_edge_while_deferred_is_visible(loaded):
    eid = next(loaded.iter_edges()).eid
    edge = loaded.edge(eid)
    src, dst, label = edge.src, edge.dst, edge.label
    loaded.remove_edge(eid)
    assert loaded._base is None  # nor a removal
    assert not loaded.has_edge_between(src, dst, label)
    assert loaded.has_edge_between(1, 2, "e")  # untouched edge intact


def test_remove_vertex_while_deferred(loaded):
    loaded.remove_vertex(1)
    assert loaded._base is None  # its cascade reads the columns
    assert not loaded.has_edge_between(0, 1, "e")
    assert not loaded.has_edge_between(1, 2, "e")
    assert loaded.has_edge_between(0, 2, "f")


def test_deferred_build_matches_incremental(loaded):
    # Interleave mutations, then compare the adjacency built on first
    # need against a graph that maintained its own all along.
    loaded.add_edges("e", [2], [0])
    loaded.remove_edge(1)

    fresh = PropertyGraph("deferred")
    for _ in range(3):
        fresh.add_vertex("N", {})
    fresh.add_edge(0, 1, "e")
    fresh.add_edge(1, 2, "e")
    fresh.add_edge(0, 2, "f")
    fresh.add_edge(2, 0, "e")
    fresh.remove_edge(1)
    assert adjacency_reads(loaded) == adjacency_reads(fresh)


def test_direction_any_after_deferred_mutation(loaded):
    loaded.add_edge(2, 0, "h")
    assert loaded.has_edge_between(0, 2, "h", direction="in")
    assert loaded.has_edge_between(0, 2, "h", direction="any")
    assert not loaded.has_edge_between(0, 2, "h", direction="out")
