"""Snapshot round-trip, ordering, and corruption-detection tests."""

import pytest

from repro.graphdb.columnar import KIND_FLOAT, KIND_INT, KIND_OBJ
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import (
    SnapshotError,
    graph_state,
    read_snapshot,
    write_snapshot,
)
from repro.graphdb.storage.snapshot import (
    read_snapshot_with_generation,
)


def sample_graph() -> PropertyGraph:
    g = PropertyGraph("sample")
    a = g.add_vertex("Drug", {"name": "aspirin", "doses": [10, 20]})
    b = g.add_vertex(("Drug", "Generic"), {"name": "ibuprofen"})
    c = g.add_vertex("Condition", {"cname": "pain", "severity": 3})
    d = g.add_vertex("Condition", {"cname": "février ☃", "score": 1.25})
    g.add_edge(a, c, "treat", {"strength": 0.9})
    g.add_edge(b, c, "treat")
    g.add_edge(b, d, "treat")
    g.add_edge(a, b, "interacts", {"note": "nsaid"})
    g.create_property_index("Drug", "name")
    return g


class TestRoundTrip:
    def test_identical_state(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert graph_state(loaded) == graph_state(g)

    def test_generation_recorded(self, tmp_path):
        path = tmp_path / "g.rpgs"
        write_snapshot(sample_graph(), path, generation=7)
        _, generation = read_snapshot_with_generation(path)
        assert generation == 7

    def test_property_index_usable_after_load(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert loaded.has_property_index("Drug", "name")
        assert loaded.lookup_property("Drug", "name", "aspirin") == [0]

    def test_iteration_order_preserved(self, tmp_path):
        g = sample_graph()
        g.remove_vertex(1)  # leave id holes and reordered stores
        extra = g.add_vertex("Drug", {"name": "later"})
        g.add_edge(extra, 2, "treat")
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert [v.vid for v in loaded.iter_vertices()] == [
            v.vid for v in g.iter_vertices()
        ]
        assert [e.eid for e in loaded.iter_edges()] == [
            e.eid for e in g.iter_edges()
        ]
        assert loaded.vertices_with_label("Drug") == \
            g.vertices_with_label("Drug")

    def test_id_counters_survive_holes(self, tmp_path):
        g = sample_graph()
        g.remove_vertex(3)
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert loaded.add_vertex("New") == g._next_vid
        assert loaded.add_edge(0, 2, "x") == g._next_eid

    def test_empty_graph(self, tmp_path):
        g = PropertyGraph("empty")
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert graph_state(loaded) == graph_state(g)
        assert loaded.num_vertices == 0

    def test_endpoint_pairs_lazily_rebuilt(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert loaded._base is None  # deferred
        assert loaded.has_edge_between(0, 2, "treat")
        assert not loaded.has_edge_between(2, 0, "treat")
        assert loaded.has_edge_between(2, 0, "treat", direction="in")
        assert loaded._base is not None

    def test_mutable_after_load(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        for target in (loaded, g):
            vid = target.add_vertex("Drug", {"name": "new"})
            eid = target.add_edge(vid, 0, "interacts")
            target.remove_edge(eid)
            target.remove_vertex(vid)
        assert graph_state(loaded) == graph_state(g)

    def test_typed_columns(self, tmp_path):
        g = PropertyGraph("typed")
        g.add_vertex("T", {
            "i": 42, "f": 2.5, "s": "str", "b": True, "n": None,
            "big": 2**80, "lst": ["x", "y"], "mixed": [1, "a"],
            "fl": [1.5, -0.0], "il": [3, 2**40], "bl": [True],
            "nul": "a\x00b",
        })
        g.add_vertex("T", {
            "i": -7, "f": 0.0, "s": "", "b": False,
            "fl": [], "il": [-1], "bl": [False, True], "nul": "c",
        })
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        loaded = read_snapshot(path)
        assert graph_state(loaded) == graph_state(g)
        props = loaded.vertex(0).properties
        assert type(props["i"]) is int
        assert type(props["b"]) is bool
        assert props["big"] == 2**80
        assert props["lst"] == ["x", "y"]
        assert props["nul"] == "a\x00b"
        assert [type(v) for v in props["fl"] + props["il"] + props["bl"]] \
            == [float, float, int, int, bool]
        assert str(props["fl"][1]) == "-0.0"
        table, = loaded.iter_tables()
        kinds = {
            loaded._symbols.name(sid): col.kind
            for sid, col in table.columns.items()
        }
        assert (kinds["i"], kinds["f"], kinds["s"]) == (
            KIND_INT, KIND_FLOAT, KIND_OBJ,
        )


class TestCorruption:
    def test_every_byte_flip_detected_or_harmless(self, tmp_path):
        """Flipping any single byte never yields a silently wrong graph."""
        g = sample_graph()
        path = tmp_path / "g.rpgs"
        write_snapshot(g, path)
        original = path.read_bytes()
        expected = graph_state(g)
        step = max(1, len(original) // 200)
        for offset in range(0, len(original), step):
            corrupted = bytearray(original)
            corrupted[offset] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            try:
                loaded = read_snapshot(path)
            except SnapshotError:
                continue  # detected: good
            assert graph_state(loaded) == expected, (
                f"byte {offset}: corruption not detected"
            )

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "g.rpgs"
        write_snapshot(sample_graph(), path)
        data = path.read_bytes()
        for cut in (0, 4, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(SnapshotError):
                read_snapshot(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "g.rpgs"
        write_snapshot(sample_graph(), path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTASNAP"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "g.rpgs"
        write_snapshot(sample_graph(), path)
        data = bytearray(path.read_bytes())
        data[8] = 0xFF  # low byte of the format version
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "nope.rpgs")

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "g.rpgs"
        write_snapshot(sample_graph(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["g.rpgs"]
